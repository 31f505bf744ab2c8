import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rfsense.errors import DomainError
from rfsense.quantities import CODATA
from rfsense.fieldmetrics import (
    CavityCoupling,
    ReceiverReference,
    aperture_from_diameter,
    aperture_from_gain,
    default_polarisation_coupling,
    enhancement_factor_cavity,
    local_field_requirement,
    meets_classical_reference,
    nef_from_aperture,
    nef_from_gain,
    sefd,
    trx_from_noise_figure,
    tsys_from_nef,
)

# Frozen oracles (direct evaluation with CODATA constants and the default
# free-space impedance 376.730313668 ohm).
SEFD_SMAP_CLASS = 7.5035271739130445e-22   # k_B*500/(0.5*18.4)
NEF_DSN_70M = 6.706254405772384e-12        # sqrt(k_B*23*eta0/2660)
NEF_WMAP_K = 6.472986086255131e-10         # sqrt(k_B*29*eta0/(0.5*0.72))
APERTURE_DIPOLE_96GHZ = 1.1640733180778357e-06  # 1.5*(c/96e9)^2/(4*pi)
APERTURE_45DBI_20GHZ = 0.565420500258143   # 10^4.5*(c/20e9)^2/(4*pi)
NEF_96GHZ_DIPOLE = 7.909167541141833e-06    # gain form at (7000 K, 1.5, 96 GHz, 1/2)
TSYS_96GHZ_DIPOLE = 6983.781960309141      # inverse at 7.9e-6
TSYS_ANTENNA_COUPLED = 79342.37493368964   # inverse at (1.58e-6, 5, 10.4 GHz, 1/2)

# Cavity chains: X band (8.4 GHz, Q_L=8400, eta_c=0.8, V=1e-5 m^3, dish 34 m)
# and Ka band (32 GHz, Q_L=16000, eta_c=0.7, V=2e-6 m^3, A_e=500 m^2).
X_BAND_APERTURE = 590.1481799768426
X_BAND_E_FREE = 1.3276738050210374e-11
X_BAND_BETA = 47461.990364977755
X_BAND_E_LOCAL = 6.301404134174183e-07
KA_BAND_E_FREE = 2.698490806301876e-11
KA_BAND_BETA = 64613.67513398229
KA_BAND_E_LOCAL = 1.7435940831042735e-06


def x_band_cavity():
    return CavityCoupling.from_bandwidth(8.4e9, 1e6, 0.8, 1e-5)


def ka_band_cavity():
    return CavityCoupling.from_bandwidth(32e9, 2e6, 0.7, 2e-6)


class TestSefd:
    def test_smap_class_inputs(self):
        assert sefd(500.0, 18.4, 0.5) == pytest.approx(SEFD_SMAP_CLASS, rel=1e-12)

    def test_half_coupling_doubles(self):
        assert sefd(500.0, 18.4, 0.5) == pytest.approx(
            2.0 * sefd(500.0, 18.4, 1.0), rel=1e-12
        )

    def test_zero_temperature(self):
        assert sefd(0.0, 18.4, 0.5) == 0.0

    def test_non_positive_aperture_rejected(self):
        with pytest.raises(DomainError):
            sefd(500.0, 0.0, 0.5)


class TestNefFromAperture:
    def test_dsn_70m(self):
        value = nef_from_aperture(23.0, 2660.0, 1.0)
        assert value == pytest.approx(NEF_DSN_70M, rel=1e-12)
        assert value == pytest.approx(6.7e-12, rel=0.01)

    def test_wmap_k_band(self):
        value = nef_from_aperture(29.0, 0.72, 0.5)
        assert value == pytest.approx(NEF_WMAP_K, rel=1e-12)
        assert value == pytest.approx(6.5e-10, rel=0.01)

    def test_quadrupled_aperture_halves_field(self):
        assert nef_from_aperture(23.0, 4.0 * 2660.0, 1.0) == pytest.approx(
            NEF_DSN_70M / 2.0, rel=1e-12
        )

    @settings(max_examples=250)
    @given(
        st.floats(min_value=1.0, max_value=1e5),
        st.floats(min_value=1e-6, max_value=1e4),
        st.floats(min_value=0.1, max_value=1.0),
    )
    def test_definition_identity(self, t_sys, a_e, rho2):
        nef = nef_from_aperture(t_sys, a_e, rho2)
        assert nef**2 * rho2 * a_e / CODATA.eta_0 == pytest.approx(
            CODATA.boltzmann * t_sys, rel=1e-12
        )

    @settings(max_examples=250)
    @given(
        st.floats(min_value=1.0, max_value=1e5),
        st.floats(min_value=1e-6, max_value=1e4),
        st.floats(min_value=0.1, max_value=1.0),
    )
    def test_sqrt_of_sefd(self, t_sys, a_e, rho2):
        assert math.sqrt(sefd(t_sys, a_e, rho2) * CODATA.eta_0) == pytest.approx(
            nef_from_aperture(t_sys, a_e, rho2), rel=1e-12
        )


    @pytest.mark.parametrize("args, named", [
        ((math.nan, 2660.0, 1.0), "system temperature"),
        ((23.0, math.inf, 1.0), "effective aperture"),
        ((23.0, 2660.0, 1.0, math.nan), "eta_0"),
    ], ids=["nan-tsys", "inf-aperture", "nan-eta0"])
    def test_non_finite_input_is_named(self, args, named):
        with pytest.raises(DomainError, match=re.escape(named)):
            nef_from_aperture(*args)


class TestNefFromGain:
    @settings(max_examples=250)
    @given(
        st.floats(min_value=1.0, max_value=1e5),
        st.floats(min_value=1e-3, max_value=1e8),
        st.floats(min_value=1e6, max_value=1e13),
        st.floats(min_value=0.1, max_value=1.0),
    )
    def test_equals_aperture_route(self, t_sys, gain, f, rho2):
        via_gain = nef_from_gain(t_sys, gain, f, rho2)
        via_aperture = nef_from_aperture(t_sys, aperture_from_gain(gain, f), rho2)
        assert via_gain == pytest.approx(via_aperture, rel=1e-12)

    def test_route_agreement_under_rounded_impedance(self, monkeypatch):
        monkeypatch.setenv("RFSENSE_ETA0_OHMS", "377")
        via_gain = nef_from_gain(7000.0, 1.5, 96e9, 0.5)
        via_aperture = nef_from_aperture(
            7000.0, aperture_from_gain(1.5, 96e9), 0.5
        )
        assert via_gain == pytest.approx(via_aperture, rel=1e-12)

    def test_96ghz_dipole_coupled_sensor(self):
        value = nef_from_gain(7000.0, 1.5, 96e9, 0.5)
        assert value == pytest.approx(NEF_96GHZ_DIPOLE, rel=1e-12)
        assert value == pytest.approx(7.9e-6, rel=0.01)

    def test_linear_in_frequency(self):
        assert nef_from_gain(7000.0, 1.5, 2.0 * 96e9, 0.5) == pytest.approx(
            2.0 * NEF_96GHZ_DIPOLE, rel=1e-12
        )

    def test_half_coupling_is_sqrt2_larger(self):
        assert nef_from_gain(7000.0, 1.5, 96e9, 0.5) == pytest.approx(
            math.sqrt(2.0) * nef_from_gain(7000.0, 1.5, 96e9, 1.0), rel=1e-12
        )


class TestTsysFromNef:
    def test_96ghz_dipole_coupled_inverse(self):
        value = tsys_from_nef(7.9e-6, 1.5, 96e9, 0.5)
        assert value == pytest.approx(TSYS_96GHZ_DIPOLE, rel=1e-12)
        assert value == pytest.approx(7000.0, rel=0.10)

    def test_antenna_coupled_sensor_inverse(self):
        # Carrier frequency back-solved to ~10.4 GHz; it is a required input.
        value = tsys_from_nef(1.58e-6, 5.0, 10.4e9, 0.5)
        assert value == pytest.approx(TSYS_ANTENNA_COUPLED, rel=1e-12)
        assert value == pytest.approx(80000.0, rel=0.10)

    @settings(max_examples=250)
    @given(
        st.floats(min_value=1.0, max_value=1e5),
        st.floats(min_value=1e-3, max_value=1e8),
        st.floats(min_value=1e6, max_value=1e13),
        st.floats(min_value=0.1, max_value=1.0),
    )
    def test_round_trip(self, t_sys, gain, f, rho2):
        assert tsys_from_nef(
            nef_from_gain(t_sys, gain, f, rho2), gain, f, rho2
        ) == pytest.approx(t_sys, rel=1e-12)

    def test_non_positive_rejected(self):
        with pytest.raises(DomainError):
            tsys_from_nef(0.0, 1.5, 96e9, 0.5)


class TestApertures:
    def test_definitional(self):
        f_for_unit_wavelength = 299792458.0
        assert aperture_from_gain(4.0 * math.pi, f_for_unit_wavelength) == pytest.approx(
            1.0, rel=1e-12
        )

    def test_dipole_gain_96ghz(self):
        assert aperture_from_gain(1.5, 96e9) == pytest.approx(
            APERTURE_DIPOLE_96GHZ, rel=1e-12
        )

    def test_45dbi_at_20ghz(self):
        assert aperture_from_gain(10.0**4.5, 20e9) == pytest.approx(
            APERTURE_45DBI_20GHZ, rel=1e-12
        )

    def test_dish_aperture_default_efficiency(self):
        assert aperture_from_diameter(34.0) == pytest.approx(X_BAND_APERTURE, rel=1e-12)

    def test_dish_aperture_explicit_efficiency(self):
        assert aperture_from_diameter(2.0, 1.0) == pytest.approx(math.pi, rel=1e-12)

    def test_invalid_rejected(self):
        with pytest.raises(DomainError):
            aperture_from_gain(0.0, 20e9)
        with pytest.raises(DomainError):
            aperture_from_diameter(34.0, 1.5)


class TestPolarisationCouplingDefaults:
    def test_coherent(self):
        assert default_polarisation_coupling("coherent") == 1.0

    def test_incoherent(self):
        assert default_polarisation_coupling("incoherent") == 0.5

    def test_unknown_tag_rejected(self):
        with pytest.raises(DomainError):
            default_polarisation_coupling("mostly-coherent")


class TestNoiseFigure:
    def test_zero(self):
        assert trx_from_noise_figure(0.0) == 0.0

    def test_factor_two(self):
        assert trx_from_noise_figure(3.0103) == pytest.approx(290.0, rel=1e-6)

    def test_ten_db(self):
        assert trx_from_noise_figure(10.0) == pytest.approx(2610.0, rel=1e-12)

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            trx_from_noise_figure(-0.1)

    # 4000 dB overflows 10^(NF/10); 3082 dB overflows only the product with T_0.
    @pytest.mark.parametrize("noise_figure_db,message", [
        (4000.0, "dB value must be <= 3082.55 dB"),
        (3082.0, "receiver temperature must be finite and >= 0 K, got inf"),
    ], ids=["4000.0", "3082.0"])
    def test_overflow_is_a_named_domain_error(self, noise_figure_db, message):
        with pytest.raises(DomainError) as caught:
            trx_from_noise_figure(noise_figure_db)
        assert str(caught.value) == message

    def test_a_large_finite_result_is_returned(self):
        assert math.isfinite(trx_from_noise_figure(3000.0))


class TestReceiverReference:
    def test_aperture_only(self):
        ref = ReceiverReference(23.0, effective_aperture_m2=2660.0)
        assert ref.effective_aperture_m2 == 2660.0

    def test_missing_aperture_description_rejected(self):
        with pytest.raises(TypeError):
            ReceiverReference(7000.0)

    def test_rho2_bounds(self):
        with pytest.raises(DomainError):
            ReceiverReference(23.0, effective_aperture_m2=1.0, rho2=0.0)
        with pytest.raises(DomainError):
            ReceiverReference(23.0, effective_aperture_m2=1.0, rho2=1.1)


class TestCavityCoupling:
    def test_from_bandwidth(self):
        cavity = x_band_cavity()
        assert cavity.q_loaded == pytest.approx(8400.0, rel=1e-12)
        assert cavity.linewidth_hz == pytest.approx(1e6, rel=1e-12)

    def test_critical_coupling_composition(self):
        cavity = CavityCoupling.from_quality_factors(8.4e9, 16800.0, 16800.0, 0.8, 1e-5)
        assert cavity.q_loaded == pytest.approx(8400.0, rel=1e-12)

    def test_exchange_invariance(self):
        a = CavityCoupling.from_quality_factors(8.4e9, 10000.0, 30000.0, 0.8, 1e-5)
        b = CavityCoupling.from_quality_factors(8.4e9, 30000.0, 10000.0, 0.8, 1e-5)
        assert enhancement_factor_cavity(a, 590.0) == pytest.approx(
            enhancement_factor_cavity(b, 590.0), rel=1e-12
        )

    def test_invalid_efficiency_rejected(self):
        with pytest.raises(DomainError):
            CavityCoupling(8.4e9, 8400.0, 0.0, 1e-5)
        with pytest.raises(DomainError):
            CavityCoupling(8.4e9, 8400.0, 1.2, 1e-5)


class TestEnhancementChain:
    def test_x_band_enhancement(self):
        beta = enhancement_factor_cavity(x_band_cavity(), X_BAND_APERTURE)
        assert beta == pytest.approx(X_BAND_BETA, rel=1e-12)
        assert beta == pytest.approx(4.7e4, rel=0.02)

    def test_ka_band_enhancement(self):
        beta = enhancement_factor_cavity(ka_band_cavity(), 500.0)
        assert beta == pytest.approx(KA_BAND_BETA, rel=1e-12)
        assert beta == pytest.approx(6.5e4, rel=0.02)

    def test_doubled_q_scales_sqrt2(self):
        base = enhancement_factor_cavity(x_band_cavity(), X_BAND_APERTURE)
        doubled = CavityCoupling(8.4e9, 2.0 * 8400.0, 0.8, 1e-5)
        assert enhancement_factor_cavity(doubled, X_BAND_APERTURE) == pytest.approx(
            math.sqrt(2.0) * base, rel=1e-12
        )

    def test_x_band_chain(self):
        reference = ReceiverReference(20.0, effective_aperture_m2=X_BAND_APERTURE)
        e_free = nef_from_aperture(20.0, X_BAND_APERTURE, 1.0)
        assert e_free == pytest.approx(X_BAND_E_FREE, rel=1e-12)
        assert e_free == pytest.approx(1.3e-11, rel=0.05)
        beta = enhancement_factor_cavity(x_band_cavity(), X_BAND_APERTURE)
        e_local = local_field_requirement(reference, beta)
        assert e_local == pytest.approx(X_BAND_E_LOCAL, rel=1e-12)
        assert e_local == pytest.approx(6.2e-7, rel=0.05)

    def test_ka_band_chain(self):
        reference = ReceiverReference(70.0, effective_aperture_m2=500.0)
        e_free = nef_from_aperture(70.0, 500.0, 1.0)
        assert e_free == pytest.approx(KA_BAND_E_FREE, rel=1e-12)
        assert e_free == pytest.approx(2.7e-11, rel=0.05)
        beta = enhancement_factor_cavity(ka_band_cavity(), 500.0)
        e_local = local_field_requirement(reference, beta)
        assert e_local == pytest.approx(KA_BAND_E_LOCAL, rel=1e-12)
        assert e_local == pytest.approx(1.7e-6, rel=0.05)

    def test_unit_enhancement_is_identity(self):
        reference = ReceiverReference(20.0, effective_aperture_m2=X_BAND_APERTURE)
        assert local_field_requirement(reference, 1.0) == pytest.approx(
            X_BAND_E_FREE, rel=1e-12
        )

    def test_sub_unity_enhancement_warns(self):
        reference = ReceiverReference(20.0, effective_aperture_m2=X_BAND_APERTURE)
        with pytest.warns(UserWarning):
            local_field_requirement(reference, 0.5)


class TestMeetsClassicalReference:
    def test_boundary_inclusive(self):
        assert meets_classical_reference(6.2e-7, 6.2e-7)

    def test_sensor_better(self):
        assert meets_classical_reference(1e-7, X_BAND_E_LOCAL)

    def test_sensor_worse(self):
        assert not meets_classical_reference(1e-5, X_BAND_E_LOCAL)

    def test_non_positive_rejected(self):
        with pytest.raises(DomainError):
            meets_classical_reference(0.0, 6.2e-7)
