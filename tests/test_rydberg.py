import math
from decimal import Decimal, localcontext

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_radar import _exact

from rfsense.errors import DomainError
from rfsense.fieldmetrics import nef_from_gain
from rfsense.quantities import LIGHT_SPEED, PLANCK, REDUCED_PLANCK
from rfsense.rydberg import (
    ATOMIC_DIPOLE_UNIT,
    ac_stark_shift,
    compare_to_classical,
    dipole_moment,
    field_from_rabi,
    photon_shot_noise_nep,
    qpn_nef,
    rabi_from_field,
)

# Frozen oracles (direct evaluation with CODATA constants).
E_A0 = 8.478353625540766e-30             # e * a_0
QPN_REFERENCE = 2.471408310563018e-08    # h/(1000*e*a0)/sqrt(1e6*1e-5)
SHOT_NOISE_1MW_780NM = 1.595846313992435e-11  # sqrt(1e-3*h*c/780e-9)
RABI_REFERENCE_HZ = 127954.48031199559   # (1000*e*a0)*0.01/hbar/(2*pi)


class TestDipoleMoment:
    def test_atomic_unit_value(self):
        assert ATOMIC_DIPOLE_UNIT == pytest.approx(E_A0, rel=1e-12)

    def test_constructor(self):
        assert dipole_moment(1000.0) == pytest.approx(1000.0 * E_A0, rel=1e-12)

    def test_non_positive_rejected(self):
        with pytest.raises(DomainError):
            dipole_moment(0.0)


class TestQpn:
    def test_reference_value(self):
        assert qpn_nef(dipole_moment(1000.0), 1e6, 1e-5) == pytest.approx(
            QPN_REFERENCE, rel=1e-12
        )

    def test_quadrupled_atoms_halves_floor(self):
        base = qpn_nef(dipole_moment(1000.0), 1e6, 1e-5)
        assert qpn_nef(dipole_moment(1000.0), 4e6, 1e-5) == pytest.approx(
            base / 2.0, rel=1e-12
        )

    def test_magnitude_scale_of_superheterodyne_floor(self):
        # Published superheterodyne projection-noise estimates are around
        # 700 pV/cm/sqrt(Hz) = 7e-9 V/m/sqrt(Hz); with plausible (d, N, tau)
        # combinations the formula lands within an order of magnitude.
        # Plausibility check only: the source gives no (d, N, tau) triple.
        value = qpn_nef(dipole_moment(2000.0), 1e7, 1e-5)
        assert 7e-10 < value < 7e-8

    @settings(max_examples=250)
    @given(
        st.floats(min_value=1.0, max_value=1e5),
        st.floats(min_value=1.0, max_value=1e12),
        st.floats(min_value=1e-9, max_value=1e3),
    )
    def test_defining_identity(self, d_multiple, atoms, tau):
        d = d_multiple * ATOMIC_DIPOLE_UNIT
        value = qpn_nef(d, atoms, tau)
        assert value * math.sqrt(atoms * tau) * d / PLANCK == pytest.approx(
            1.0, rel=1e-12
        )

    @pytest.mark.parametrize("args, named", [
        ((math.nan, 1e6, 1e-5), "dipole moment"),
        ((1e-27, math.inf, 1e-5), "atom count"),
        ((1e-27, 1e6, math.nan), "coherence time"),
    ], ids=["nan-dipole", "inf-atoms", "nan-coherence"])
    def test_non_finite_input_is_named(self, args, named):
        with pytest.raises(DomainError, match=named):
            qpn_nef(*args)


class TestPhotonShotNoise:
    def test_zero_power(self):
        assert photon_shot_noise_nep(0.0, 3.8e14) == 0.0

    def test_one_milliwatt_at_780nm(self):
        nu = LIGHT_SPEED / 780e-9
        assert photon_shot_noise_nep(1e-3, nu) == pytest.approx(
            SHOT_NOISE_1MW_780NM, rel=1e-12
        )

    def test_quadrupled_power_doubles(self):
        nu = LIGHT_SPEED / 780e-9
        assert photon_shot_noise_nep(4e-3, nu) == pytest.approx(
            2.0 * photon_shot_noise_nep(1e-3, nu), rel=1e-12
        )

    @settings(max_examples=250)
    @given(
        st.floats(min_value=1e-12, max_value=1.0),
        st.floats(min_value=1e12, max_value=1e16),
    )
    def test_defining_identity(self, power, nu):
        value = photon_shot_noise_nep(power, nu)
        assert value**2 / power == pytest.approx(PLANCK * nu, rel=1e-12)

    def test_non_positive_frequency_rejected(self):
        with pytest.raises(DomainError):
            photon_shot_noise_nep(1e-3, 0.0)

    def test_nep_whose_radicand_overflows(self):
        # P*h*nu is about 6.6e266 beyond the largest float; its root is not.
        with localcontext() as context:
            context.prec = 60
            reference = (Decimal(1e300) * Decimal(PLANCK) * Decimal(1e300)).sqrt()
        assert float(reference) == pytest.approx(2.574115411165552e283, rel=1e-15)
        assert photon_shot_noise_nep(1e300, 1e300) == pytest.approx(float(reference), rel=1e-12)


class TestRabiCalibration:
    def test_zero_field(self):
        assert rabi_from_field(0.0, dipole_moment(1000.0)) == 0.0

    def test_reference_point(self):
        omega = rabi_from_field(0.01, dipole_moment(1000.0))
        assert omega / (2.0 * math.pi) == pytest.approx(RABI_REFERENCE_HZ, rel=1e-12)
        assert omega / (2.0 * math.pi) == pytest.approx(128e3, rel=0.01)

    @settings(max_examples=250)
    @given(
        st.floats(min_value=1e-9, max_value=1e3),
        st.floats(min_value=1.0, max_value=1e5),
    )
    def test_round_trip(self, field, d_multiple):
        d = d_multiple * ATOMIC_DIPOLE_UNIT
        assert field_from_rabi(rabi_from_field(field, d), d) == pytest.approx(
            field, rel=1e-12
        )

    def test_alignment_cosine(self):
        d = dipole_moment(1000.0)
        assert rabi_from_field(0.01, d, alignment_cosine=0.5) == pytest.approx(
            0.5 * rabi_from_field(0.01, d), rel=1e-12
        )

    def test_invalid_inputs_rejected(self):
        with pytest.raises(DomainError):
            rabi_from_field(0.01, 0.0)
        with pytest.raises(DomainError):
            rabi_from_field(0.01, dipole_moment(1000.0), alignment_cosine=2.0)
        with pytest.raises(DomainError):
            field_from_rabi(1e5, dipole_moment(1000.0), alignment_cosine=0.0)


class TestAcStark:
    def test_zero_rabi(self):
        assert ac_stark_shift(0.0, 1e6) == 0.0

    def test_quadratic_in_rabi(self):
        assert ac_stark_shift(2e5, 1e7) == pytest.approx(
            4.0 * ac_stark_shift(1e5, 1e7), rel=1e-12
        )

    def test_odd_in_detuning(self):
        assert ac_stark_shift(1e5, -1e7) == pytest.approx(
            -ac_stark_shift(1e5, 1e7), rel=1e-12
        )

    @settings(max_examples=250)
    @given(
        st.floats(min_value=1e3, max_value=1e8),
        st.floats(min_value=1e4, max_value=1e9),
        st.floats(min_value=0.1, max_value=10.0),
    )
    def test_homogeneity(self, omega, detuning, s):
        assert ac_stark_shift(s * omega, s**2 * detuning) == pytest.approx(
            ac_stark_shift(omega, detuning), rel=1e-9
        )

    def test_zero_detuning_rejected(self):
        with pytest.raises(DomainError):
            ac_stark_shift(1e5, 0.0)

    def test_custom_constant(self):
        assert ac_stark_shift(1e5, 1e7, proportionality=1.0) == pytest.approx(
            4.0 * ac_stark_shift(1e5, 1e7), rel=1e-12
        )


class TestResultsWhoseInlineFormLeavesTheFloatRange:
    """d*E, Omega*hbar or Omega^2 leaves the float range, or a partial product
    is subnormal and a later factor lifts it; the result does not.  Every
    comparison is relative only: pytest.approx's default absolute tolerance of
    1e-12 would pass any result this small."""

    def test_rabi_whose_product_underflows(self):
        reference = _exact((1e-40, 1e-300), (REDUCED_PLANCK,))
        assert reference == pytest.approx(9.48252e-307, rel=1e-5, abs=0.0)
        assert rabi_from_field(1e-300, 1e-40) == pytest.approx(reference, rel=1e-12, abs=0.0)

    def test_field_whose_product_underflows(self):
        reference = _exact((1e-300, REDUCED_PLANCK), (1e-40,))
        assert reference == pytest.approx(1.05457e-294, rel=1e-5, abs=0.0)
        assert field_from_rabi(1e-300, 1e-40) == pytest.approx(reference, rel=1e-12, abs=0.0)

    def test_stark_shift_whose_rabi_square_overflows(self):
        reference = _exact((0.25, 1e200, 1e200), (1e300,))
        assert reference == pytest.approx(2.5e99, rel=1e-12, abs=0.0)
        assert ac_stark_shift(1e200, 1e300) == pytest.approx(reference, rel=1e-12, abs=0.0)
        assert ac_stark_shift(1e200, -1e300) == pytest.approx(-reference, rel=1e-12, abs=0.0)

    def test_rabi_whose_partial_product_is_subnormal(self):
        # d*E is subnormal, digits lost, and 1/hbar lifts it into a normal Omega.
        reference = _exact((1e-23, 1e-300), (REDUCED_PLANCK,))
        assert reference == pytest.approx(9.48252e-290, rel=1e-5, abs=0.0)
        assert rabi_from_field(1e-300, 1e-23) == pytest.approx(reference, rel=1e-12, abs=0.0)
        # d*E is normal; times the cosine it is subnormal.
        reference = _exact((1e-5, 1e-300, 1e-10), (REDUCED_PLANCK,))
        assert rabi_from_field(1e-300, 1e-5, 1e-10) == pytest.approx(reference, rel=1e-12, abs=0.0)

    def test_field_whose_partial_product_is_subnormal(self):
        # Omega*hbar is subnormal, and 1/d lifts it into a normal E.
        reference = _exact((1e-280, REDUCED_PLANCK), (1e-40,))
        assert reference == pytest.approx(1.05457e-274, rel=1e-5, abs=0.0)
        assert field_from_rabi(1e-280, 1e-40) == pytest.approx(reference, rel=1e-12, abs=0.0)
        # Omega*hbar/d is subnormal, and 1/cos lifts it.
        reference = _exact((1e-250, REDUCED_PLANCK), (1e30, 1e-60))
        assert field_from_rabi(1e-250, 1e30, 1e-60) == pytest.approx(reference, rel=1e-12, abs=0.0)

    def test_negative_results_keep_their_sign(self):
        reference = _exact((1e-40, 1e-300, 0.5), (REDUCED_PLANCK,))
        assert rabi_from_field(1e-300, 1e-40, -0.5) == pytest.approx(
            -reference, rel=1e-12, abs=0.0
        )
        reference = _exact((1e-300, REDUCED_PLANCK), (1e-40, 0.5))
        assert field_from_rabi(1e-300, 1e-40, -0.5) == pytest.approx(
            -reference, rel=1e-12, abs=0.0
        )

    def test_a_negative_shift_beyond_the_float_range_is_refused(self):
        with pytest.raises(DomainError) as caught:
            ac_stark_shift(1e200, -1e-300)
        assert str(caught.value) == "AC Stark shift must be finite, got -inf"


class TestCompareToClassical:
    def test_96ghz_dipole_coupled_point(self):
        assert compare_to_classical(7.9e-6, 1.5, 96e9, 0.5) == pytest.approx(
            7000.0, rel=0.10
        )

    def test_antenna_coupled_point(self):
        assert compare_to_classical(1.58e-6, 5.0, 10.4e9, 0.5) == pytest.approx(
            80000.0, rel=0.10
        )

    @settings(max_examples=200)
    @given(
        st.floats(min_value=1.0, max_value=1e5),
        st.floats(min_value=0.1, max_value=1e3),
        st.floats(min_value=1e8, max_value=1e12),
        st.floats(min_value=0.1, max_value=1.0),
    )
    def test_round_trip_with_gain_form(self, t_sys, gain, f, rho2):
        nef = nef_from_gain(t_sys, gain, f, rho2)
        assert compare_to_classical(nef, gain, f, rho2) == pytest.approx(
            t_sys, rel=1e-12
        )
