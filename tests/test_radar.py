import math
from decimal import Decimal, localcontext

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rfsense.errors import FLOAT_MAX, FLOAT_MIN, DomainError
from rfsense.quantities import BOLTZMANN, _scaled_ratio
from rfsense.radar import (
    FOUR_PI_CUBED,
    PointTarget,
    RadarScenario,
    ResolutionCell,
    max_range_ratio,
    nesz,
    nesz_at_unit_snr,
    noise_power,
    processed_received_power,
    _one_way_factor,
    _one_way_terms,
    processing_gain_from_pulse,
    range_resolution,
    received_power,
    snr,
)

# Frozen oracles (direct evaluation of the radar equation terms).
PR_REFERENCE = 4.5353720296686784e-18    # 1e3*1e6*9e-4/((4*pi)^3*1e20)
NOISE_290K_1MHZ = 4.0038821e-15          # k_B*290*1e6
NOISE_SENTINEL_CLASS = 8.366732940000001e-13  # k_B*606*1e8
SNR_COMPOSED = 0.0011327436513849092     # PR_REFERENCE / NOISE_290K_1MHZ
RES_100MHZ = 1.49896229                  # c/2e8
RANGE_RATIO_HALF_TSYS = 0.8408964152537145  # 0.5**0.25


def reference_scenario(**overrides):
    params = dict(
        transmit_power_w=1e3,
        transmit_gain=1e3,
        receive_gain=1e3,
        wavelength_m=0.03,
        target=PointTarget(1.0),
        range_m=1e5,
    )
    params.update(overrides)
    return RadarScenario(**params)


class TestReceivedPower:
    def test_no_target(self):
        assert received_power(reference_scenario(target=PointTarget(0.0))) == 0.0

    def test_reference_value(self):
        assert received_power(reference_scenario()) == pytest.approx(
            PR_REFERENCE, rel=1e-12
        )

    def test_r4_law(self):
        near = received_power(reference_scenario())
        far = received_power(reference_scenario(range_m=2e5))
        assert near / far == pytest.approx(16.0, rel=1e-12)

    def test_needs_point_target(self):
        cell = reference_scenario(target=ResolutionCell(0.1, 10.0))
        with pytest.raises(DomainError) as caught:
            received_power(cell)
        assert str(caught.value) == "received_power needs a point-target scenario (sigma form)"

    def test_invalid_scenario_rejected(self):
        with pytest.raises(DomainError):
            reference_scenario(range_m=0.0)
        with pytest.raises(DomainError):
            reference_scenario(system_loss=0.5)

    @settings(max_examples=250)
    @given(st.floats(min_value=1e-2, max_value=1e2))
    def test_homogeneity(self, s):
        base = received_power(reference_scenario())
        assert received_power(
            reference_scenario(transmit_power_w=1e3 * s)
        ) == pytest.approx(s * base, rel=1e-12)
        assert received_power(
            reference_scenario(wavelength_m=0.03 * s)
        ) == pytest.approx(s**2 * base, rel=1e-12)
        assert received_power(
            reference_scenario(range_m=1e5 * s)
        ) == pytest.approx(base / s**4, rel=1e-12)
        if s >= 1.0:
            assert received_power(
                reference_scenario(system_loss=s, propagation_loss=s)
            ) == pytest.approx(base / s**2, rel=1e-12)


class TestProcessedPower:
    def test_consistency_with_point_form(self):
        sigma0, area = 0.05, 20.0
        cell = reference_scenario(target=ResolutionCell(sigma0, area))
        point = reference_scenario(target=PointTarget(sigma0 * area))
        assert processed_received_power(cell) == pytest.approx(
            received_power(point), rel=1e-12
        )

    def test_pulse_compression_gain(self):
        assert processing_gain_from_pulse(100e6, 10e-6) == pytest.approx(1000.0)

    def test_zero_backscatter(self):
        cell = reference_scenario(target=ResolutionCell(0.0, 20.0))
        assert processed_received_power(cell) == 0.0

    def test_needs_resolution_cell(self):
        with pytest.raises(DomainError) as caught:
            processed_received_power(reference_scenario())
        assert str(caught.value) == (
            "processed_received_power needs a resolution-cell scenario (sigma0 form)"
        )

    def test_processing_gain_scales_linearly(self):
        cell = reference_scenario(target=ResolutionCell(0.05, 20.0))
        boosted = reference_scenario(
            target=ResolutionCell(0.05, 20.0), processing_gain=1000.0
        )
        assert processed_received_power(boosted) == pytest.approx(
            1000.0 * processed_received_power(cell), rel=1e-12
        )


class TestNoiseAndSnr:
    def test_zero_temperature(self):
        assert noise_power(0.0, 1e6) == 0.0

    def test_thermal_floor(self):
        assert noise_power(290.0, 1e6) == pytest.approx(NOISE_290K_1MHZ, rel=1e-9)

    def test_sentinel_class_values(self):
        assert noise_power(606.0, 1e8) == pytest.approx(NOISE_SENTINEL_CLASS, rel=1e-9)

    def test_snr_unity(self):
        assert snr(4e-15, 4e-15) == 1.0

    def test_snr_ratio(self):
        assert snr(4e-15, 4e-15 * 100.0) == pytest.approx(0.01, rel=1e-12)

    def test_composed_chain(self):
        p_r = received_power(reference_scenario())
        assert snr(p_r, noise_power(290.0, 1e6)) == pytest.approx(
            SNR_COMPOSED, rel=1e-9
        )

    @pytest.mark.parametrize("args, named", [
        ((math.nan, 1e6), "system temperature"),
        ((290.0, math.inf), "bandwidth"),
    ], ids=["nan-tsys", "inf-bandwidth"])
    def test_non_finite_noise_input_is_named(self, args, named):
        with pytest.raises(DomainError, match=named):
            noise_power(*args)

    def test_non_positive_noise_rejected(self):
        with pytest.raises(DomainError):
            snr(1e-15, 0.0)


class TestNesz:
    def test_direct_ratio(self):
        assert nesz(0.01, 100.0) == pytest.approx(1e-4, rel=1e-12)

    def test_unity(self):
        assert nesz(1.0, 1.0) == 1.0

    @settings(max_examples=250)
    @given(
        st.floats(min_value=1e-6, max_value=10.0),
        st.floats(min_value=1e-6, max_value=1e6),
    )
    def test_algebraic_identity(self, sigma0, ratio):
        assert nesz(sigma0, ratio) * ratio == pytest.approx(sigma0, rel=1e-12)

    def test_unit_snr_solver_needs_resolution_cell(self):
        point = reference_scenario(system_temperature_k=606.0, bandwidth_hz=1e8)
        with pytest.raises(DomainError) as caught:
            nesz_at_unit_snr(point)
        assert str(caught.value) == "nesz_at_unit_snr needs a resolution-cell scenario"

    @pytest.mark.parametrize("overrides", [
        {}, dict(system_temperature_k=606.0), dict(bandwidth_hz=1e8),
    ], ids=["neither", "no-bandwidth", "no-tsys"])
    def test_unit_snr_solver_needs_tsys_and_bandwidth(self, overrides):
        cell = reference_scenario(target=ResolutionCell(0.05, 20.0), **overrides)
        with pytest.raises(DomainError) as caught:
            nesz_at_unit_snr(cell)
        assert str(caught.value) == "scenario needs system temperature and bandwidth for NESZ"

    def test_ratio_form_matches_unit_snr_solver(self):
        cell = reference_scenario(
            target=ResolutionCell(0.05, 20.0),
            processing_gain=500.0,
            system_temperature_k=606.0,
            bandwidth_hz=1e8,
        )
        p_n = noise_power(606.0, 1e8)
        ratio = snr(processed_received_power(cell), p_n)
        assert nesz(0.05, ratio) == pytest.approx(nesz_at_unit_snr(cell), rel=1e-12)


class TestResolutionAndRange:
    def test_100mhz(self):
        assert range_resolution(1e8) == pytest.approx(RES_100MHZ, rel=1e-12)

    def test_definitional(self):
        assert range_resolution(299792458.0 / 2.0) == pytest.approx(1.0, rel=1e-12)

    def test_inverse_scaling(self):
        assert range_resolution(2e8) == pytest.approx(range_resolution(1e8) / 2.0, rel=1e-12)

    def test_equal_temperatures(self):
        assert max_range_ratio(606.0, 606.0) == 1.0

    def test_sixteenfold(self):
        assert max_range_ratio(1600.0, 100.0) == pytest.approx(2.0, rel=1e-12)

    def test_doubled_tsys(self):
        assert max_range_ratio(290.0, 580.0) == pytest.approx(
            RANGE_RATIO_HALF_TSYS, rel=1e-12
        )

    def test_non_positive_rejected(self):
        with pytest.raises(DomainError):
            max_range_ratio(0.0, 100.0)
        with pytest.raises(DomainError):
            range_resolution(0.0)


class TestSystemTemperatureImprovement:
    @settings(max_examples=200)
    @given(st.floats(min_value=1.1, max_value=100.0))
    def test_improvement_factor_propagates(self, k):
        # Lowering T_sys by k improves NESZ by k and max range by k^(1/4).
        t_hot = 1000.0
        t_cold = t_hot / k
        cell_kwargs = dict(
            target=ResolutionCell(0.05, 20.0),
            processing_gain=100.0,
            bandwidth_hz=1e8,
        )
        hot = reference_scenario(system_temperature_k=t_hot, **cell_kwargs)
        cold = reference_scenario(system_temperature_k=t_cold, **cell_kwargs)
        assert nesz_at_unit_snr(hot) / nesz_at_unit_snr(cold) == pytest.approx(
            k, rel=1e-9
        )
        assert max_range_ratio(t_hot, t_cold) == pytest.approx(k**0.25, rel=1e-9)


def _exact(numerators, denominators) -> float:
    """The float nearest ``prod(numerators) / prod(denominators)``, each float taken exactly."""
    with localcontext() as context:
        context.prec = 60
        value = Decimal(1)
        for x in numerators:
            value *= Decimal(x)
        for x in denominators:
            value /= Decimal(x)
    return float(value)


class TestResultsWhoseInlineFormOverflows:
    """P_t*G_t*G_r*lambda^2, or R^4, leaves the float range; the result does not."""

    def test_received_power(self):
        s = RadarScenario(1e300, 1e10, 1.0, 1.0, PointTarget(1.0), 1e3)
        reference = _exact((1e300, 1e10), (FOUR_PI_CUBED, 1e3, 1e3, 1e3, 1e3))
        assert reference == 5.039302255187421e294
        assert received_power(s) == pytest.approx(reference, rel=1e-15)

    def test_processed_received_power(self):
        s = RadarScenario(1e300, 1e10, 1.0, 1.0, ResolutionCell(1.0, 1.0), 1e3)
        reference = _exact((1e300, 1e10), (FOUR_PI_CUBED, 1e3, 1e3, 1e3, 1e3))
        assert processed_received_power(s) == pytest.approx(reference, rel=1e-15)

    def test_nesz_at_unit_snr(self):
        s = RadarScenario(1e300, 1e10, 1e10, 1.0, ResolutionCell(1.0, 1.0), 1e80,
                          system_temperature_k=300.0, bandwidth_hz=1e6)
        reference = _exact((BOLTZMANN, 300.0, 1e6, FOUR_PI_CUBED, 1e80, 1e80, 1e80, 1e80),
                           (1e300, 1e10, 1e10))
        assert reference == 8.219286699336818e-12
        assert nesz_at_unit_snr(s) == pytest.approx(reference, rel=1e-15, abs=0.0)

    def test_zero_cross_section_behind_an_overflow_is_zero(self):
        # The inline form is inf * 0, a NaN.
        assert received_power(RadarScenario(1e300, 1e10, 1.0, 1.0, PointTarget(0.0), 1e3)) == 0.0

    def test_zero_cross_section_behind_an_exponent_past_the_float_range_is_zero(self):
        # The other factors' exponents sum past the largest float's.
        s = RadarScenario(1e300, 1e20, 1.0, 1.0, PointTarget(0.0), 1.0)
        assert received_power(s) == 0.0
        cell = RadarScenario(1e300, 1e20, 1.0, 1.0, ResolutionCell(0.0, 1.0), 1.0)
        assert processed_received_power(cell) == 0.0

    def test_zero_noise_power_behind_an_exponent_past_the_float_range_is_zero(self):
        s = RadarScenario(1.0, 1.0, 1.0, 1.0, ResolutionCell(1.0, 1.0), 1e100,
                          system_temperature_k=0.0, bandwidth_hz=1e6)
        assert nesz_at_unit_snr(s) == 0.0

    def test_result_beyond_the_float_range_is_still_refused(self):
        s = RadarScenario(1e300, 1e300, 1.0, 1.0, PointTarget(1.0), 1.0)
        with pytest.raises(DomainError) as caught:
            received_power(s)
        assert str(caught.value) == "received power must be finite and >= 0 W, got inf"

    def test_result_below_the_float_range_is_zero(self):
        assert received_power(reference_scenario(range_m=1e300)) == 0.0

    def test_max_range_ratio_whose_quotient_overflows(self):
        with localcontext() as context:
            context.prec = 60
            reference = float((Decimal(1e300) / Decimal(1e-300)).sqrt().sqrt())
        assert reference == pytest.approx(1e150, rel=1e-12)
        assert max_range_ratio(1e300, 1e-300) == pytest.approx(reference, rel=1e-12)
        assert max_range_ratio(1e-300, 1e300) == pytest.approx(1.0 / reference, rel=1e-12)


class TestResultsWhosePartialProductIsSubnormal:
    """P_t*G_t is subnormal, digits lost, and G_r lifts it into a normal result."""

    def test_received_power(self):
        s = RadarScenario(1e-300, 1e-23, 1e300, 1.0, PointTarget(1.0), 1.0)
        reference = _exact((1e-300, 1e-23, 1e300), (FOUR_PI_CUBED,))
        assert reference == pytest.approx(5.03930e-27, rel=1e-5, abs=0.0)
        assert received_power(s) == pytest.approx(reference, rel=1e-12, abs=0.0)

    def test_processed_received_power(self):
        s = RadarScenario(1e-300, 1e-23, 1e300, 1.0, ResolutionCell(1.0, 1.0), 1.0)
        reference = _exact((1e-300, 1e-23, 1e300), (FOUR_PI_CUBED,))
        assert processed_received_power(s) == pytest.approx(reference, rel=1e-12, abs=0.0)

    def test_nesz_at_unit_snr(self):
        # The inverse form divides by each input, so no partial is subnormal here.
        s = RadarScenario(1e-300, 1e-23, 1e300, 1.0, ResolutionCell(1.0, 1.0), 1.0,
                          system_temperature_k=300.0, bandwidth_hz=1e6)
        reference = _exact((BOLTZMANN, 300.0, 1e6, FOUR_PI_CUBED), (1e-300, 1e-23, 1e300))
        assert nesz_at_unit_snr(s) == pytest.approx(reference, rel=1e-12, abs=0.0)


_moderate = st.floats(min_value=1e-30, max_value=1e30)
_loss = st.floats(min_value=1.0, max_value=1e30)


@settings(max_examples=200, deadline=None)
@given(_moderate, _moderate, _moderate, _moderate, _moderate, _loss, _loss)
def test_the_one_way_terms_are_the_factors_of_the_inline_form(p_t, g_t, g_r, wavelength,
                                                              range_m, l_s, l_p):
    s = RadarScenario(p_t, g_t, g_r, wavelength, PointTarget(1.0), range_m, l_s, l_p)
    inline = _one_way_factor(s)
    assume(FLOAT_MIN <= inline <= FLOAT_MAX)
    assert _scaled_ratio(*_one_way_terms(s)) == pytest.approx(inline, rel=1e-14)
