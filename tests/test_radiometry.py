import math
import random
import sys
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from test_radar import _exact

from rfsense.errors import DomainError, SingularFitError
from rfsense.quantities import BOLTZMANN
from rfsense.radiometry import (
    CalibrationPoint,
    ReceiverNoiseModel,
    calibrate_hot_cold,
    nedt,
    radiometer_output_power,
    tsys_from_nedt,
)

K_B = BOLTZMANN

# Frozen oracles (direct evaluation).
NEDT_183GHZ_CHANNEL = 0.21983909835756393   # 850*sqrt(1/1.5e7 + (1.5e-5)^2)
NEDT_NO_GAIN_TERM = 0.21946905628508695     # 850/sqrt(1.5e7)
THERMAL_FLOOR_290K_1MHZ = 4.0038821e-15     # k_B*290*1e6
OUTPUT_POWER_HIGH_GAIN = 0.117355165        # 1e10*k_B*850*1e9
TSYS_FROM_TABLE_NEDT = 852.0563361656317    # 0.22*sqrt(1.5e7)


def reference_channel(gain_stability=1.5e-5):
    return ReceiverNoiseModel(
        antenna_temperature_k=250.0,
        receiver_temperature_k=600.0,
        bandwidth_hz=1e9,
        integration_time_s=15e-3,
        gain_stability=gain_stability,
    )


class TestNedt:
    def test_183ghz_channel(self):
        assert nedt(reference_channel()) == pytest.approx(0.22, abs=0.005)
        assert nedt(reference_channel()) == pytest.approx(NEDT_183GHZ_CHANNEL, rel=1e-12)

    def test_without_gain_fluctuation(self):
        assert nedt(reference_channel(0.0)) == pytest.approx(NEDT_NO_GAIN_TERM, rel=1e-12)

    def test_zero_system_temperature(self):
        model = ReceiverNoiseModel(0.0, 0.0, 1e9, 15e-3, 1e-5)
        assert nedt(model) == 0.0

    def test_system_temperature_accessor(self):
        assert reference_channel().system_temperature_k == 850.0

    def test_invalid_model_rejected(self):
        with pytest.raises(DomainError):
            ReceiverNoiseModel(250.0, 600.0, 0.0, 15e-3)
        with pytest.raises(DomainError):
            ReceiverNoiseModel(250.0, 600.0, 1e9, 0.0)
        with pytest.raises(DomainError):
            ReceiverNoiseModel(-1.0, 600.0, 1e9, 15e-3)

    @settings(max_examples=200)
    @given(
        st.floats(min_value=1.0, max_value=1e4),
        st.floats(min_value=1e3, max_value=1e10),
        st.floats(min_value=1e-6, max_value=1e3),
        st.floats(min_value=1.5, max_value=10.0),
    )
    def test_monotone_in_bandwidth_and_time(self, t_sys, bandwidth, tau, factor):
        base = ReceiverNoiseModel(t_sys, 0.0, bandwidth, tau, 0.0)
        wider = ReceiverNoiseModel(t_sys, 0.0, bandwidth * factor, tau, 0.0)
        longer = ReceiverNoiseModel(t_sys, 0.0, bandwidth, tau * factor, 0.0)
        assert nedt(wider) < nedt(base)
        assert nedt(longer) < nedt(base)

    # B*tau underflows to 0, is subnormal (1/(B*tau) overflows), or overflows.
    @pytest.mark.parametrize("bandwidth,tau", [(1e-320, 1e-320), (1e-160, 1e-160),
                                               (1e300, 1e300)])
    def test_bandwidth_time_product_outside_the_float_range_as_in_the_inverse(
        self, bandwidth, tau
    ):
        with pytest.raises(DomainError) as forward:
            nedt(ReceiverNoiseModel(1.0, 1.0, bandwidth, tau))
        with pytest.raises(DomainError) as inverse:
            tsys_from_nedt(1.0, bandwidth, tau)
        assert str(forward.value) == str(inverse.value)

    def test_gain_fluctuation_floor_at_long_integration(self):
        model = ReceiverNoiseModel(250.0, 600.0, 1e9, 1e12, 1.5e-5)
        floor = model.system_temperature_k * model.gain_stability
        assert nedt(model) == pytest.approx(floor, rel=1e-3)


class TestOutputPower:
    def test_zero_temperature(self):
        assert radiometer_output_power(1.0, 0.0, 0.0, 1e9) == 0.0

    def test_thermal_floor(self):
        assert radiometer_output_power(1.0, 290.0, 0.0, 1e6) == pytest.approx(
            THERMAL_FLOOR_290K_1MHZ, rel=1e-9
        )

    def test_high_gain_channel(self):
        assert radiometer_output_power(1e10, 250.0, 600.0, 1e9) == pytest.approx(
            OUTPUT_POWER_HIGH_GAIN, rel=1e-9
        )

    @pytest.mark.parametrize("gain,bandwidth", [(0.0, 1e9), (-1.0, 1e9), (1.0, 0.0)])
    def test_non_positive_rejected(self, gain, bandwidth):
        with pytest.raises(DomainError):
            radiometer_output_power(gain, 250.0, 600.0, bandwidth)

    def test_partial_product_below_the_normal_range(self):
        # gain*k_B is subnormal, digits lost, and T_A*B lifts it into a normal power.
        reference = _exact((1e-300, BOLTZMANN, 1e300, 1e300), ())
        assert reference == pytest.approx(1.38065e277, rel=1e-5)
        assert radiometer_output_power(1e-300, 1e300, 0.0, 1e300) == pytest.approx(
            reference, rel=1e-12, abs=0.0
        )
        # gain*k_B is normal, times T_A it is subnormal, and B lifts it.
        reference = _exact((1.0, BOLTZMANN, 1e-290, 1e300), ())
        assert radiometer_output_power(1.0, 1e-290, 0.0, 1e300) == pytest.approx(
            reference, rel=1e-12, abs=0.0
        )

    def test_partial_product_beyond_the_float_range(self):
        reference = _exact((1e300, BOLTZMANN, 1e300, 1e-300), ())
        assert radiometer_output_power(1e300, 1e300, 0.0, 1e-300) == pytest.approx(
            reference, rel=1e-12, abs=0.0
        )

    def test_result_beyond_the_float_range_is_still_refused(self):
        with pytest.raises(DomainError) as caught:
            radiometer_output_power(1e300, 1e300, 0.0, 1e300)
        assert str(caught.value) == "output power must be finite and >= 0 W, got inf"

    @settings(max_examples=200)
    @given(
        st.floats(min_value=1.0, max_value=1e12),
        st.floats(min_value=1.0, max_value=1e4),
        st.floats(min_value=1e3, max_value=1e10),
        st.floats(min_value=1.01, max_value=100.0),
    )
    def test_linear_in_each_argument(self, gain, t_sys, bandwidth, s):
        base = radiometer_output_power(gain, t_sys, 0.0, bandwidth)
        assert radiometer_output_power(s * gain, t_sys, 0.0, bandwidth) == pytest.approx(
            s * base, rel=1e-12
        )
        assert radiometer_output_power(gain, s * t_sys, 0.0, bandwidth) == pytest.approx(
            s * base, rel=1e-12
        )
        assert radiometer_output_power(gain, t_sys, 0.0, s * bandwidth) == pytest.approx(
            s * base, rel=1e-12
        )


def synthesize_points(gain, t_rx, loads, bandwidth):
    return [
        CalibrationPoint(t_a, gain * K_B * bandwidth * (t_a + t_rx))
        for t_a in loads
    ]


def normal_equations_fit(points, bandwidth):
    # Independent oracle: closed-form normal equations for the line fit,
    # kept deliberately distinct from the library's least-squares route.
    n = len(points)
    sx = sum(p.antenna_temperature_k for p in points)
    sy = sum(p.output_power_w for p in points)
    sxx = sum(p.antenna_temperature_k**2 for p in points)
    sxy = sum(p.antenna_temperature_k * p.output_power_w for p in points)
    slope = (n * sxy - sx * sy) / (n * sxx - sx**2)
    intercept = (sy - slope * sx) / n
    return slope / (K_B * bandwidth), intercept / slope


class TestCalibration:
    def test_two_point_exact_inversion(self):
        points = synthesize_points(1e10, 600.0, [77.0, 300.0], 1e9)
        result = calibrate_hot_cold(points, 1e9)
        assert result.gain == pytest.approx(1e10, rel=1e-9)
        assert result.receiver_temperature_k == pytest.approx(600.0, rel=1e-9)
        assert result.warnings == ()

    def test_five_point_fit_matches_normal_equations(self):
        loads = [4.0, 77.0, 150.0, 220.0, 300.0]
        points = synthesize_points(2e9, 150.0, loads, 1e8)
        result = calibrate_hot_cold(points, 1e8)
        oracle_gain, oracle_trx = normal_equations_fit(points, 1e8)
        assert result.gain == pytest.approx(oracle_gain, rel=1e-9)
        assert result.receiver_temperature_k == pytest.approx(oracle_trx, rel=1e-9)
        assert result.gain == pytest.approx(2e9, rel=1e-9)
        assert result.receiver_temperature_k == pytest.approx(150.0, rel=1e-9)

    def test_identical_loads_rejected(self):
        points = [
            CalibrationPoint(290.0, 1e-11),
            CalibrationPoint(290.0, 1.2e-11),
        ]
        with pytest.raises(SingularFitError):
            calibrate_hot_cold(points, 1e9)

    def test_single_point_rejected(self):
        with pytest.raises(SingularFitError):
            calibrate_hot_cold([CalibrationPoint(77.0, 1e-11)], 1e9)

    def test_negative_receiver_temperature_flagged_not_clamped(self):
        # Lines crossing zero power at positive T_A imply a negative T_Rx.
        gain, bandwidth = 1e9, 1e8
        points = [
            CalibrationPoint(100.0, gain * K_B * bandwidth * (100.0 - 50.0)),
            CalibrationPoint(300.0, gain * K_B * bandwidth * (300.0 - 50.0)),
        ]
        result = calibrate_hot_cold(points, bandwidth)
        assert result.receiver_temperature_k == pytest.approx(-50.0, rel=1e-9)
        assert result.warnings

    @settings(max_examples=250)
    @given(
        st.floats(min_value=1e3, max_value=1e12),
        st.floats(min_value=0.1, max_value=1e4),
        st.floats(min_value=1e4, max_value=1e10),
        st.lists(
            st.floats(min_value=1.0, max_value=1000.0),
            min_size=2,
            max_size=8,
            unique=True,
        ),
    )
    def test_recovers_parameters_on_noiseless_data(self, gain, t_rx, bandwidth, loads):
        # Nearly coincident loads make the intercept ill-conditioned; a real
        # hot/cold calibration always separates them.
        assume(max(loads) - min(loads) >= 50.0)
        points = synthesize_points(gain, t_rx, loads, bandwidth)
        result = calibrate_hot_cold(points, bandwidth)
        assert result.gain == pytest.approx(gain, rel=1e-9)
        assert result.receiver_temperature_k == pytest.approx(t_rx, rel=1e-9, abs=1e-9 * t_rx)


def exact_line(points):
    # Exact reference: the centred least-squares line in rational arithmetic
    # on the float inputs, as (slope, intercept).
    temps = [Fraction(p.antenna_temperature_k) for p in points]
    powers = [Fraction(p.output_power_w) for p in points]
    t_mean = sum(temps) / len(temps)
    p_mean = sum(powers) / len(powers)
    sxx = sum((t - t_mean) ** 2 for t in temps)
    sxy = sum((t - t_mean) * (p - p_mean) for t, p in zip(temps, powers))
    slope = sxy / sxx
    return slope, p_mean - slope * t_mean


def exact_fit(points, bandwidth):
    # (G, T_Rx) of the exact line, each rounded once at the end.
    slope, intercept = exact_line(points)
    return float(slope / Fraction(K_B) / Fraction(bandwidth)), float(intercept / slope)


def sweep_points(n, scale, noise, seed):
    # Loads spread over [50, 350]*scale, T_Rx = 600*scale, G = 1e5, B = 1 GHz.
    rng = random.Random(seed)
    if n == 2:
        loads = [77.0 * scale, 300.0 * scale]
    else:
        loads = [(50.0 + 300.0 * i / (n - 1) + rng.uniform(-0.5, 0.5)) * scale for i in range(n)]
    return [
        CalibrationPoint(t, 1e5 * K_B * 1e9 * (t + 600.0 * scale) * (1.0 + rng.uniform(-noise, noise)))
        for t in loads
    ]


def cluster_points(n, spread, scale, noise, seed):
    # Loads within a relative spread of 300*scale, the first two at its ends;
    # powers as in sweep_points.
    rng = random.Random(seed)
    centre = 300.0 * scale
    loads = [centre * (1.0 - spread / 2), centre * (1.0 + spread / 2)] + [
        centre * (1.0 + spread * rng.uniform(-0.5, 0.5)) for _ in range(n - 2)
    ]
    return [
        CalibrationPoint(t, 1e5 * K_B * 1e9 * (t + 600.0 * scale)
                         * (1.0 + rng.uniform(-noise, noise)))
        for t in loads
    ]


def drawn_calibration(seed):
    # (n, noise, scale, seed of the points): every 32nd draw has 4096 points,
    # the others 2-4096 log-uniform; noise up to 0.3; scale 1e-200..1e200.
    rng = random.Random(seed)
    n = 4096 if seed % 32 == 0 else round(2.0 ** rng.uniform(1.0, 12.0))
    return n, rng.uniform(0.0, 0.3), 10.0 ** rng.uniform(-200.0, 200.0), rng.getrandbits(32)


def profile_events(points):
    # Python and C calls that rfsense code makes while fitting ``points``.
    # Calls from elsewhere are left out: a garbage collection that happens to
    # fall inside the fit runs the ``gc.callbacks`` other libraries install
    # (hypothesis registers one), and whether it falls there depends on what
    # the session allocated before, not on the fit.
    events = Counter()

    def count(frame, event, arg):
        if frame.f_globals.get("__name__", "").startswith("rfsense."):
            events[event] += 1

    sys.setprofile(count)
    try:
        calibrate_hot_cold(points, 1e9)
    finally:
        sys.setprofile(None)
    return events["call"], events["c_call"]


class TestCalibrationAgainstExactFit:
    @pytest.mark.parametrize("scale", [1e-200, 1e-100, 1.0, 1e100, 1e200])
    @pytest.mark.parametrize("n,noise", [(2, 0.0), (3, 1e-3), (256, 1e-2), (4096, 1e-3)])
    def test_matches_rational_least_squares(self, n, noise, scale):
        points = sweep_points(n, scale, noise, seed=n)
        gain, t_rx = exact_fit(points, 1e9)
        result = calibrate_hot_cold(points, 1e9)
        # Two points are exact interpolation; more are a few roundings per sum.
        rel = 1e-14 if n == 2 else 1e-12
        assert result.gain == pytest.approx(gain, rel=rel, abs=0.0)
        assert result.receiver_temperature_k == pytest.approx(t_rx, rel=rel, abs=0.0)
        assert type(result.gain) is float and type(result.receiver_temperature_k) is float

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(min_value=2, max_value=512),
        st.floats(min_value=-200.0, max_value=200.0),  # log10 of the scale
        st.floats(min_value=0.0, max_value=1e-2),
        st.integers(min_value=0, max_value=2**32),
    )
    def test_matches_rational_least_squares_on_drawn_sweeps(self, n, log_scale, noise, seed):
        points = sweep_points(n, 10.0**log_scale, noise, seed)
        gain, t_rx = exact_fit(points, 1e9)
        result = calibrate_hot_cold(points, 1e9)
        rel = 1e-14 if n == 2 else 1e-12
        assert result.gain == pytest.approx(gain, rel=rel, abs=0.0)
        assert result.receiver_temperature_k == pytest.approx(t_rx, rel=rel, abs=0.0)

    # Fixed draws rather than hypothesis: 4096-point exact fits are too slow to
    # shrink, and a fixed set is the same on every run and Python version.
    @pytest.mark.parametrize("seed", range(48))
    def test_matches_rational_least_squares_on_wide_drawn_sweeps(self, seed):
        n, noise, scale, points_seed = drawn_calibration(seed)
        points = sweep_points(n, scale, noise, points_seed)
        gain, t_rx = exact_fit(points, 1e9)
        result = calibrate_hot_cold(points, 1e9)
        rel = 1e-14 if n == 2 else 1e-12
        assert result.gain == pytest.approx(gain, rel=rel, abs=0.0)
        assert result.receiver_temperature_k == pytest.approx(t_rx, rel=rel, abs=0.0)

    # Only the gain: extrapolating a tight cluster of loads to T_A = -T_Rx
    # makes the intercept ill-conditioned in any float arithmetic.
    @pytest.mark.parametrize("seed", range(64))
    def test_gain_matches_rational_least_squares_on_clustered_loads(self, seed):
        n, noise, scale, points_seed = drawn_calibration(seed)
        spread = 10.0 ** random.Random(~seed).uniform(-12.0, 0.0)
        points = cluster_points(n, spread, scale, noise, points_seed)
        slope, _ = exact_line(points)
        if slope <= 0:
            with pytest.raises(SingularFitError, match="non-positive"):
                calibrate_hot_cold(points, 1e9)
            return
        gain = float(slope / Fraction(K_B) / Fraction(1e9))
        assert calibrate_hot_cold(points, 1e9).gain == pytest.approx(gain, rel=1e-12, abs=0.0)

    def test_no_python_work_per_point(self):
        # Each pass over the points runs in C: a generator, a per-point helper
        # or a comprehension that calls something would add events per point.
        assert profile_events(sweep_points(16, 1.0, 1e-3, 16)) == profile_events(
            sweep_points(4096, 1.0, 1e-3, 4096)
        )

    def test_gain_whose_power_to_load_ratio_is_subnormal(self):
        # p_span/t_span = 1e-310/223 has lost digits; 1/(k_B*B) lifts it.
        points = [CalibrationPoint(77.0, 1e-310), CalibrationPoint(300.0, 2e-310)]
        gain, t_rx = exact_fit(points, 1e9)
        assert gain == pytest.approx(3.24797e-299, rel=1e-5, abs=0.0)
        result = calibrate_hot_cold(points, 1e9)
        assert result.gain == pytest.approx(gain, rel=1e-14, abs=0.0)
        assert result.receiver_temperature_k == pytest.approx(t_rx, rel=1e-14, abs=0.0)

    def test_gain_whose_power_to_load_ratio_underflows_to_zero(self):
        points = [CalibrationPoint(77.0, 0.0), CalibrationPoint(300.0, 5e-324)]
        gain, t_rx = exact_fit(points, 1e-300)
        assert gain == pytest.approx(1.60471e-3, rel=1e-5)
        assert t_rx == -77.0
        result = calibrate_hot_cold(points, 1e-300)
        assert result.gain == pytest.approx(gain, rel=1e-14, abs=0.0)
        assert result.receiver_temperature_k == t_rx
        assert result.warnings == (
            "fitted receiver temperature is negative (-77 K);"
            " calibration data may be inconsistent",
        )

    def test_full_float_range_two_points(self):
        points = [CalibrationPoint(0.0, 0.0), CalibrationPoint(1e308, 1e308)]
        result = calibrate_hot_cold(points, 1e9)
        assert result.gain == pytest.approx(exact_fit(points, 1e9)[0], rel=1e-15)
        assert result.receiver_temperature_k == 0.0

    @pytest.mark.parametrize(
        "points",
        [
            [(77.0, 1.063e-11), (1e308, 1.243e-11)],       # T_Rx beyond 1.8e308 K
            [(77.0, 1e-11), (300.0, 1e-11), (150.0, 1e-11)],  # flat: zero slope
            [(77.0, 2e-11), (300.0, 1e-11)],                # falling power
        ],
        ids=["receiver-temperature-overflow", "equal-powers", "negative-slope"],
    )
    def test_unrepresentable_or_inconsistent_fit_is_singular(self, points):
        with pytest.raises(SingularFitError):
            calibrate_hot_cold([CalibrationPoint(t, p) for t, p in points], 1e9)

    @pytest.mark.parametrize("field", ["antenna_temperature_k", "output_power_w"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_point_names_the_field(self, field, value):
        values = {"antenna_temperature_k": 77.0, "output_power_w": 1e-11, field: value}
        with pytest.raises(DomainError, match=field):
            CalibrationPoint(**values)

    @pytest.mark.parametrize("bandwidth", [math.nan, math.inf])
    def test_non_finite_bandwidth_rejected(self, bandwidth):
        points = sweep_points(2, 1.0, 0.0, seed=0)
        with pytest.raises(DomainError, match="bandwidth"):
            calibrate_hot_cold(points, bandwidth)


class TestTsysFromNedt:
    def test_table_inverse(self):
        t_sys = tsys_from_nedt(0.22, 1e9, 15e-3)
        assert t_sys == pytest.approx(TSYS_FROM_TABLE_NEDT, rel=1e-12)
        # Agrees with the 850 K channel that produced the 0.22 K figure.
        assert t_sys == pytest.approx(850.0, rel=0.003)

    def test_unit_radiometric_gain(self):
        assert tsys_from_nedt(3.7, 1e3, 1e-3) == pytest.approx(3.7, rel=1e-12)

    def test_sqrt_bandwidth_time(self):
        assert tsys_from_nedt(1.0, 1e6, 1.0) == pytest.approx(1000.0, rel=1e-12)

    @pytest.mark.parametrize(
        "args", [(0.0, 1e9, 1.0), (1.0, 0.0, 1.0), (1.0, 1e9, 0.0),
                 (1.0, 1e9, math.inf), (math.nan, 1e9, 1.0), (1.0, 1e9, 1.0, math.nan)]
    )
    def test_non_positive_rejected(self, args):
        with pytest.raises(DomainError):
            tsys_from_nedt(*args)

    # B*tau underflows to 0, is subnormal (1/(B*tau) overflows), or overflows.
    @pytest.mark.parametrize("bandwidth,tau", [(1e-300, 1e-300), (1e-160, 1e-160),
                                               (1e300, 1e300)])
    def test_bandwidth_time_product_outside_the_float_range(self, bandwidth, tau):
        with pytest.raises(DomainError) as caught:
            tsys_from_nedt(1.0, bandwidth, tau)
        assert str(caught.value) == (
            f"bandwidth x integration time {bandwidth:g} Hz x {tau:g} s"
            " is outside the float range"
        )

    def test_smallest_normal_product_is_accepted(self):
        t_sys = tsys_from_nedt(1.0, 2.0 * sys.float_info.min, 0.5)
        assert t_sys == pytest.approx(math.sqrt(sys.float_info.min), rel=1e-12)

    def test_variant_with_gain_stability(self):
        # Full inverse including the instability term.
        model = reference_channel()
        measured = nedt(model)
        recovered = tsys_from_nedt(
            measured, model.bandwidth_hz, model.integration_time_s, model.gain_stability
        )
        assert recovered == pytest.approx(model.system_temperature_k, rel=1e-12)

    @settings(max_examples=250)
    @given(
        st.floats(min_value=1.0, max_value=1e4),
        st.floats(min_value=1e3, max_value=1e10),
        st.floats(min_value=1e-6, max_value=1e3),
    )
    def test_round_trip_with_nedt(self, t_sys, bandwidth, tau):
        model = ReceiverNoiseModel(t_sys, 0.0, bandwidth, tau, 0.0)
        assert tsys_from_nedt(nedt(model), bandwidth, tau) == pytest.approx(
            t_sys, rel=1e-12
        )
