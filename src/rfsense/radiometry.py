"""Total-power radiometer sensitivity, output power, and hot/cold calibration."""

import math
from collections import namedtuple
from collections.abc import Sequence
from operator import itemgetter

from .errors import FLOAT_MAX, FLOAT_MIN, DomainError, SingularFitError, require
from .quantities import BOLTZMANN, ValidatedRecord, _scaled_ratio

__all__ = [
    "CalibrationPoint",
    "CalibrationResult",
    "ReceiverNoiseModel",
    "calibrate_hot_cold",
    "nedt",
    "radiometer_output_power",
    "tsys_from_nedt",
]


class ReceiverNoiseModel(ValidatedRecord, namedtuple(
    "ReceiverNoiseModel",
    "antenna_temperature_k receiver_temperature_k bandwidth_hz integration_time_s"
    " gain_stability",
)):
    """Noise description of a total-power radiometer channel.

    Attributes:
        antenna_temperature_k: antenna temperature T_A (K), >= 0.
        receiver_temperature_k: receiver noise temperature T_Rx (K), >= 0.
        bandwidth_hz: detection bandwidth B_w (Hz), > 0.
        integration_time_s: integration time tau (s), > 0.
        gain_stability: fractional gain fluctuation dG/G within the
            integration time (dimensionless), >= 0.
    """

    __slots__ = ()

    def __new__(cls, antenna_temperature_k, receiver_temperature_k, bandwidth_hz,
                integration_time_s, gain_stability=0.0):
        if not (0.0 <= antenna_temperature_k <= FLOAT_MAX
                and 0.0 <= receiver_temperature_k <= FLOAT_MAX
                and 0.0 < bandwidth_hz <= FLOAT_MAX
                and 0.0 < integration_time_s <= FLOAT_MAX
                and 0.0 <= gain_stability <= FLOAT_MAX):
            require("antenna temperature", antenna_temperature_k, "K", 0.0, False)
            require("receiver temperature", receiver_temperature_k, "K", 0.0, False)
            require("bandwidth", bandwidth_hz, "Hz")
            require("integration time", integration_time_s, "s")
            require("gain stability", gain_stability, "", 0.0, False)
        return tuple.__new__(cls, (antenna_temperature_k, receiver_temperature_k, bandwidth_hz,
                                   integration_time_s, gain_stability))

    @property
    def system_temperature_k(self) -> float:
        """T_sys = T_A + T_Rx."""
        return self.antenna_temperature_k + self.receiver_temperature_k


class CalibrationPoint(ValidatedRecord, namedtuple(
    "CalibrationPoint", "antenna_temperature_k output_power_w",
)):
    """One reference-load measurement: known T_A and measured output power."""

    __slots__ = ()

    def __new__(cls, antenna_temperature_k, output_power_w):
        if not (0.0 <= antenna_temperature_k <= FLOAT_MAX
                and 0.0 <= output_power_w <= FLOAT_MAX):
            require("calibration point antenna_temperature_k", antenna_temperature_k,
                    "K", 0.0, False)
            require("calibration point output_power_w", output_power_w, "W", 0.0, False)
        return tuple.__new__(cls, (antenna_temperature_k, output_power_w))


class CalibrationResult(namedtuple("CalibrationResult", "gain receiver_temperature_k warnings")):
    """Gain and receiver temperature recovered from a hot/cold calibration."""

    __slots__ = ()


def _radiometric_factor(bandwidth_hz, integration_time_s, gain_stability):
    """NEDT/T_sys = sqrt(1/(B*tau) + (dG/G)^2)."""
    product = bandwidth_hz * integration_time_s
    # Below the smallest normal float, 1/product overflows (or divides by 0).
    if not FLOAT_MIN <= product <= FLOAT_MAX:
        raise DomainError(
            f"bandwidth x integration time {bandwidth_hz:g} Hz x {integration_time_s:g} s"
            " is outside the float range"
        )
    return math.sqrt(1.0 / product + gain_stability * gain_stability)


def nedt(model: ReceiverNoiseModel) -> float:
    """Noise-equivalent delta temperature of a total-power radiometer in K.

    NEDT = (T_A + T_Rx) * sqrt(1/(B_w*tau) + (dG/G)^2).  The radiometric term
    falls with the time-bandwidth product; the gain-stability term sets the
    floor reached at long integration times.
    """
    factor = _radiometric_factor(
        model.bandwidth_hz, model.integration_time_s, model.gain_stability
    )
    nedt_k = model.system_temperature_k * factor
    if not 0.0 <= nedt_k <= FLOAT_MAX:
        require("NEDT", nedt_k, "K", 0.0, False)
    return nedt_k


def radiometer_output_power(
    gain: float,
    antenna_temperature_k: float,
    receiver_temperature_k: float,
    bandwidth_hz: float,
) -> float:
    """Detected output power ``P_out = G * k_B * (T_A + T_Rx) * B_w`` in W."""
    if not (0.0 < gain <= FLOAT_MAX
            and 0.0 <= antenna_temperature_k <= FLOAT_MAX
            and 0.0 <= receiver_temperature_k <= FLOAT_MAX
            and 0.0 < bandwidth_hz <= FLOAT_MAX):
        require("gain", gain)
        require("antenna temperature", antenna_temperature_k, "K", 0.0, False)
        require("receiver temperature", receiver_temperature_k, "K", 0.0, False)
        require("bandwidth", bandwidth_hz, "Hz")
    t_sys = antenna_temperature_k + receiver_temperature_k
    # A partial product below the normal range has lost digits that the next
    # factor can lift into a normal result, and one beyond it is inf.
    scaled_gain = gain * BOLTZMANN
    per_hz = scaled_gain * t_sys
    power = per_hz * bandwidth_hz
    if not (FLOAT_MIN <= scaled_gain and FLOAT_MIN <= per_hz and power <= FLOAT_MAX):
        power = _scaled_ratio((gain, BOLTZMANN, t_sys, bandwidth_hz), ())
        if not 0.0 <= power <= FLOAT_MAX:
            require("output power", power, "W", 0.0, False)
    return power


def calibrate_hot_cold(
    points: Sequence[CalibrationPoint],
    bandwidth_hz: float,
) -> CalibrationResult:
    """Recover (G, T_Rx) from reference-load measurements by linear regression.

    Fits P_out = G*k_B*B_w*(T_A + T_Rx) by ordinary least squares over the
    (T_A, P_out) pairs; the slope gives the gain and the intercept the
    receiver temperature.  With exactly two distinct loads the fit is exact
    interpolation.

    A negative fitted T_Rx is physically suspect but is returned with a
    warning rather than clamped: real calibration data can produce it and
    hiding it would mask instrument faults.

    The fit runs in coordinates shifted to the coldest load and the lowest
    power and scaled by the spread of each, so its sums neither overflow
    nor underflow whatever the magnitude of the inputs.  Both coordinates
    lie in [0, 1], and the sums of squares Sxx, Syy and Sdd (of the centred
    differences x - y) come from three ``math.dist`` norms, each at most
    sqrt(n); the cross sum is then Sxy = (Sxx + Syy - Sdd)/2.  So no pass
    over the points runs in Python, and the offset n*(mean x - mean y)^2
    taken out of Sdd is at most n.  The gain is recomputed with its binary
    exponents summed apart when a quotient on the way to it leaves the
    normal range.

    Raises:
        SingularFitError: fewer than two points, all load temperatures
            identical (degenerate design matrix), a non-positive fitted
            slope, or a gain or receiver temperature beyond the
            floating-point range.
        DomainError: non-positive or non-finite bandwidth.
    """
    if not 0.0 < bandwidth_hz <= FLOAT_MAX:
        require("bandwidth", bandwidth_hz, "Hz")
    if len(points) < 2:
        raise SingularFitError("calibration needs at least two points")
    # One pass per column that allocates nothing per point: ``zip(*points)``
    # makes an iterator per point, and on a fit of thousands of points those
    # allocations set off the cyclic garbage collector.
    temperatures = list(map(itemgetter(0), points))
    powers = list(map(itemgetter(1), points))
    t_min = min(temperatures)
    t_span = max(temperatures) - t_min
    if t_span == 0.0:
        raise SingularFitError("all load temperatures identical; cannot separate G and T_Rx")
    p_min = min(powers)
    # Equal powers give a zero slope, which is rejected below.
    p_span = (max(powers) - p_min) or 1.0

    # Both coordinates map onto [0, 1], so the sums stay near n whatever the
    # magnitudes; slope and cold are in these scaled coordinates.
    n = len(points)
    xs = [(t - t_min) / t_span for t in temperatures]
    ys = [(p - p_min) / p_span for p in powers]
    x_mean = math.fsum(xs) / n
    y_mean = math.fsum(ys) / n
    sxx = math.dist(xs, [x_mean] * n) ** 2
    syy = math.dist(ys, [y_mean] * n) ** 2
    sdd = math.dist(xs, ys) ** 2 - n * (x_mean - y_mean) ** 2
    slope = (sxx + syy - sdd) / (2.0 * sxx)
    if slope <= 0.0:
        raise SingularFitError("fitted slope is non-positive; measurements are inconsistent")
    # Fitted power at the coldest load.
    cold = p_min / p_span + (y_mean - slope * x_mean)
    # A subnormal power-to-load ratio has lost digits that 1/(k_B*B) can
    # lift into a normal gain.
    ratio = p_span / t_span
    gain = ratio / BOLTZMANN * slope / bandwidth_hz
    if not (FLOAT_MIN <= ratio and FLOAT_MIN <= gain <= FLOAT_MAX):
        gain = _scaled_ratio((p_span, slope), (t_span, BOLTZMANN, bandwidth_hz))
    receiver_temperature = t_span * (cold / slope) - t_min
    if not (0.0 < gain < math.inf and math.isfinite(receiver_temperature)):
        raise SingularFitError(
            "fitted gain or receiver temperature is beyond the floating-point range"
        )
    warnings: tuple[str, ...] = ()
    if receiver_temperature < 0.0:
        warnings = (
            f"fitted receiver temperature is negative ({receiver_temperature:.6g} K); "
            "calibration data may be inconsistent",
        )
    return CalibrationResult(gain, receiver_temperature, warnings)


def tsys_from_nedt(
    nedt_k: float,
    bandwidth_hz: float,
    integration_time_s: float,
    gain_stability: float = 0.0,
) -> float:
    """System temperature implied by a reported NEDT.

    Inverts NEDT = T_sys*sqrt(1/(B*tau) + (dG/G)^2).  The gain-fluctuation
    term defaults to zero, the convention used when inferring T_sys from
    published radiometer sensitivities.
    """
    if not (0.0 < nedt_k <= FLOAT_MAX
            and 0.0 < bandwidth_hz <= FLOAT_MAX
            and 0.0 < integration_time_s <= FLOAT_MAX
            and 0.0 <= gain_stability <= FLOAT_MAX):
        require("NEDT", nedt_k, "K")
        require("bandwidth", bandwidth_hz, "Hz")
        require("integration time", integration_time_s, "s")
        require("gain stability", gain_stability, "", 0.0, False)
    t_sys = nedt_k / _radiometric_factor(bandwidth_hz, integration_time_s, gain_stability)
    if not 0.0 < t_sys <= FLOAT_MAX:
        require("system temperature", t_sys, "K")
    return t_sys
