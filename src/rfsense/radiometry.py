"""Total-power radiometer sensitivity, output power, and hot/cold calibration."""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Sequence
from operator import mul

from .errors import FLOAT_MAX, FLOAT_MIN, DomainError, SingularFitError, require
from .quantities import CODATA, ValidatedRecord

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
    defaults=(0.0,),
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

    def _check(self):
        require("antenna temperature", self.antenna_temperature_k, "K", 0.0, False)
        require("receiver temperature", self.receiver_temperature_k, "K", 0.0, False)
        require("bandwidth", self.bandwidth_hz, "Hz")
        require("integration time", self.integration_time_s, "s")
        require("gain stability", self.gain_stability, "", 0.0, False)

    @property
    def system_temperature_k(self) -> float:
        """T_sys = T_A + T_Rx."""
        return self.antenna_temperature_k + self.receiver_temperature_k


class CalibrationPoint(ValidatedRecord, namedtuple(
    "CalibrationPoint", "antenna_temperature_k output_power_w",
)):
    """One reference-load measurement: known T_A and measured output power."""

    __slots__ = ()

    # A fit builds thousands of points, so this skips the generic namedtuple
    # constructor and the ``_check`` call that the base's ``__new__`` makes.
    def __new__(cls, antenna_temperature_k, output_power_w):
        return tuple.__new__(cls, (
            require("calibration point antenna_temperature_k", antenna_temperature_k,
                    "K", 0.0, False),
            require("calibration point output_power_w", output_power_w, "W", 0.0, False),
        ))


class CalibrationResult(namedtuple(
    "CalibrationResult", "gain receiver_temperature_k warnings", defaults=((),),
)):
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
    return require("NEDT", model.system_temperature_k * factor, "K", 0.0, False)


def radiometer_output_power(
    gain: float,
    antenna_temperature_k: float,
    receiver_temperature_k: float,
    bandwidth_hz: float,
) -> float:
    """Detected output power ``P_out = G * k_B * (T_A + T_Rx) * B_w`` in W."""
    require("gain", gain)
    require("antenna temperature", antenna_temperature_k, "K", 0.0, False)
    require("receiver temperature", receiver_temperature_k, "K", 0.0, False)
    require("bandwidth", bandwidth_hz, "Hz")
    t_sys = antenna_temperature_k + receiver_temperature_k
    return require("output power", gain * CODATA.boltzmann * t_sys * bandwidth_hz, "W", 0.0, False)


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
    nor underflow whatever the magnitude of the inputs.

    Raises:
        SingularFitError: fewer than two points, all load temperatures
            identical (degenerate design matrix), a non-positive fitted
            slope, or a gain or receiver temperature beyond the
            floating-point range.
        DomainError: non-positive or non-finite bandwidth.
    """
    require("bandwidth", bandwidth_hz, "Hz")
    if len(points) < 2:
        raise SingularFitError("calibration needs at least two points")
    temperatures = [p.antenna_temperature_k for p in points]
    powers = [p.output_power_w for p in points]
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
    us = [x - x_mean for x in xs]
    slope = math.fsum(map(mul, us, ys)) / math.fsum(map(mul, us, us))
    if slope <= 0.0:
        raise SingularFitError("fitted slope is non-positive; measurements are inconsistent")
    # Fitted power at the coldest load.
    cold = p_min / p_span + (y_mean - slope * x_mean)
    gain = p_span / t_span * slope / CODATA.boltzmann / bandwidth_hz
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
    require("NEDT", nedt_k, "K")
    require("bandwidth", bandwidth_hz, "Hz")
    require("integration time", integration_time_s, "s")
    require("gain stability", gain_stability, "", 0.0, False)
    t_sys = nedt_k / _radiometric_factor(bandwidth_hz, integration_time_s, gain_stability)
    return require("system temperature", t_sys, "K")
