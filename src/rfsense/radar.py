"""Radar link physics: received power, noise floor, SNR, NESZ, resolution."""

import math
from collections import namedtuple

from .errors import FLOAT_MAX, FLOAT_MIN, DomainError, require
from .quantities import BOLTZMANN, LIGHT_SPEED, ValidatedRecord, _scaled_ratio

__all__ = [
    "PointTarget",
    "RadarScenario",
    "ResolutionCell",
    "max_range_ratio",
    "nesz",
    "nesz_at_unit_snr",
    "noise_power",
    "processed_received_power",
    "processing_gain_from_pulse",
    "range_resolution",
    "received_power",
    "snr",
]

FOUR_PI_CUBED = (4.0 * math.pi) ** 3


class PointTarget(ValidatedRecord, namedtuple("PointTarget", "cross_section_m2")):
    """Point-target analysis mode: a bare radar cross section sigma in m^2."""

    __slots__ = ()

    def __new__(cls, cross_section_m2):
        if not 0.0 <= cross_section_m2 <= FLOAT_MAX:
            require("radar cross section", cross_section_m2, "m^2", 0.0, False)
        return tuple.__new__(cls, (cross_section_m2,))


class ResolutionCell(ValidatedRecord, namedtuple("ResolutionCell", "sigma0 cell_area_m2")):
    """Imaging mode: normalised cross section sigma0 over a resolution cell.

    The effective cross section is sigma = sigma0 * cell_area.
    """

    __slots__ = ()

    def __new__(cls, sigma0, cell_area_m2):
        if not (0.0 <= sigma0 <= FLOAT_MAX and 0.0 < cell_area_m2 <= FLOAT_MAX):
            require("sigma0", sigma0, "", 0.0, False)
            require("resolution cell area", cell_area_m2, "m^2")
        return tuple.__new__(cls, (sigma0, cell_area_m2))

    @property
    def cross_section_m2(self) -> float:
        return self.sigma0 * self.cell_area_m2


class RadarScenario(ValidatedRecord, namedtuple(
    "RadarScenario",
    "transmit_power_w transmit_gain receive_gain wavelength_m target range_m system_loss"
    " propagation_loss processing_gain system_temperature_k bandwidth_hz",
)):
    """One radar link.

    The target is a tagged alternative, not two nullable fields: pass either a
    :class:`PointTarget` (point-target analysis) or a :class:`ResolutionCell`
    (imaging).  Losses are stored linear and >= 1, with the convention that a
    loss always divides received power.
    """

    __slots__ = ()

    def __new__(cls, transmit_power_w, transmit_gain, receive_gain, wavelength_m, target,
                range_m, system_loss=1.0, propagation_loss=1.0, processing_gain=1.0,
                system_temperature_k=None, bandwidth_hz=None):
        if not (0.0 < transmit_power_w <= FLOAT_MAX
                and 0.0 < transmit_gain <= FLOAT_MAX
                and 0.0 < receive_gain <= FLOAT_MAX
                and 0.0 < wavelength_m <= FLOAT_MAX
                and 0.0 < range_m <= FLOAT_MAX
                and 1.0 <= system_loss <= FLOAT_MAX
                and 1.0 <= propagation_loss <= FLOAT_MAX
                and 1.0 <= processing_gain <= FLOAT_MAX):
            require("transmit power", transmit_power_w, "W")
            require("transmit gain", transmit_gain)
            require("receive gain", receive_gain)
            require("wavelength", wavelength_m, "m")
            require("range", range_m, "m")
            require("system loss", system_loss, "", 1.0, False)
            require("propagation loss", propagation_loss, "", 1.0, False)
            require("processing gain", processing_gain, "", 1.0, False)
        if system_temperature_k is not None:
            if not 0.0 <= system_temperature_k <= FLOAT_MAX:
                require("system temperature", system_temperature_k, "K", 0.0, False)
        if bandwidth_hz is not None:
            if not 0.0 < bandwidth_hz <= FLOAT_MAX:
                require("bandwidth", bandwidth_hz, "Hz")
        return tuple.__new__(cls, (
            transmit_power_w, transmit_gain, receive_gain, wavelength_m, target, range_m,
            system_loss, propagation_loss, processing_gain, system_temperature_k, bandwidth_hz,
        ))


def _one_way_factor(s: RadarScenario) -> float:
    """The radar equation without its target term, or NaN when ``P_t*G_t`` is
    subnormal: its lost digits could be lifted into a normal result, and NaN
    sends the caller's result test to the exact path."""
    # One factor at a time: a product of inputs could underflow to a zero divisor.
    r = s.range_m
    head = s.transmit_power_w * s.transmit_gain
    if head < FLOAT_MIN:
        return math.nan
    return (
        head * s.receive_gain * s.wavelength_m * s.wavelength_m
        / FOUR_PI_CUBED / r / r / r / r / s.system_loss / s.propagation_loss
    )


def _one_way_terms(s: RadarScenario):
    """The factors of :func:`_one_way_factor`, as (numerators, denominators)."""
    r = s.range_m
    return (
        (s.transmit_power_w, s.transmit_gain, s.receive_gain, s.wavelength_m, s.wavelength_m),
        (FOUR_PI_CUBED, r, r, r, r, s.system_loss, s.propagation_loss),
    )


def received_power(s: RadarScenario) -> float:
    """Received power from the radar equation, in W.

    P_r = P_t*G_t*G_r*lambda^2*sigma / ((4*pi)^3 * R^4 * L_s * L_p).
    Requires the point-target form of the scenario.
    """
    if not isinstance(s.target, PointTarget):
        raise DomainError("received_power needs a point-target scenario (sigma form)")
    p_r = _one_way_factor(s) * s.target.cross_section_m2
    if not FLOAT_MIN <= p_r <= FLOAT_MAX:
        numerators, denominators = _one_way_terms(s)
        p_r = _scaled_ratio(numerators + (s.target.cross_section_m2,), denominators)
        if not 0.0 <= p_r <= FLOAT_MAX:
            require("received power", p_r, "W", 0.0, False)
    return p_r


def processed_received_power(s: RadarScenario) -> float:
    """Received power over a resolution cell including processing gain, in W.

    P_r,proc = P_t*G_t*G_r*lambda^2*sigma0*A_res*G_proc / ((4*pi)^3*R^4*L_s*L_p).
    """
    if not isinstance(s.target, ResolutionCell):
        raise DomainError(
            "processed_received_power needs a resolution-cell scenario (sigma0 form)"
        )
    p_r = _one_way_factor(s) * s.target.cross_section_m2 * s.processing_gain
    if not FLOAT_MIN <= p_r <= FLOAT_MAX:
        numerators, denominators = _one_way_terms(s)
        p_r = _scaled_ratio(
            numerators + (s.target.sigma0, s.target.cell_area_m2, s.processing_gain),
            denominators,
        )
        if not 0.0 <= p_r <= FLOAT_MAX:
            require("processed received power", p_r, "W", 0.0, False)
    return p_r


def processing_gain_from_pulse(bandwidth_hz: float, pulse_width_s: float) -> float:
    """Pulse-compression gain as the time-bandwidth product B*tau_p."""
    if not (0.0 < bandwidth_hz <= FLOAT_MAX and 0.0 < pulse_width_s <= FLOAT_MAX):
        require("bandwidth", bandwidth_hz, "Hz")
        require("pulse width", pulse_width_s, "s")
    gain = bandwidth_hz * pulse_width_s
    if not 0.0 < gain <= FLOAT_MAX:
        require("processing gain", gain)
    return gain


def noise_power(system_temperature_k: float, bandwidth_hz: float) -> float:
    """Receiver noise power ``P_n = k_B * T_sys * B`` in W."""
    if not (0.0 <= system_temperature_k <= FLOAT_MAX and 0.0 < bandwidth_hz <= FLOAT_MAX):
        require("system temperature", system_temperature_k, "K", 0.0, False)
        require("bandwidth", bandwidth_hz, "Hz")
    p_n = BOLTZMANN * system_temperature_k * bandwidth_hz
    if not 0.0 <= p_n <= FLOAT_MAX:
        require("noise power", p_n, "W", 0.0, False)
    return p_n


def snr(received_power_w: float, noise_power_w: float) -> float:
    """Signal-to-noise ratio P_r / P_n (linear)."""
    if not (0.0 < noise_power_w <= FLOAT_MAX and 0.0 <= received_power_w <= FLOAT_MAX):
        require("noise power", noise_power_w, "W")
        require("received power", received_power_w, "W", 0.0, False)
    ratio = received_power_w / noise_power_w
    if not 0.0 <= ratio <= FLOAT_MAX:
        require("SNR", ratio, "", 0.0, False)
    return ratio


def nesz(sigma0: float, snr_linear: float) -> float:
    """Noise-equivalent sigma zero: the backscatter giving SNR = 1.

    Literal ratio form NESZ = sigma0 / SNR, where the SNR is the one obtained
    at that sigma0.  Under the linear radar model this coincides with solving
    for the sigma0 that yields unit SNR (see :func:`nesz_at_unit_snr`).
    """
    if not (0.0 < snr_linear <= FLOAT_MAX and 0.0 <= sigma0 <= FLOAT_MAX):
        require("linear SNR", snr_linear)
        require("sigma0", sigma0, "", 0.0, False)
    ratio = sigma0 / snr_linear
    if not 0.0 <= ratio <= FLOAT_MAX:
        require("NESZ", ratio, "", 0.0, False)
    return ratio


def nesz_at_unit_snr(s: RadarScenario) -> float:
    """Solve directly for the sigma0 at which the processed SNR equals 1.

    Requires the resolution-cell form with system temperature and bandwidth
    set on the scenario.  Independent of the scenario's own sigma0.
    """
    if not isinstance(s.target, ResolutionCell):
        raise DomainError("nesz_at_unit_snr needs a resolution-cell scenario")
    if s.system_temperature_k is None or s.bandwidth_hz is None:
        raise DomainError("scenario needs system temperature and bandwidth for NESZ")
    # The radar equation solved for sigma0, dividing by one input at a time.
    r = s.range_m
    p_n = noise_power(s.system_temperature_k, s.bandwidth_hz)
    sigma0 = (
        p_n * FOUR_PI_CUBED * r * r * r * r
        * s.system_loss * s.propagation_loss / s.transmit_power_w / s.transmit_gain
        / s.receive_gain / s.wavelength_m / s.wavelength_m / s.target.cell_area_m2
        / s.processing_gain
    )
    if not FLOAT_MIN <= sigma0 <= FLOAT_MAX:
        # The one-way factor's terms, turned upside down.
        numerators, denominators = _one_way_terms(s)
        sigma0 = _scaled_ratio(
            (p_n,) + denominators,
            numerators + (s.target.cell_area_m2, s.processing_gain),
        )
        if not 0.0 <= sigma0 <= FLOAT_MAX:
            require("NESZ", sigma0, "", 0.0, False)
    return sigma0


def range_resolution(bandwidth_hz: float) -> float:
    """Slant-range resolution ``delta_R = c / (2B)`` in m."""
    if not 0.0 < bandwidth_hz <= FLOAT_MAX:
        require("bandwidth", bandwidth_hz, "Hz")
    resolution = LIGHT_SPEED / (2.0 * bandwidth_hz)
    if not 0.0 < resolution <= FLOAT_MAX:
        require("range resolution", resolution, "m")
    return resolution


def max_range_ratio(system_temperature_1_k: float, system_temperature_2_k: float) -> float:
    """Maximum-range ratio when T_sys changes from value 1 to value 2.

    R_max scales as T_sys^(-1/4), so the ratio is (T1/T2)^(1/4), which lies
    inside the float range for any two valid temperatures.
    """
    if not (0.0 < system_temperature_1_k <= FLOAT_MAX
            and 0.0 < system_temperature_2_k <= FLOAT_MAX):
        require("system temperature 1", system_temperature_1_k, "K")
        require("system temperature 2", system_temperature_2_k, "K")
    quotient = system_temperature_1_k / system_temperature_2_k
    if FLOAT_MIN <= quotient <= FLOAT_MAX:
        return quotient ** 0.25
    # T1/T2 left the float range, or lost digits below it: one root per factor.
    return system_temperature_1_k ** 0.25 / system_temperature_2_k ** 0.25
