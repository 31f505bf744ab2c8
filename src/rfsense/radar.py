"""Radar link physics: received power, noise floor, SNR, NESZ, resolution."""

from __future__ import annotations

import math
from collections import namedtuple

from .errors import DomainError, require
from .quantities import CODATA, ValidatedRecord

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

    def _check(self):
        require("radar cross section", self.cross_section_m2, "m^2", 0.0, False)


class ResolutionCell(ValidatedRecord, namedtuple("ResolutionCell", "sigma0 cell_area_m2")):
    """Imaging mode: normalised cross section sigma0 over a resolution cell.

    The effective cross section is sigma = sigma0 * cell_area.
    """

    __slots__ = ()

    def _check(self):
        require("sigma0", self.sigma0, "", 0.0, False)
        require("resolution cell area", self.cell_area_m2, "m^2")

    @property
    def cross_section_m2(self) -> float:
        return self.sigma0 * self.cell_area_m2


class RadarScenario(ValidatedRecord, namedtuple(
    "RadarScenario",
    "transmit_power_w transmit_gain receive_gain wavelength_m target range_m system_loss"
    " propagation_loss processing_gain system_temperature_k bandwidth_hz",
    defaults=(1.0, 1.0, 1.0, None, None),
)):
    """One radar link.

    The target is a tagged alternative, not two nullable fields: pass either a
    :class:`PointTarget` (point-target analysis) or a :class:`ResolutionCell`
    (imaging).  Losses are stored linear and >= 1, with the convention that a
    loss always divides received power.
    """

    __slots__ = ()

    def _check(self):
        require("transmit power", self.transmit_power_w, "W")
        require("transmit gain", self.transmit_gain)
        require("receive gain", self.receive_gain)
        require("wavelength", self.wavelength_m, "m")
        require("range", self.range_m, "m")
        require("system loss", self.system_loss, "", 1.0, False)
        require("propagation loss", self.propagation_loss, "", 1.0, False)
        require("processing gain", self.processing_gain, "", 1.0, False)
        if self.system_temperature_k is not None:
            require("system temperature", self.system_temperature_k, "K", 0.0, False)
        if self.bandwidth_hz is not None:
            require("bandwidth", self.bandwidth_hz, "Hz")


def _one_way_factor(s: RadarScenario) -> float:
    # One factor at a time: a product of inputs could underflow to a zero divisor.
    r = s.range_m
    return (
        s.transmit_power_w * s.transmit_gain * s.receive_gain * s.wavelength_m * s.wavelength_m
        / FOUR_PI_CUBED / r / r / r / r / s.system_loss / s.propagation_loss
    )


def received_power(s: RadarScenario) -> float:
    """Received power from the radar equation, in W.

    P_r = P_t*G_t*G_r*lambda^2*sigma / ((4*pi)^3 * R^4 * L_s * L_p).
    Requires the point-target form of the scenario.
    """
    if not isinstance(s.target, PointTarget):
        raise DomainError("received_power needs a point-target scenario (sigma form)")
    p_r = _one_way_factor(s) * s.target.cross_section_m2
    return require("received power", p_r, "W", 0.0, False)


def processed_received_power(s: RadarScenario) -> float:
    """Received power over a resolution cell including processing gain, in W.

    P_r,proc = P_t*G_t*G_r*lambda^2*sigma0*A_res*G_proc / ((4*pi)^3*R^4*L_s*L_p).
    """
    if not isinstance(s.target, ResolutionCell):
        raise DomainError(
            "processed_received_power needs a resolution-cell scenario (sigma0 form)"
        )
    p_r = _one_way_factor(s) * s.target.cross_section_m2 * s.processing_gain
    return require("processed received power", p_r, "W", 0.0, False)


def processing_gain_from_pulse(bandwidth_hz: float, pulse_width_s: float) -> float:
    """Pulse-compression gain as the time-bandwidth product B*tau_p."""
    require("bandwidth", bandwidth_hz, "Hz")
    require("pulse width", pulse_width_s, "s")
    return require("processing gain", bandwidth_hz * pulse_width_s)


def noise_power(system_temperature_k: float, bandwidth_hz: float) -> float:
    """Receiver noise power ``P_n = k_B * T_sys * B`` in W."""
    require("system temperature", system_temperature_k, "K", 0.0, False)
    require("bandwidth", bandwidth_hz, "Hz")
    p_n = CODATA.boltzmann * system_temperature_k * bandwidth_hz
    return require("noise power", p_n, "W", 0.0, False)


def snr(received_power_w: float, noise_power_w: float) -> float:
    """Signal-to-noise ratio P_r / P_n (linear)."""
    require("noise power", noise_power_w, "W")
    require("received power", received_power_w, "W", 0.0, False)
    return require("SNR", received_power_w / noise_power_w, "", 0.0, False)


def nesz(sigma0: float, snr_linear: float) -> float:
    """Noise-equivalent sigma zero: the backscatter giving SNR = 1.

    Literal ratio form NESZ = sigma0 / SNR, where the SNR is the one obtained
    at that sigma0.  Under the linear radar model this coincides with solving
    for the sigma0 that yields unit SNR (see :func:`nesz_at_unit_snr`).
    """
    require("linear SNR", snr_linear)
    require("sigma0", sigma0, "", 0.0, False)
    return require("NESZ", sigma0 / snr_linear, "", 0.0, False)


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
    sigma0 = (
        noise_power(s.system_temperature_k, s.bandwidth_hz) * FOUR_PI_CUBED * r * r * r * r
        * s.system_loss * s.propagation_loss / s.transmit_power_w / s.transmit_gain
        / s.receive_gain / s.wavelength_m / s.wavelength_m / s.target.cell_area_m2
        / s.processing_gain
    )
    return require("NESZ", sigma0, "", 0.0, False)


def range_resolution(bandwidth_hz: float) -> float:
    """Slant-range resolution ``delta_R = c / (2B)`` in m."""
    require("bandwidth", bandwidth_hz, "Hz")
    return require("range resolution", CODATA.light_speed / (2.0 * bandwidth_hz), "m")


def max_range_ratio(system_temperature_1_k: float, system_temperature_2_k: float) -> float:
    """Maximum-range ratio when T_sys changes from value 1 to value 2.

    R_max scales as T_sys^(-1/4), so the ratio is (T1/T2)^(1/4).
    """
    require("system temperature 1", system_temperature_1_k, "K")
    require("system temperature 2", system_temperature_2_k, "K")
    ratio = (system_temperature_1_k / system_temperature_2_k) ** 0.25
    return require("maximum-range ratio", ratio)
