"""Noise-equivalent field framework: conversions among noise temperature,
effective aperture, gain, SEFD, and equivalent free-space field, plus the
cavity field-enhancement chain.

The central quantity is the input-referred equivalent free-space electric
field spectral density of a receiver,

    E_free = sqrt(k_B * T_sys * eta_0 / (rho^2 * A_e))   [V/m/sqrt(Hz)],

the plane-wave field per sqrt(Hz) that would deliver the system noise power
through the effective aperture for a single receiving polarisation.  It lets
heterogeneous receivers (dishes, radiometers, atomic field probes) be
compared on one axis.  Inverting a field sensitivity back to (T_sys, A_e) is
not unique without a coupling model, so the inverse conversions here always
require explicit gain (or aperture), frequency, and polarisation coupling.
"""

import math
from collections import namedtuple

from .errors import FLOAT_MAX, DomainError, require
from .quantities import (
    BOLTZMANN, LIGHT_SPEED, REFERENCE_TEMPERATURE, VACUUM_PERMITTIVITY, ValidatedRecord,
    db_to_linear, default_eta0,
)

__all__ = [
    "CavityCoupling",
    "ReceiverReference",
    "aperture_from_diameter",
    "aperture_from_gain",
    "default_polarisation_coupling",
    "enhancement_factor_cavity",
    "local_field_requirement",
    "meets_classical_reference",
    "nef_from_aperture",
    "nef_from_gain",
    "sefd",
    "trx_from_noise_figure",
    "tsys_from_nef",
]

# Aperture efficiency assumed when deriving effective area from dish size
# and no measured efficiency is available.
DEFAULT_APERTURE_EFFICIENCY = 0.65


def default_polarisation_coupling(coherence: str) -> float:
    """Conventional rho^2 for a coherence class, overridable everywhere.

    Polarisation-matched coherent systems couple the full field power
    (rho^2 = 1); a single-channel receiver of unpolarised emission couples
    half of it (rho^2 = 1/2).
    """
    if coherence == "coherent":
        return 1.0
    if coherence == "incoherent":
        return 0.5
    raise DomainError(
        f"coherence must be 'coherent' or 'incoherent', got {coherence!r}"
    )


class ReceiverReference(ValidatedRecord, namedtuple(
    "ReceiverReference",
    "system_temperature_k effective_aperture_m2 rho2",
)):
    """A classical receiver reference: T_sys, effective aperture and rho^2.

    A receiver described by its gain enters through
    :func:`aperture_from_gain`.  ``rho2`` is the polarisation power
    coupling: 1 for a polarisation-matched coherent signal, 1/2 for
    unpolarised emission on a single linear channel.
    """

    __slots__ = ()

    def __new__(cls, system_temperature_k, effective_aperture_m2, rho2=1.0):
        if not (0.0 < system_temperature_k <= FLOAT_MAX
                and 0.0 < effective_aperture_m2 <= FLOAT_MAX
                and 0.0 < rho2 <= 1.0):
            require("system temperature", system_temperature_k, "K")
            require("effective aperture", effective_aperture_m2, "m^2")
            require("polarisation coupling rho^2", rho2, "", 0.0, True, 1.0)
        return tuple.__new__(cls, (system_temperature_k, effective_aperture_m2, rho2))


class CavityCoupling(ValidatedRecord, namedtuple(
    "CavityCoupling", "frequency_hz q_loaded rf_efficiency mode_volume_m3",
)):
    """A single-mode cavity coupling an incident field to the sensing volume.

    ``rf_efficiency`` is the transfer efficiency from the antenna port into
    the cavity input and ``mode_volume_m3`` the electric-energy volume of the
    probed mode.  External and internal quality factors enter through
    :meth:`from_quality_factors`.
    """

    __slots__ = ()

    def __new__(cls, frequency_hz, q_loaded, rf_efficiency, mode_volume_m3):
        if not (0.0 < frequency_hz <= FLOAT_MAX
                and 0.0 < q_loaded <= FLOAT_MAX
                and 0.0 < rf_efficiency <= 1.0
                and 0.0 < mode_volume_m3 <= FLOAT_MAX):
            require("centre frequency", frequency_hz, "Hz")
            require("loaded quality factor", q_loaded)
            require("RF transfer efficiency", rf_efficiency, "", 0.0, True, 1.0)
            require("mode volume", mode_volume_m3, "m^3")
        return tuple.__new__(cls, (frequency_hz, q_loaded, rf_efficiency, mode_volume_m3))

    @classmethod
    def from_quality_factors(
        cls,
        frequency_hz: float,
        q_external: float,
        q_internal: float,
        rf_efficiency: float,
        mode_volume_m3: float,
    ) -> "CavityCoupling":
        """Combine Q_e and Q_i into the loaded Q, 1/Q_L = 1/Q_e + 1/Q_i."""
        if not (0.0 < q_external <= FLOAT_MAX and 0.0 < q_internal <= FLOAT_MAX):
            require("external quality factor", q_external)
            require("internal quality factor", q_internal)
        q_loaded = 1.0 / (1.0 / q_external + 1.0 / q_internal)
        return cls(frequency_hz, q_loaded, rf_efficiency, mode_volume_m3)

    @classmethod
    def from_bandwidth(
        cls,
        frequency_hz: float,
        admitted_bandwidth_hz: float,
        rf_efficiency: float,
        mode_volume_m3: float,
    ) -> "CavityCoupling":
        """Choose Q_L = f_0/B so the linewidth admits the signal bandwidth."""
        if not 0.0 < admitted_bandwidth_hz <= FLOAT_MAX:
            require("admitted bandwidth", admitted_bandwidth_hz, "Hz")
        return cls(frequency_hz, frequency_hz / admitted_bandwidth_hz,
                   rf_efficiency, mode_volume_m3)

    @property
    def linewidth_hz(self) -> float:
        """Cavity linewidth f_0/Q_L."""
        linewidth = self.frequency_hz / self.q_loaded
        if not 0.0 < linewidth <= FLOAT_MAX:
            require("cavity linewidth", linewidth, "Hz")
        return linewidth


def sefd(
    system_temperature_k: float,
    effective_aperture_m2: float,
    rho2: float = 1.0,
) -> float:
    """System equivalent flux density ``k_B*T_sys/(rho^2*A_e)`` in W/m^2/Hz.

    The incident power flux density that yields SNR = 1 in 1 Hz.  For an
    unpolarised signal on one linear polarisation (rho^2 = 1/2) this reduces
    to the common form 2*k_B*T_sys/A_e.
    """
    if not (0.0 <= system_temperature_k <= FLOAT_MAX
            and 0.0 < effective_aperture_m2 <= FLOAT_MAX
            and 0.0 < rho2 <= 1.0):
        require("system temperature", system_temperature_k, "K", 0.0, False)
        require("effective aperture", effective_aperture_m2, "m^2")
        require("polarisation coupling rho^2", rho2, "", 0.0, True, 1.0)
    flux = BOLTZMANN * system_temperature_k / rho2 / effective_aperture_m2
    if not 0.0 <= flux <= FLOAT_MAX:
        require("SEFD", flux, "W/m^2/Hz", 0.0, False)
    return flux


def nef_from_aperture(
    system_temperature_k: float,
    effective_aperture_m2: float,
    rho2: float = 1.0,
    eta_0: float | None = None,
) -> float:
    """Equivalent free-space field at SNR = 1, from T_sys and aperture.

    E_free = sqrt(k_B*T_sys*eta_0/(rho^2*A_e)) = sqrt(SEFD*eta_0), in
    V/m/sqrt(Hz).  ``eta_0`` defaults to the configured impedance
    (:func:`rfsense.quantities.default_eta0`).
    """
    if eta_0 is None:
        eta_0 = default_eta0()
    if not (0.0 < eta_0 <= FLOAT_MAX
            and 0.0 < system_temperature_k <= FLOAT_MAX
            and 0.0 < effective_aperture_m2 <= FLOAT_MAX
            and 0.0 < rho2 <= 1.0):
        require("eta_0", eta_0, "ohm")
        require("system temperature", system_temperature_k, "K")
        require("effective aperture", effective_aperture_m2, "m^2")
        require("polarisation coupling rho^2", rho2, "", 0.0, True, 1.0)
    return _nef(system_temperature_k, math.sqrt(effective_aperture_m2), rho2, eta_0)


def nef_from_gain(
    system_temperature_k: float,
    gain: float,
    frequency_hz: float,
    rho2: float = 1.0,
) -> float:
    """Equivalent free-space field at SNR = 1, gain-based form.

    :func:`nef_from_aperture` with A_e = G*lambda^2/(4*pi), that is
    NEF = sqrt(4*pi*f^2*k_B*T_sys*eta_0 / (c^2*G*rho2)) in V/m/sqrt(Hz);
    for rho^2 = 1/2 this is the 8*pi form, a factor sqrt(2) above the
    polarisation-matched value.
    """
    # Divided by sqrt(A_e), never forming A_e, which can leave the float range.
    aperture_root = _aperture_root(gain, frequency_hz)
    eta_0 = default_eta0()
    if not (0.0 < system_temperature_k <= FLOAT_MAX and 0.0 < rho2 <= 1.0):
        require("system temperature", system_temperature_k, "K")
        require("polarisation coupling rho^2", rho2, "", 0.0, True, 1.0)
    return _nef(system_temperature_k, aperture_root, rho2, eta_0)


def _nef(system_temperature_k, aperture_root, rho2, eta_0):
    """sqrt(k_B*T_sys*eta_0/rho^2)/sqrt(A_e), one root per factor: the
    radicand as a whole can underflow where the NEF does not.  A root that
    underflowed to 0 gives +inf, as IEEE division does."""
    nef = (math.sqrt(BOLTZMANN) * math.sqrt(system_temperature_k) * math.sqrt(eta_0)
           / math.sqrt(rho2) / aperture_root) if aperture_root else math.inf
    if not 0.0 < nef <= FLOAT_MAX:
        require("NEF", nef, "V/m/sqrt(Hz)")
    return nef


def tsys_from_nef(
    nef_v_per_m_sqrt_hz: float,
    gain: float,
    frequency_hz: float,
    rho2: float = 1.0,
) -> float:
    """Noise temperature implied by a field sensitivity; inverse of
    :func:`nef_from_gain`, T_sys = NEF^2*rho^2*A_e/(k_B*eta_0).

    The mapping needs the full coupling assumption (G, f, rho^2) because a
    bare NEF does not determine (T_sys, A_e) uniquely.
    """
    eta_0 = default_eta0()
    if not (0.0 < nef_v_per_m_sqrt_hz <= FLOAT_MAX and 0.0 < rho2 <= 1.0):
        require("NEF", nef_v_per_m_sqrt_hz, "V/m/sqrt(Hz)")
        require("polarisation coupling rho^2", rho2, "", 0.0, True, 1.0)
    # The square of one root per factor: NEF*NEF or A_e alone can leave the float range.
    root = (nef_v_per_m_sqrt_hz * _aperture_root(gain, frequency_hz) * math.sqrt(rho2)
            / math.sqrt(BOLTZMANN) / math.sqrt(eta_0))
    t_sys = root * root
    if not 0.0 < t_sys <= FLOAT_MAX:
        require("system temperature", t_sys, "K")
    return t_sys


def _aperture_root(gain: float, frequency_hz: float) -> float:
    """sqrt(A_e) = sqrt(G)*(c/sqrt(4*pi))/f, with no wavelength: c/f alone can overflow."""
    if not (0.0 < gain <= FLOAT_MAX and 0.0 < frequency_hz <= FLOAT_MAX):
        require("gain", gain)
        require("frequency", frequency_hz, "Hz")
    return math.sqrt(gain) * (LIGHT_SPEED / math.sqrt(4.0 * math.pi)) / frequency_hz


def aperture_from_gain(gain: float, frequency_hz: float) -> float:
    """Effective aperture ``A_e = G*lambda^2/(4*pi)`` in m^2."""
    root = _aperture_root(gain, frequency_hz)
    aperture = root * root
    if not 0.0 < aperture <= FLOAT_MAX:
        require("effective aperture", aperture, "m^2")
    return aperture


def aperture_from_diameter(
    diameter_m: float,
    aperture_efficiency: float = DEFAULT_APERTURE_EFFICIENCY,
) -> float:
    """Effective aperture of a circular dish: ``eta_ap * pi * (D/2)^2``."""
    if not (0.0 < diameter_m <= FLOAT_MAX and 0.0 < aperture_efficiency <= 1.0):
        require("diameter", diameter_m, "m")
        require("aperture efficiency", aperture_efficiency, "", 0.0, True, 1.0)
    radius = diameter_m / 2.0
    aperture = aperture_efficiency * math.pi * (radius * radius)
    if not 0.0 < aperture <= FLOAT_MAX:
        require("effective aperture", aperture, "m^2")
    return aperture


def trx_from_noise_figure(noise_figure_db: float) -> float:
    """Receiver noise temperature from a noise figure:
    ``T_Rx = (10^(NF/10) - 1) * T_0``, with T_0 = 290 K (``REFERENCE_TEMPERATURE``)."""
    if not 0.0 <= noise_figure_db <= FLOAT_MAX:
        require("noise figure", noise_figure_db, "dB", 0.0, False)
    t_rx = (db_to_linear(noise_figure_db) - 1.0) * REFERENCE_TEMPERATURE
    if not 0.0 <= t_rx <= FLOAT_MAX:
        require("receiver temperature", t_rx, "K", 0.0, False)
    return t_rx


def enhancement_factor_cavity(cavity: CavityCoupling, effective_aperture_m2: float) -> float:
    """Field enhancement of a critically coupled cavity fed from an aperture.

    beta = sqrt(eta_c) * sqrt(2*Q_L/omega_0) * sqrt(A_e/(2*eta_0*eps_0*V_eff)),
    the dimensionless ratio of the RMS field in the probed mode volume to the
    incident free-space field at the aperture.
    """
    eta_0 = default_eta0()
    if not 0.0 < effective_aperture_m2 <= FLOAT_MAX:
        require("effective aperture", effective_aperture_m2, "m^2")
    omega_0 = 2.0 * math.pi * cavity.frequency_hz
    beta = (
        math.sqrt(cavity.rf_efficiency)
        * math.sqrt(2.0 * cavity.q_loaded / omega_0)
        * math.sqrt(
            effective_aperture_m2 / 2.0 / eta_0 / VACUUM_PERMITTIVITY
            / cavity.mode_volume_m3
        )
    )
    if not 0.0 < beta <= FLOAT_MAX:
        require("enhancement factor", beta)
    return beta


def local_field_requirement(reference: ReceiverReference, enhancement: float) -> float:
    """Local field spectral density at the sensor matching a classical reference.

    E_loc = beta * E_free, where E_free is the reference receiver's
    equivalent free-space NEF.  An enhancement below 1 (attenuation) is
    allowed, though the point of the structure is to relax the sensor's
    local requirement.
    """
    if not 0.0 < enhancement <= FLOAT_MAX:
        require("enhancement factor", enhancement)
    free = nef_from_aperture(
        reference.system_temperature_k, reference.effective_aperture_m2, reference.rho2
    )
    local = enhancement * free
    if not 0.0 < local <= FLOAT_MAX:
        require("local field requirement", local, "V/m/sqrt(Hz)")
    return local


def meets_classical_reference(
    sensor_local_nef: float,
    local_field_requirement_value: float,
) -> bool:
    """True when the sensor's local NEF meets or beats the local requirement."""
    if not (0.0 < sensor_local_nef <= FLOAT_MAX
            and 0.0 < local_field_requirement_value <= FLOAT_MAX):
        require("sensor local NEF", sensor_local_nef, "V/m/sqrt(Hz)")
        require("local field requirement value", local_field_requirement_value,
                "V/m/sqrt(Hz)")
    return sensor_local_nef <= local_field_requirement_value
