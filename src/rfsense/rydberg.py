"""Intrinsic noise floors and field-calibration primitives of atomic
(Rydberg-state) electric-field sensors."""

from __future__ import annotations

import math
import warnings as _warnings

from . import fieldmetrics
from .errors import FLOAT_MAX, DomainError, require
from .quantities import CODATA

__all__ = [
    "ATOMIC_DIPOLE_UNIT",
    "ac_stark_shift",
    "compare_to_classical",
    "dipole_moment",
    "field_from_rabi",
    "photon_shot_noise_nep",
    "qpn_nef",
    "rabi_from_field",
]

# e * a_0 in C*m; transition dipole moments between neighbouring high-n
# states are conveniently quoted in multiples of this.
ATOMIC_DIPOLE_UNIT = 1.602176634e-19 * 5.29177210903e-11


def dipole_moment(multiple_of_e_a0: float) -> float:
    """Dipole moment in C*m from a multiple of e*a_0."""
    require("dipole moment multiple of e*a_0", multiple_of_e_a0)
    return require("dipole moment", multiple_of_e_a0 * ATOMIC_DIPOLE_UNIT, "C*m")


def qpn_nef(
    dipole_moment_cm: float,
    atom_count: float,
    coherence_time_s: float,
    integration_time_s: float | None = None,
) -> float:
    """Quantum-projection-noise field floor, V/m/sqrt(Hz).

    NEF_qpn = (h/d) / sqrt(N * tau_coh), the measurement-collapse limit of an
    atomic field sensor.  Valid when the integration time exceeds the
    coherence time; passing a shorter ``integration_time_s`` triggers a
    warning because the expression then underestimates the floor.
    """
    require("dipole moment", dipole_moment_cm, "C*m")
    require("atom count", atom_count)
    require("coherence time", coherence_time_s, "s")
    if integration_time_s is not None and (
        require("integration time", integration_time_s, "s") < coherence_time_s
    ):
        _warnings.warn(
            "integration time is below the coherence time; the projection-noise "
            "expression assumes integration over at least one coherence time",
            stacklevel=2,
        )
    nef = CODATA.planck / dipole_moment_cm / math.sqrt(atom_count) / math.sqrt(coherence_time_s)
    return require("projection-noise NEF", nef, "V/m/sqrt(Hz)")


def photon_shot_noise_nep(probe_power_w: float, probe_frequency_hz: float) -> float:
    """Shot-noise power spectral density of the probe readout, W/sqrt(Hz).

    P_SN = sqrt(P_probe * h * nu_p) for detected average probe power P_probe.
    """
    require("probe power", probe_power_w, "W", 0.0, False)
    require("probe frequency", probe_frequency_hz, "Hz")
    nep = math.sqrt(probe_power_w * CODATA.planck * probe_frequency_hz)
    return require("shot-noise NEP", nep, "W/sqrt(Hz)", 0.0, False)


def rabi_from_field(
    field_v_per_m: float,
    dipole_moment_cm: float,
    alignment_cosine: float = 1.0,
) -> float:
    """Rabi (angular) frequency driven by a co-aligned field: Omega = d*E/hbar.

    This is the SI-traceable calibration primitive: the dipole moment is
    calculable, so a measured splitting fixes the field amplitude without an
    external standard.  ``alignment_cosine`` scales the scalar product for a
    field not aligned with the dipole.
    """
    require("dipole moment", dipole_moment_cm, "C*m")
    require("field amplitude", field_v_per_m, "V/m", 0.0, False)
    require("alignment cosine", alignment_cosine, "", -1.0, False, 1.0)
    rabi = dipole_moment_cm * field_v_per_m * alignment_cosine / CODATA.reduced_planck
    return require("Rabi frequency", rabi, "rad/s", -FLOAT_MAX, False)


def field_from_rabi(
    rabi_rad_per_s: float,
    dipole_moment_cm: float,
    alignment_cosine: float = 1.0,
) -> float:
    """Field amplitude from a measured Rabi frequency; inverse of
    :func:`rabi_from_field`."""
    require("dipole moment", dipole_moment_cm, "C*m")
    require("Rabi frequency", rabi_rad_per_s, "rad/s", 0.0, False)
    if require("alignment cosine", alignment_cosine, "", -1.0, False, 1.0) == 0.0:
        raise DomainError("alignment cosine must be non-zero")
    field = rabi_rad_per_s * CODATA.reduced_planck / dipole_moment_cm / alignment_cosine
    return require("field amplitude", field, "V/m", -FLOAT_MAX, False)


def ac_stark_shift(
    rabi_rad_per_s: float,
    detuning_rad_per_s: float,
    proportionality: float = 0.25,
) -> float:
    """Off-resonant level shift ``k * |Omega|^2 / Delta`` in rad/s.

    Only the |Omega|^2/Delta scaling is physically fixed; the prefactor
    depends on the level structure.  The default 1/4 is the standard
    two-level far-detuned convention, supplied as a convention rather than a
    measured constant, and callers should override it for their own system.
    """
    require("Rabi frequency", rabi_rad_per_s, "rad/s", -FLOAT_MAX, False)
    if require("detuning", detuning_rad_per_s, "rad/s", -FLOAT_MAX, False) == 0.0:
        raise DomainError("detuning must be non-zero (resonant case has no Stark shift)")
    require("Stark proportionality constant", proportionality, "", -FLOAT_MAX, False)
    shift = proportionality * (rabi_rad_per_s * rabi_rad_per_s) / detuning_rad_per_s
    return require("AC Stark shift", shift, "rad/s", -FLOAT_MAX, False)


def compare_to_classical(
    sensor_nef: float,
    gain: float,
    frequency_hz: float,
    rho2: float = 1.0,
    eta_0: float | None = None,
) -> float:
    """Noise temperature a classical receiver would need to match this NEF.

    Thin wrapper over :func:`rfsense.fieldmetrics.tsys_from_nef` for
    benchmarking an atomic sensor against amplifier noise temperatures under
    an assumed coupling (G, f, rho^2).
    """
    return fieldmetrics.tsys_from_nef(sensor_nef, gain, frequency_hz, rho2, eta_0)
