"""Intrinsic noise floors and field-calibration primitives of atomic
(Rydberg-state) electric-field sensors."""

import math

from . import fieldmetrics
from .errors import FLOAT_MAX, FLOAT_MIN, DomainError, require
from .quantities import PLANCK, REDUCED_PLANCK, _scaled_ratio

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
    if not 0.0 < multiple_of_e_a0 <= FLOAT_MAX:
        require("dipole moment multiple of e*a_0", multiple_of_e_a0)
    moment = multiple_of_e_a0 * ATOMIC_DIPOLE_UNIT
    if not 0.0 < moment <= FLOAT_MAX:
        require("dipole moment", moment, "C*m")
    return moment


def qpn_nef(dipole_moment_cm: float, atom_count: float, coherence_time_s: float) -> float:
    """Quantum-projection-noise field floor, V/m/sqrt(Hz).

    NEF_qpn = (h/d) / sqrt(N * tau_coh), the measurement-collapse limit of an
    atomic field sensor.  Valid when the integration time is at least the
    coherence time; a shorter integration makes the expression underestimate
    the floor.
    """
    if not (0.0 < dipole_moment_cm <= FLOAT_MAX
            and 0.0 < atom_count <= FLOAT_MAX
            and 0.0 < coherence_time_s <= FLOAT_MAX):
        require("dipole moment", dipole_moment_cm, "C*m")
        require("atom count", atom_count)
        require("coherence time", coherence_time_s, "s")
    nef = PLANCK / dipole_moment_cm / math.sqrt(atom_count) / math.sqrt(coherence_time_s)
    if not 0.0 < nef <= FLOAT_MAX:
        require("projection-noise NEF", nef, "V/m/sqrt(Hz)")
    return nef


def photon_shot_noise_nep(probe_power_w: float, probe_frequency_hz: float) -> float:
    """Shot-noise power spectral density of the probe readout, W/sqrt(Hz).

    P_SN = sqrt(P_probe * h * nu_p) for detected average probe power P_probe.
    """
    if not (0.0 <= probe_power_w <= FLOAT_MAX and 0.0 < probe_frequency_hz <= FLOAT_MAX):
        require("probe power", probe_power_w, "W", 0.0, False)
        require("probe frequency", probe_frequency_hz, "Hz")
    # One root per factor: the radicand P*h*nu can overflow where its root does not.
    nep = math.sqrt(probe_power_w) * math.sqrt(PLANCK) * math.sqrt(probe_frequency_hz)
    if not 0.0 <= nep <= FLOAT_MAX:
        require("shot-noise NEP", nep, "W/sqrt(Hz)", 0.0, False)
    return nep


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
    if not (0.0 < dipole_moment_cm <= FLOAT_MAX
            and 0.0 <= field_v_per_m <= FLOAT_MAX
            and -1.0 <= alignment_cosine <= 1.0):
        require("dipole moment", dipole_moment_cm, "C*m")
        require("field amplitude", field_v_per_m, "V/m", 0.0, False)
        require("alignment cosine", alignment_cosine, "", -1.0, False, 1.0)
    # d*E can leave the float range where Omega does not.  Dividing by hbar
    # lifts a subnormal d*E*cos, digits lost, into a normal Omega; a normal
    # one stays at least FLOAT_MIN.
    moment = dipole_moment_cm * field_v_per_m * alignment_cosine
    rabi = moment / REDUCED_PLANCK
    if not (FLOAT_MIN <= abs(moment) and -FLOAT_MAX <= rabi <= FLOAT_MAX):
        rabi = _scaled_ratio((dipole_moment_cm, field_v_per_m, alignment_cosine),
                             (REDUCED_PLANCK,))
        if not -FLOAT_MAX <= rabi <= FLOAT_MAX:
            require("Rabi frequency", rabi, "rad/s", -FLOAT_MAX, False)
    return rabi


def field_from_rabi(
    rabi_rad_per_s: float,
    dipole_moment_cm: float,
    alignment_cosine: float = 1.0,
) -> float:
    """Field amplitude from a measured Rabi frequency; inverse of
    :func:`rabi_from_field`."""
    if not (0.0 < dipole_moment_cm <= FLOAT_MAX
            and 0.0 <= rabi_rad_per_s <= FLOAT_MAX
            and -1.0 <= alignment_cosine <= 1.0):
        require("dipole moment", dipole_moment_cm, "C*m")
        require("Rabi frequency", rabi_rad_per_s, "rad/s", 0.0, False)
        require("alignment cosine", alignment_cosine, "", -1.0, False, 1.0)
    if alignment_cosine == 0.0:
        raise DomainError("alignment cosine must be non-zero")
    # Omega*hbar can leave the float range where E does not.  Dividing by d
    # or by the cosine can lift a subnormal partial, digits lost, into a
    # normal E; |cos| <= 1, so a normal Omega*hbar/d gives |E| >= FLOAT_MIN.
    action = rabi_rad_per_s * REDUCED_PLANCK
    per_dipole = action / dipole_moment_cm
    field = per_dipole / alignment_cosine
    if not (FLOAT_MIN <= action and FLOAT_MIN <= per_dipole and -FLOAT_MAX <= field <= FLOAT_MAX):
        field = _scaled_ratio((rabi_rad_per_s, REDUCED_PLANCK),
                              (dipole_moment_cm, alignment_cosine))
        if not -FLOAT_MAX <= field <= FLOAT_MAX:
            require("field amplitude", field, "V/m", -FLOAT_MAX, False)
    return field


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
    if not (-FLOAT_MAX <= rabi_rad_per_s <= FLOAT_MAX
            and -FLOAT_MAX <= detuning_rad_per_s <= FLOAT_MAX):
        require("Rabi frequency", rabi_rad_per_s, "rad/s", -FLOAT_MAX, False)
        require("detuning", detuning_rad_per_s, "rad/s", -FLOAT_MAX, False)
    if detuning_rad_per_s == 0.0:
        raise DomainError("detuning must be non-zero (resonant case has no Stark shift)")
    if not -FLOAT_MAX <= proportionality <= FLOAT_MAX:
        require("Stark proportionality constant", proportionality, "", -FLOAT_MAX, False)
    # Omega^2 can leave the float range where the shift does not.
    shift = proportionality * (rabi_rad_per_s * rabi_rad_per_s) / detuning_rad_per_s
    if not FLOAT_MIN <= abs(shift) <= FLOAT_MAX:
        shift = _scaled_ratio((proportionality, rabi_rad_per_s, rabi_rad_per_s),
                              (detuning_rad_per_s,))
        if not -FLOAT_MAX <= shift <= FLOAT_MAX:
            require("AC Stark shift", shift, "rad/s", -FLOAT_MAX, False)
    return shift


def compare_to_classical(
    sensor_nef: float,
    gain: float,
    frequency_hz: float,
    rho2: float = 1.0,
) -> float:
    """Noise temperature a classical receiver would need to match this NEF.

    Thin wrapper over :func:`rfsense.fieldmetrics.tsys_from_nef` for
    benchmarking an atomic sensor against amplifier noise temperatures under
    an assumed coupling (G, f, rho^2).
    """
    return fieldmetrics.tsys_from_nef(sensor_nef, gain, frequency_hz, rho2)
