"""Physical constants, the configured free-space impedance, and dB/linear helpers.

All engine modules work in strict SI floats (Hz, m, K, W, V/m); unit checking
lives in the CLI's suffixed flags, and decibel values appear only at
input/output boundaries.  Every dB value in this package is a power ratio
(factor ``10*log10``); field amplitudes are never expressed in dB inside the
engine.
"""

from __future__ import annotations

import math
import os
from collections import namedtuple

from .errors import DomainError

__all__ = [
    "Constants",
    "CODATA",
    "db_to_linear",
    "default_eta0",
    "frequency_to_wavelength",
    "linear_to_db",
    "power_from_field",
]

# Environment override for the free-space impedance, in ohms.  Some published
# receiver tables were evidently computed with the textbook-rounded 377.0;
# set RFSENSE_ETA0_OHMS=377 to match them at their own precision.
ETA0_ENV_VAR = "RFSENSE_ETA0_OHMS"


# Every record type is a namedtuple subclass with ``__slots__ = ()``.  One
# that validates its fields in ``__new__`` sets ``_make = checked_make``:
# ``_replace`` builds through ``_make``, which is ``tuple.__new__`` and would
# skip the checks.
checked_make = classmethod(lambda cls, values: cls(*values))


class Constants(namedtuple(
    "Constants",
    "boltzmann planck light_speed eta_0 vacuum_permittivity reference_temperature",
    defaults=(
        1.380649e-23,       # J/K
        6.62607015e-34,     # J*s
        299792458.0,        # m/s
        376.730313668,      # ohm
        8.8541878128e-12,   # F/m
        290.0,              # K
    ),
)):
    """Physical constants used throughout the toolkit (SI units).

    ``eta_0`` is the single source of truth for the free-space wave impedance:
    every field-metric computation takes its impedance from one configured
    value, never from an ad-hoc literal.
    """

    __slots__ = ()

    @property
    def reduced_planck(self) -> float:
        return self.planck / (2.0 * math.pi)


CODATA = Constants()


def default_eta0() -> float:
    """Free-space impedance in ohms, honouring the environment override."""
    raw = os.environ.get(ETA0_ENV_VAR)
    if raw is None:
        return CODATA.eta_0
    try:
        value = float(raw)
    except ValueError as exc:
        raise DomainError(f"{ETA0_ENV_VAR} must be a number, got {raw!r}") from exc
    if not math.isfinite(value) or value <= 0.0:
        raise DomainError(f"{ETA0_ENV_VAR} must be a positive finite impedance")
    return value


def db_to_linear(x: float) -> float:
    """Convert a power-dB value to a linear ratio, ``10**(x/10)``."""
    if not math.isfinite(x):
        raise DomainError(f"dB value must be finite, got {x!r}")
    return 10.0 ** (x / 10.0)


def linear_to_db(ratio: float) -> float:
    """Convert a positive linear power ratio to dB, ``10*log10(ratio)``."""
    if not math.isfinite(ratio) or ratio <= 0.0:
        raise DomainError(f"linear ratio must be finite and > 0, got {ratio!r}")
    return 10.0 * math.log10(ratio)


def frequency_to_wavelength(frequency_hz: float, constants: Constants = CODATA) -> float:
    """Wavelength in metres of a wave at ``frequency_hz``."""
    if not math.isfinite(frequency_hz) or frequency_hz <= 0.0:
        raise DomainError(f"frequency must be > 0 Hz, got {frequency_hz!r}")
    return constants.light_speed / frequency_hz


def power_from_field(
    field_v_per_m: float,
    aperture_m2: float,
    eta_0: float | None = None,
) -> float:
    """Power collected from a plane wave: ``P = A*E^2 / (2*eta_0)``.

    ``field_v_per_m`` is the field amplitude and ``aperture_m2`` the area
    through which it is integrated.  Treating the optical interaction region
    of a subwavelength sensor as this aperture is unreliable: diffraction,
    phase matching, and nonlocal response can all invalidate the relation, so
    for such sensors prefer the field-referred metrics in
    :mod:`rfsense.fieldmetrics`.
    """
    if eta_0 is None:
        eta_0 = default_eta0()
    if not math.isfinite(aperture_m2) or aperture_m2 <= 0.0:
        raise DomainError(f"aperture must be > 0 m^2, got {aperture_m2!r}")
    if not math.isfinite(field_v_per_m) or field_v_per_m < 0.0:
        raise DomainError(f"field amplitude must be >= 0 V/m, got {field_v_per_m!r}")
    return aperture_m2 * field_v_per_m**2 / (2.0 * eta_0)
