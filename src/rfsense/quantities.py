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

from .errors import FLOAT_MAX, DomainError, require

__all__ = [
    "Constants",
    "CODATA",
    "ValidatedRecord",
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

# The largest dB value whose linear ratio is a finite float.
DB_MAX = math.nextafter(10.0 * math.log10(FLOAT_MAX), 0.0)


class ValidatedRecord(tuple):
    """Base of a record that checks its fields when built and in ``_replace``.

    Every record type is a namedtuple subclass with ``__slots__ = ()``.  One
    that validates its fields lists this base before its namedtuple and
    defines ``_check(self)``, which raises on a bad field.  ``_replace``
    builds through ``_make``, which for a bare namedtuple is
    ``tuple.__new__`` and would skip the checks; here it is the constructor.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        self._check()
        return self

    @classmethod
    def _make(cls, values):
        return cls(*values)


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
    return require(ETA0_ENV_VAR, value, "ohm")


def resolve_eta0(eta_0: float | None) -> float:
    """A caller's free-space impedance in ohms, or the configured default."""
    return default_eta0() if eta_0 is None else require("eta_0", eta_0, "ohm")


def db_to_linear(x: float) -> float:
    """Convert a power-dB value to a linear ratio, ``10**(x/10)``."""
    require("dB value", x, "dB", -FLOAT_MAX, False, DB_MAX)
    return require("linear ratio", 10.0 ** (x / 10.0))


def linear_to_db(ratio: float) -> float:
    """Convert a positive linear power ratio to dB, ``10*log10(ratio)``."""
    require("linear ratio", ratio, verbose=True)
    return 10.0 * math.log10(ratio)


def frequency_to_wavelength(frequency_hz: float) -> float:
    """Wavelength in metres of a wave at ``frequency_hz``."""
    require("frequency", frequency_hz, "Hz")
    return require("wavelength", CODATA.light_speed / frequency_hz, "m")


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
    eta_0 = resolve_eta0(eta_0)
    require("aperture", aperture_m2, "m^2")
    require("field amplitude", field_v_per_m, "V/m", 0.0, False)
    power = aperture_m2 * (field_v_per_m * field_v_per_m) / (2.0 * eta_0)
    return require("collected power", power, "W", 0.0, False)
