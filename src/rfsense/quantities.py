"""Physical constants, the configured free-space impedance, dB/linear helpers,
and the scaled ratio an engine recomputes a result with when its inline form
leaves the float range.

All engine modules work in strict SI floats (Hz, m, K, W, V/m); unit checking
lives in the CLI's suffixed flags, and decibel values appear only at
input/output boundaries.  Every dB value in this package is a power ratio
(factor ``10*log10``); field amplitudes are never expressed in dB inside the
engine.
"""

import math
import os
import sys

from .errors import FLOAT_MAX, DomainError, require

__all__ = [
    "BOLTZMANN",
    "ETA_0",
    "LIGHT_SPEED",
    "PLANCK",
    "REDUCED_PLANCK",
    "REFERENCE_TEMPERATURE",
    "VACUUM_PERMITTIVITY",
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
# The dict that os.environ keeps in step with the process environment, and
# the variable's key in it; see default_eta0.
_ENVIRON = os.environ._data
_ETA0_KEY = os.environ.encodekey(ETA0_ENV_VAR)

# The largest dB value whose linear ratio is a finite float.
DB_MAX = math.nextafter(10.0 * math.log10(FLOAT_MAX), 0.0)


class ValidatedRecord(tuple):
    """Base of a record that checks its fields when built and in ``_replace``.

    Every record type is a namedtuple subclass with ``__slots__ = ()``.  One
    that validates its fields lists this base before its namedtuple and is
    built one way, by its own ``__new__(cls, <its fields, in order>)``,
    whose signature is the one owner of the defaults.  That ``__new__``
    tests each bound inline on the arguments, calls ``require`` only to
    raise, and returns ``tuple.__new__(cls, (<its fields>))``.  ``_replace``
    builds through ``_make``, which for a bare namedtuple is
    ``tuple.__new__`` and would skip the checks; here it is the constructor.
    """

    __slots__ = ()

    @classmethod
    def _make(cls, values):
        return cls(*values)


def _scaled_ratio(numerators, denominators) -> float:
    """``prod(numerators) / prod(denominators)`` with the binary exponents summed apart.

    An engine's inline product or quotient can overflow or underflow on the
    way to a result that a float can hold; each caller recomputes with this
    only when its inline result is not a normal float, so ordinary inputs
    keep their bits.  Every factor is finite and no denominator is 0.  A
    zero numerator gives a zero of the inline form's sign, whatever the
    other exponents sum to; any other result beyond the float range is an
    infinity of its sign, and one below it rounds to a subnormal or a zero.
    """
    mantissa, exponent = 1.0, 0
    for x in numerators:
        m, e = math.frexp(x)
        mantissa *= m
        exponent += e
    for x in denominators:
        m, e = math.frexp(x)
        mantissa /= m
        exponent -= e
    if mantissa == 0.0:
        return mantissa
    mantissa, e = math.frexp(mantissa)
    exponent += e
    if exponent > sys.float_info.max_exp:
        return math.copysign(math.inf, mantissa)
    return math.ldexp(mantissa, exponent)


# Physical constants (SI units).  Field metrics read ETA_0 through default_eta0().
BOLTZMANN = 1.380649e-23                   # J/K
PLANCK = 6.62607015e-34                    # J*s
REDUCED_PLANCK = PLANCK / (2.0 * math.pi)  # J*s
LIGHT_SPEED = 299792458.0                  # m/s
ETA_0 = 376.730313668                      # ohm
VACUUM_PERMITTIVITY = 8.8541878128e-12     # F/m
REFERENCE_TEMPERATURE = 290.0              # K


def default_eta0() -> float:
    """Free-space impedance in ohms, honouring the environment override.

    The variable is read on every call, so any in-place change to
    ``os.environ`` reaches the next one.  Whether it is set is one lookup in
    the dict that ``os.environ`` keeps: ``os.environ.get`` on an unset
    variable raises and handles two ``KeyError`` on the way, which costs
    more than the rest of a field metric.  That dict is the one of the
    ``os.environ`` object that exists at import: a change made to that
    object is seen, but rebinding ``os.environ`` to another mapping is not.
    """
    if _ENVIRON.get(_ETA0_KEY) is None:
        return ETA_0
    raw = os.environ[ETA0_ENV_VAR]
    try:
        value = float(raw)
    except ValueError as exc:
        raise DomainError(f"{ETA0_ENV_VAR} must be a number, got {raw!r}") from exc
    if not 0.0 < value <= FLOAT_MAX:
        require(ETA0_ENV_VAR, value, "ohm")
    return value


def db_to_linear(x: float) -> float:
    """Convert a power-dB value to a linear ratio, ``10**(x/10)``."""
    if not -FLOAT_MAX <= x <= DB_MAX:
        require("dB value", x, "dB", -FLOAT_MAX, False, DB_MAX)
    ratio = 10.0 ** (x / 10.0)
    if not 0.0 < ratio <= FLOAT_MAX:
        require("linear ratio", ratio)
    return ratio


def linear_to_db(ratio: float) -> float:
    """Convert a positive linear power ratio to dB, ``10*log10(ratio)``."""
    if not 0.0 < ratio <= FLOAT_MAX:
        require("linear ratio", ratio, verbose=True)
    return 10.0 * math.log10(ratio)


def frequency_to_wavelength(frequency_hz: float) -> float:
    """Wavelength in metres of a wave at ``frequency_hz``."""
    if not 0.0 < frequency_hz <= FLOAT_MAX:
        require("frequency", frequency_hz, "Hz")
    wavelength = LIGHT_SPEED / frequency_hz
    if not 0.0 < wavelength <= FLOAT_MAX:
        require("wavelength", wavelength, "m")
    return wavelength


def power_from_field(field_v_per_m: float, aperture_m2: float) -> float:
    """Power collected from a plane wave: ``P = A*E^2 / (2*eta_0)``.

    ``field_v_per_m`` is the field amplitude and ``aperture_m2`` the area
    through which it is integrated.  Treating the optical interaction region
    of a subwavelength sensor as this aperture is unreliable: diffraction,
    phase matching, and nonlocal response can all invalidate the relation, so
    for such sensors prefer the field-referred metrics in
    :mod:`rfsense.fieldmetrics`.
    """
    eta_0 = default_eta0()
    if not (0.0 < aperture_m2 <= FLOAT_MAX and 0.0 <= field_v_per_m <= FLOAT_MAX):
        require("aperture", aperture_m2, "m^2")
        require("field amplitude", field_v_per_m, "V/m", 0.0, False)
    # One root per factor: A*E*E overflows, or E*E underflows, where the power does not.
    root = math.sqrt(aperture_m2) * field_v_per_m / math.sqrt(2.0 * eta_0)
    power = root * root
    if not 0.0 <= power <= FLOAT_MAX:
        require("collected power", power, "W", 0.0, False)
    return power
