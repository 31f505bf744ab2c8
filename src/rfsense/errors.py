"""Exception types shared across the toolkit, and the one input check."""

import sys

# The largest finite float: the default upper bound of ``require``, and
# ``-FLOAT_MAX`` with ``strict=False`` is "any finite value".
FLOAT_MAX = sys.float_info.max
FLOAT_MIN = sys.float_info.min  # the smallest normal float


class DomainError(ValueError):
    """An input violates a physical precondition (sign, range, finiteness)."""


class SingularFitError(DomainError):
    """A regression problem is degenerate (e.g. all calibration loads equal)."""


class SchemaError(ValueError):
    """A structured input document does not conform to its schema."""


def require(name, value, unit="", low=0.0, strict=True, high=FLOAT_MAX, verbose=False):
    """Return ``value`` if it is finite and inside the bound, else raise.

    The bound is ``low < value <= high``, or ``low <= value <= high`` when
    ``strict`` is false.  ``high`` defaults to the largest float, so no
    bound admits an infinity, NaN fails every comparison, and
    ``low=-FLOAT_MAX, strict=False`` admits any finite value.  Hot callers
    pass the arguments by position.  The :class:`DomainError` names the
    parameter: ``"<name> must be > 0 Hz"`` for a finite value outside the
    bound (``unit`` follows the bound), and ``"<name> must be finite and
    > 0 Hz, got nan"`` for a non-finite value, or for any value when
    ``verbose`` is set.  Every caller, an engine function or a record's
    ``__new__`` alike, tests the bound inline and calls ``require`` with the
    same arguments only when that test fails: a run of checks sits behind
    one ``if not (...)`` of their bounds in the same order, and a checked
    result is bound to a name, tested and returned.  So a passing check
    costs its comparisons, the message is still built here and nowhere
    else, and the first failing check is still the one raised.
    """
    if (low < value <= high) if strict else (low <= value <= high):
        return value
    if low == -FLOAT_MAX:
        bound = "" if high == FLOAT_MAX else f"<= {high:g}"
    elif high == FLOAT_MAX:
        bound = f"{'>' if strict else '>='} {low:g}"
    else:
        bound = f"in {'(' if strict else '['}{low:g}, {high:g}]"
    if bound and unit:
        bound = f"{bound} {unit}"
    if not verbose and value == value and abs(value) != float("inf"):
        raise DomainError(f"{name} must be {bound}")
    bound = f"finite and {bound}" if bound else "finite"
    raise DomainError(f"{name} must be {bound}, got {value!r}")
