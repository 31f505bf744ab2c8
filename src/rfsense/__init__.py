"""Sensitivity figures of merit for spaceborne RF/microwave receivers and
atomic field sensors: radiometry, radar, link budgets, noise-equivalent
field conversions, cavity field enhancement, and the instrument-range
dataset pipeline."""

from . import fieldmetrics, linkbudget, quantities, radar, radiometry, rydberg
from .errors import DomainError, SchemaError, SingularFitError, UnitMismatchError

__version__ = "0.1.0"

__all__ = [
    "DomainError",
    "SchemaError",
    "SingularFitError",
    "UnitMismatchError",
    "cli",
    "dataset",
    "fieldmetrics",
    "linkbudget",
    "quantities",
    "radar",
    "radiometry",
    "rydberg",
]


def __getattr__(name: str):
    # The CLI (argparse, json) and the dataset pipeline load on first use, so
    # library users do not pay for them at import.  __import__, unlike
    # importlib.import_module, keeps their cost visible to -X importtime.
    if name in ("cli", "dataset"):
        __import__(f"{__name__}.{name}")
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
