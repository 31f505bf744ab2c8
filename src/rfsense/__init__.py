"""Sensitivity figures of merit for spaceborne RF/microwave receivers and
atomic field sensors: radiometry, radar, link budgets, noise-equivalent
field conversions, cavity field enhancement, and the instrument-range
dataset pipeline."""

from .errors import DomainError, SchemaError, SingularFitError

__version__ = "0.1.0"

__all__ = [
    "DomainError",
    "SchemaError",
    "SingularFitError",
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
    # Every submodule loads on first use, so a caller pays only for the ones
    # it touches: a CLI call loads the engine module of its subcommand alone.
    # The error classes are bound above and never reach this hook.
    # __import__, unlike importlib.import_module, keeps each module's cost
    # visible to -X importtime.
    if name in __all__:
        __import__(f"{__name__}.{name}")
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
