"""Exception types shared across the toolkit."""


class DomainError(ValueError):
    """An input violates a physical precondition (sign, range, finiteness)."""


class SingularFitError(DomainError):
    """A regression problem is degenerate (e.g. all calibration loads equal)."""


class SchemaError(ValueError):
    """A structured input document does not conform to its schema."""
