"""Exception types shared across the package."""


class InvalidArgumentError(ValueError):
    """Input violates a documented precondition (shape, definiteness, range)."""


class NumericalError(RuntimeError):
    """A numerical operation failed beyond the configured rescue policies."""
