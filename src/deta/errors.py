"""Exception types shared across the package."""


class DetaError(Exception):
    """Base class for all errors raised by this package."""


class InvalidParameterError(DetaError, ValueError):
    """A configuration value or argument is outside its valid range."""


class DegenerateVectorError(DetaError, ValueError):
    """A zero-norm vector was passed where a direction is required."""


class ParseError(DetaError, ValueError):
    """An episode file is not valid JSON."""


class SchemaError(DetaError, ValueError):
    """An episode file is valid JSON but violates the episode schema."""


class DivergenceError(DetaError, ArithmeticError):
    """Adaptation produced a non-finite loss or gradient.

    Carries the 1-based iteration index at which the divergence occurred.
    """

    def __init__(self, message: str, iteration: int):
        super().__init__(message)
        self.iteration = iteration
