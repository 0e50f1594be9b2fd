"""Exception types shared across the package.

The CLI maps these onto exit codes: invalid input -> 2, overflow -> 3.
"""


class InvalidInputError(ValueError):
    """Raised when an argument violates a documented precondition."""


class NumericalOverflowError(FloatingPointError):
    """Raised when a forward pass or gradient produces a non-finite value.

    ``layer`` is the 1-based index of the first offending layer, or None when
    the overflow is not attributable to a single layer.
    """

    def __init__(self, message: str, layer: int | None = None):
        super().__init__(message)
        self.layer = layer
