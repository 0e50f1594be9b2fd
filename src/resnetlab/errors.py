"""Exception types shared across the package.

The CLI maps these onto exit codes: invalid input -> 2, overflow -> 3.
"""


class InvalidInputError(ValueError):
    """Raised when an argument violates a documented precondition."""


class InfeasibleDatasetError(InvalidInputError):
    """Raised when sphere sampling cannot meet the separation threshold.

    Carries the best separation achieved so the caller can report how far
    the draw was from the requirement; the message names the threshold.
    """

    def __init__(self, message: str, achieved_separation: float):
        super().__init__(message)
        self.achieved_separation = achieved_separation


class NumericalOverflowError(FloatingPointError):
    """Raised when a forward pass or gradient produces a non-finite value.

    ``layer`` is the 1-based index of the first offending layer, or None when
    the overflow is not attributable to a single layer.
    """

    def __init__(self, message: str, layer: int | None = None):
        super().__init__(message)
        self.layer = layer
