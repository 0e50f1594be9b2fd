"""Exception types shared across the package.

The CLI maps these onto exit codes: invalid input -> 2, overflow -> 3.
"""


class InvalidInputError(ValueError):
    """Raised when an argument violates a documented precondition."""


class NumericalOverflowError(FloatingPointError):
    """Raised when a forward pass or gradient produces a non-finite value.

    A hidden state's overflow names the first offending layer in the message.
    """
