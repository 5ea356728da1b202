"""Exception types and the integer check shared across the package."""

from numbers import Integral


class StateValidationError(ValueError):
    """Input does not describe a valid two-qubit state, family, or file."""


class NumericalContractError(ArithmeticError):
    """An internal numerical guarantee was violated; signals an upstream bug."""


def _is_int(x) -> bool:  # a count or a seed entry; a bool, though an int subclass, is neither
    return isinstance(x, Integral) and not isinstance(x, bool)
