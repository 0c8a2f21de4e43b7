"""Exception types shared across the qwire modules."""

import operator


class QwireError(Exception):
    """Base class for all qwire errors."""


class DimensionMismatchError(QwireError):
    """Operands have incompatible dimensions."""


class DimensionTooSmallError(QwireError):
    """Requested dimension is below the minimum of 2."""


def require_integer(value, name: str) -> int:
    """operator.index(value), the integer rule of every count, dimension
    and index argument (numpy integers pass): InvalidConfigError naming the
    argument for a value that is not an integer, such as 2.5, 4.0 or NaN."""
    try:
        return operator.index(value)
    except TypeError:
        raise InvalidConfigError(f"{name} must be an integer, got {value!r}") from None


def require_dim(d: int) -> None:
    """The integer d >= 2 rule of every chain, dispersion and shift/clock
    builder: InvalidConfigError for a d that is not an integer,
    DimensionTooSmallError for one below 2."""
    if require_integer(d, "d") < 2:
        raise DimensionTooSmallError(f"d must be >= 2, got {d}")


class NonHermitianInputError(QwireError):
    """An operation required a hermitian operator but got something else."""


class NotProportionalError(QwireError):
    """Two operators are not related by a scalar factor."""


class ZeroThetaError(QwireError):
    """The spectral-gap rate theta must be positive."""


class BadCouplingCountError(QwireError):
    """Coupling list length does not match the chain topology."""


class NotNormalizedError(QwireError):
    """A state vector does not have unit norm."""


class IndexOutOfRangeError(QwireError):
    """A site index lies outside the register or chain."""


class RegisterTooLargeError(QwireError):
    """Qubit register exceeds the dense-matrix size cap."""


class InvalidConfigError(QwireError, ValueError):
    """An argument outside its domain (also a ValueError)."""
