"""Exception types shared across the qwire modules, and the two argument
rules: `require_integer` for every count, dimension and index, and
`require_reals` (`require_real` for one number) for every real one.

The numeric fields of the four result types, `numerics.EigenSystem`,
`pst.FidelityCurve`, `pst.TransferReport` and `optimizer.OptimizeResult`,
go through the same rules (an optimizer decrement, which may be inf,
excepted).  Each type checks only what no rule expresses, such as
ascending eigenvalues or a fidelity in [0, 1], and raises
InvalidConfigError for it."""

import operator
from numbers import Real

import numpy as np


class QwireError(Exception):
    """Base class for all qwire errors."""


class DimensionMismatchError(QwireError):
    """Operands have incompatible dimensions."""


class DimensionTooSmallError(QwireError):
    """Requested dimension is below the minimum of 2."""


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


def require_integer(value, name: str) -> int:
    """operator.index(value), the integer rule of every count, dimension
    and index argument (numpy integers pass): InvalidConfigError naming the
    argument for a value that is not an integer, such as 2.5, 4.0 or NaN."""
    try:
        return operator.index(value)
    except TypeError:
        raise InvalidConfigError(f"{name} must be an integer, got {value!r}") from None


def require_dim(d, name: str = "d") -> int:
    """operator.index(d) under the integer d >= 2 rule of every chain,
    dispersion and shift/clock builder: InvalidConfigError naming the
    argument for a d that is not an integer, DimensionTooSmallError for
    one below 2.  The result is a Python int, so products with it cannot
    overflow in numpy."""
    dim = require_integer(d, name)
    if dim < 2:
        raise DimensionTooSmallError(f"{name} must be >= 2, got {d}")
    return dim


def require_reals(values, name: str, error=InvalidConfigError, positive: bool = False,
                  ndim: int | None = None) -> np.ndarray:
    """values as a float64 array under the rule of every real argument,
    checked as one array: a bool, integer or float dtype (or objects that
    are all numbers.Real, such as an int beyond int64), in ndim dimensions
    if given, with finite entries, positive too if asked.  `error` naming
    the argument is raised otherwise; no cast comes before the dtype
    check, so a complex value raises no ComplexWarning."""
    try:
        array = np.asarray(values)
    except ValueError:  # a ragged sequence
        raise error(f"{name} must be real, got {values!r}") from None
    kind = array.dtype.kind
    if kind not in "biufO" or kind == "O" and not all(isinstance(v, Real) for v in array.flat):
        raise error(f"{name} must be real, got {values!r}")
    if ndim is not None and array.ndim != ndim:
        shape = "one real number" if ndim == 0 else "a sequence of real numbers"
        raise error(f"{name} must be {shape}, got {values!r}")
    try:
        reals = array.astype(float, copy=False)
    except OverflowError:  # a Python int beyond the float range
        reals = np.array(np.inf)
    flat = reals.reshape(-1)  # a 1-d view: a numpy scalar's .all() is slow
    if not (np.isfinite(flat).all() and (not positive or (flat > 0).all())):
        raise error(f"{name} must be positive and finite, got {values!r}" if positive
                    else f"{name} must be finite")
    return reals


def require_real(value, name: str, error=InvalidConfigError, positive: bool = False) -> float:
    """float(value) for one real number under the rule of `require_reals`."""
    return float(require_reals(value, name, error, positive, ndim=0))
