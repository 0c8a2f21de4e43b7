"""Exception types shared across the qwire modules, and the two argument
rules: `require_integer` for every count, dimension and index, and
`require_reals` (`require_real` for one number) for every real one.

`require_integer` also holds the bounds of an integer: low <= n < high,
either bound optional, each refused under the caller's error class with
one wording, "{name} must be >= {low}, got {n}" (or "< {high}").
`require_dim` is its d >= 2 case.  Only the size caps (`MAX_QUBITS`,
`classicality_gap`'s N <= 62 and the CLI's sector-check cap) are checked
apart from it.

The numeric fields of the four result types, `numerics.EigenSystem`,
`pst.FidelityCurve`, `pst.TransferReport` and `optimizer.OptimizeResult`,
go through the same rules (an optimizer decrement of exactly +inf
excepted).  Each type checks only what no rule expresses, such as
ascending eigenvalues or a fidelity in [0, 1], and raises
InvalidConfigError for it.  The entries of `numerics.Operator` and
`numerics.StateVector` pass the dtype test of `require_reals` with
complex admitted."""

import operator
from numbers import Complex, Real

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


def require_integer(value, name: str, low: int | None = None, high: int | None = None,
                    error=InvalidConfigError) -> int:
    """operator.index(value), the integer rule of every count, dimension
    and index argument (numpy integers pass), within low <= n < high where
    either bound is given: InvalidConfigError naming the argument for a
    value that is not an integer, such as 2.5, 4.0 or NaN, and `error`
    for one outside the bounds.  The result is a Python int, so products
    with it cannot overflow in numpy."""
    try:
        n = operator.index(value)
    except TypeError:
        raise InvalidConfigError(f"{name} must be an integer, got {value!r}") from None
    if low is not None and n < low:
        raise error(f"{name} must be >= {low}, got {n}")
    if high is not None and n >= high:
        raise error(f"{name} must be < {high}, got {n}")
    return n


def require_dim(d, name: str = "d") -> int:
    """The integer rule for d >= 2, that of every chain, dispersion and
    shift/clock builder, with DimensionTooSmallError below 2."""
    return require_integer(d, name, 2, error=DimensionTooSmallError)


def _numbers(values, name: str, error=InvalidConfigError, complex_ok: bool = False):
    """np.asarray(values) when its dtype is bool, integer, float, complex
    if `complex_ok`, or objects that are all numbers.Real (numbers.Complex
    if `complex_ok`): `error` naming the argument otherwise, a ragged
    sequence included.  No cast is made, so a complex value raises no
    ComplexWarning."""
    kinds, number = ("biufc", Complex) if complex_ok else ("biuf", Real)
    try:
        array = np.asarray(values)
        kind = array.dtype.kind
        if kind in kinds or kind == "O" and all(isinstance(v, number) for v in array.flat):
            return array
    except ValueError:  # a ragged sequence
        pass
    raise error(f"{name} must be {'numeric' if complex_ok else 'real'}, got {values!r}")


def require_reals(values, name: str, error=InvalidConfigError, positive: bool = False,
                  ndim: int | None = None) -> np.ndarray:
    """values as a float64 array under the rule of every real argument,
    checked as one array: a bool, integer or float dtype (or objects that
    are all numbers.Real, such as an int beyond int64), in ndim dimensions
    if given, with finite entries, positive too if asked.  `error` naming
    the argument is raised otherwise; no cast comes before the dtype
    check, so a complex value raises no ComplexWarning."""
    array = _numbers(values, name, error)
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
