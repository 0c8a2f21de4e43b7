"""Dense linear algebra kernel.

Everything downstream (shift/clock algebra, chain Hamiltonians, transfer
fidelities) is built on the two operations here: hermitian
eigendecomposition and unitary time evolution through the spectral
theorem.  Units have hbar = 1 in every module, so energies and times
enter only through their product.

An `Operator` stores its matrix as float64 when every imaginary part is
exactly zero and as complex128 otherwise, so a real symmetric
Hamiltonian is diagonalized in real arithmetic by the same `_eigh` that
a complex one goes to.  `_eigh` is the package's only eigensolver call:
it goes straight to the LAPACK gufunc behind `numpy.linalg.eigh`,
without that wrapper's argument handling (where a numpy release has
moved the gufunc, it calls the wrapper).  `hermitian_eig` and
`evolution_phases` reach it through `_hermitian_solve`, which makes one
`_eigh` call on H, or, for a mirror-symmetric H of at least
`_PARITY_SPLIT_DIM` rows, one on each of its two parity blocks, from
which one gather builds the rows of V it is asked for (all of them by
default).  `hermitian_eig`, `evolve` and `evolution_phases` get the whole
V; `hermitian_eig` checks it and returns only the eigenvalues, with the
residual that certified them.

All time evolution goes through `_evolution_factors`, one path for one
time or an array of times: it refuses a complex or non-finite time,
diagonalizes H once, refuses an overflowing max |lambda| * max |t| (a
phase would be NaN) and returns the eigenvectors V, or the rows of V
asked for, and eigenvalues.  `evolution_phases` turns them into the
phases exp(-i lambda_k t) for every requested time (the coupling search,
below, repeats only the unchecked last step, inline).  The transfer
amplitudes in `pst` ask for rows source and target of V alone, so the
parity solve makes no d x d V for them, and contract the phases with
V[target] * conj(V[source]) in one place, `pst._amplitudes`; they never
form the d x d propagator.  `pst._amplitudes` factors each phase of a
grid evenly spaced from 0 (each time but the last exactly i times the
second) as exp(-i lambda_k a*B*dt) exp(-i lambda_k b*dt), so about
2*sqrt(N)*d exponentials serve N times, within about
3*eps*max|lambda|*t_max; one time, or any other grid, it contracts from
the phases exp(-i lambda_k t) directly.  `evolve` builds the propagator
V diag(phases) V^dag.  All values are immutable after construction and
safe to share between threads.

The public `Operator` constructor copies its matrix and checks the tag.

Four builders are hermitian and finite by construction and skip that
check through the private `Operator._certified`, which tags their
freshly made float64 matrix hermitian and freezes it without copying or
re-checking it:
`lattice.build_hamiltonian`, `pst.pst_hamiltonian`,
`spinchain.xy_chain_hamiltonian` and `spinchain.number_operator`.  Each
writes one real float to an entry and to its mirror, or only real floats
to the diagonal, so M equals M^dag exactly; each rejects non-finite or
complex input up front and checks any sum or product of finite inputs
that could overflow, so every entry is finite.  The check could not fail
on them.

The coupling search in `optimizer` builds no `Operator`: it calls `_eigh`
on its own chain matrix (see that module's docstring).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg

from .errors import (
    DimensionMismatchError,
    InvalidConfigError,
    NonHermitianInputError,
    NotNormalizedError,
    require_integer,
    require_real,
    require_reals,
)

# Tolerance policy: absolute for exact algebraic identities at small
# dimension, relative to the max entry for spectral reconstructions.
HERMITIAN_RTOL = 1e-12
UNITARY_ATOL = 1e-10
EIG_RTOL = 1e-10
STATE_NORM_ATOL = 1e-10

HERMITIAN = "hermitian"
UNITARY = "unitary"
GENERAL = "general"

_TAGS = (HERMITIAN, UNITARY, GENERAL)

# `_eigh` calls numpy's private eigh gufunc, or the public wrapper where a
# numpy release has moved the gufunc.
if not hasattr(_umath_linalg, "eigh_lo"):
    _umath_linalg = None

# Mirror-symmetric matrices from this size up are diagonalized in two
# parity blocks (see `_hermitian_solve`); below it one full solve is faster.
_PARITY_SPLIT_DIM = 128


def max_abs(matrix: np.ndarray) -> float:
    """Largest entry magnitude (the max norm used by all tolerances)."""
    return float(np.max(np.abs(matrix))) if matrix.size else 0.0


def _freeze(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


@dataclass(frozen=True)
class Operator:
    """Dense square matrix with a declared structural tag, stored as
    float64 when every imaginary part is exactly zero and as complex128
    otherwise (a NaN imaginary part keeps it complex).

    The tag is verified at construction: hermitian means every entry is
    finite and max |M[i,j] - conj(M[j,i])| <= 1e-12 * (max entry
    magnitude); unitary means max |M^dag M - I| <= 1e-10.  Use GENERAL
    when neither structure is claimed.
    """

    matrix: np.ndarray
    tag: str = GENERAL

    def __post_init__(self) -> None:
        m = np.array(self.matrix, dtype=complex)
        if not m.imag.any():  # NaN is truthy, so it stays complex and is checked
            m = m.real.copy()
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionMismatchError(f"operator must be square, got shape {m.shape}")
        if m.shape[0] < 1:
            raise DimensionMismatchError("operator dimension must be >= 1")
        if self.tag not in _TAGS:
            raise InvalidConfigError(f"unknown operator tag {self.tag!r}")
        if self.tag == HERMITIAN:
            with np.errstate(invalid="ignore", over="ignore"):  # NaN/inf fail below
                dev = float(abs(m - m.conj().T).max())
            if not (np.isfinite(m).all() and dev <= HERMITIAN_RTOL * float(abs(m).max())):
                raise NonHermitianInputError(
                    f"hermiticity violated: max |M - M^dag| = {dev:.3e}"
                )
        elif self.tag == UNITARY:
            with np.errstate(invalid="ignore", over="ignore"):  # NaN/inf fail below
                dev = max_abs(m.conj().T @ m - np.eye(m.shape[0]))
            if not dev <= UNITARY_ATOL:
                raise InvalidConfigError(f"unitarity violated: max |M^dag M - I| = {dev:.3e}")
        object.__setattr__(self, "matrix", _freeze(m))

    @classmethod
    def _certified(cls, matrix: np.ndarray) -> Operator:
        """Freeze a square matrix that is hermitian by construction, tagged
        HERMITIAN, without copying it or checking it; a real one must
        already be float64, as the constructor would store it.  Only the
        builders named in the module docstring may call this; everything
        else goes through the checked constructor."""
        op = object.__new__(cls)
        object.__setattr__(op, "matrix", _freeze(matrix))
        object.__setattr__(op, "tag", HERMITIAN)
        return op

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


class StateVector:
    """Complex amplitude vector over basis states.

    Unit norm (within 1e-10) is enforced at construction, so NaN and inf
    amplitudes are refused too.
    """

    __slots__ = ("amplitudes",)

    def __init__(self, amplitudes) -> None:
        amps = np.array(amplitudes, dtype=complex).reshape(-1)
        if amps.size < 1:
            raise DimensionMismatchError("state vector must have dimension >= 1")
        norm_sq = float(np.sum(np.abs(amps) ** 2))
        if not abs(norm_sq - 1.0) <= STATE_NORM_ATOL:
            raise NotNormalizedError(f"state norm^2 = {norm_sq!r}, expected 1")
        self.amplitudes = _freeze(amps)

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def __repr__(self) -> str:
        return f"StateVector(dim={self.dim})"


def basis_state(dim: int, index: int) -> StateVector:
    """Computational basis state |index> in a dim-dimensional space."""
    dim = require_integer(dim, "dim")
    if not 0 <= require_integer(index, "index") < dim:
        raise DimensionMismatchError(f"index {index} outside dimension {dim}")
    amps = np.zeros(dim, dtype=complex)
    amps[index] = 1.0
    return StateVector(amps)


def identity(dim: int) -> Operator:
    """Identity operator (tagged unitary)."""
    return Operator(np.eye(dim), tag=UNITARY)


@dataclass(frozen=True)
class EigenSystem:
    """Ascending eigenvalues of a hermitian H and the residual that
    certified them: max |H - V diag(values) V^dag| over the orthonormal
    eigenvectors V the solver returned with them."""

    values: np.ndarray
    residual: float

    def __post_init__(self) -> None:
        vals = np.array(self.values, dtype=float)
        if vals.ndim != 1:
            raise DimensionMismatchError("eigenvalues must be a 1-d array")
        # neighbours are compared, not subtracted, so nothing overflows; NaN fails
        if not (np.isfinite(vals).all() and (vals[1:] >= vals[:-1]).all()
                and 0.0 <= self.residual < math.inf):
            raise ValueError("eigenvalues must be finite and ascending, the residual finite, >= 0")
        object.__setattr__(self, "values", _freeze(vals))


def _eigh(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(ascending eigenvalues, orthonormal eigenvectors) of a finite
    hermitian float64 or complex128 matrix, read from its lower triangle:
    byte for byte what `numpy.linalg.eigh` returns, from the gufunc it calls,
    or from `numpy.linalg.eigh` itself where numpy has no such gufunc.

    The gufunc fills every output with NaN when LAPACK does not converge;
    a NaN first eigenvalue raises LinAlgError here.  It also sets the
    floating-point invalid flag then, which numpy reports under the
    caller's errstate first (a RuntimeWarning by default); on success it
    clears the flags."""
    if _umath_linalg is None:
        values, vectors = np.linalg.eigh(matrix)
    else:
        signature = "D->dD" if matrix.dtype.kind == "c" else "d->dd"
        values, vectors = _umath_linalg.eigh_lo(matrix, signature=signature)
    if math.isnan(values[0]):
        raise LinAlgError("Eigenvalues did not converge")
    return values, vectors


def _hermitian_solve(matrix: np.ndarray, rows=None) -> tuple[np.ndarray, np.ndarray]:
    """(ascending eigenvalues, orthonormal eigenvectors) of a finite
    hermitian matrix: one `_eigh` call, or two on its parity blocks when it
    is mirror-symmetric (M equals M reversed along both axes) and has at
    least `_PARITY_SPLIT_DIM` rows.  With `rows`, a sequence of row
    indices, only those rows of V are returned, in that order, byte for
    byte V[rows]: the transfer amplitudes in `pst` ask for rows source
    and target.  Without it, as for `hermitian_eig`, `evolution_phases`
    and `evolve`, the whole d x d V is returned.

    With d = 2h + p (p = 0 or 1), JMJ = M makes M block diagonal in the
    basis (e_i +- e_{d-1-i})/sqrt(2), with e_h itself in the even half
    when d is odd (Cantoni & Butler, Linear Algebra Appl. 13, 275 (1976)).
    The odd block is M[:h, :h] - M[:h, :h]J, and the even block is
    M[:h, :h] + M[:h, :h]J, bordered for odd d by sqrt(2) M[:h, h] and
    M[h, h].  A block eigenvector y becomes V's column (y, +-Jy)/sqrt(2),
    with y's last entry as the middle row of an even column; an odd
    column has a zero middle row.  The columns are merged by a stable
    argsort of the two spectra, so the values stay ascending.  Row i of V
    is gathered from row min(i, d-1-i) of each block's eigenvectors, its
    odd half scaled by sqrt(1/2) for i < h and by -sqrt(1/2) past the
    middle, one scalar multiply per run of requested rows on one side,
    and its columns are permuted in place, 64 rows at a time, so asked
    for rows the route makes no d x d array, and for the whole V no
    second one."""
    d = matrix.shape[0]
    if d < _PARITY_SPLIT_DIM or not np.array_equal(matrix, matrix[::-1, ::-1]):
        values, vectors = _eigh(matrix)
        return values, vectors if rows is None else vectors[list(rows)]
    h = d // 2
    top = matrix[:h, :h]
    folded = matrix[:h, ::-1][:, :h]  # M[:h, h+p:] with its columns reversed
    even = np.empty((d - h, d - h), dtype=matrix.dtype)
    even[:h, :h] = top + folded
    if d % 2:
        even[:h, h] = math.sqrt(2.0) * matrix[:h, h]
        even[h, :h] = math.sqrt(2.0) * matrix[h, :h]
        even[h, h] = matrix[h, h]
    even_values, even_vectors = _eigh(even)
    odd_values, odd_vectors = _eigh(top - folded)
    values = np.concatenate((even_values, odd_values))
    order = np.argsort(values, kind="stable")
    i = np.arange(d) if rows is None else np.asarray(rows)
    k = np.minimum(i, d - 1 - i)  # row d-1-k mirrors row k, odd half negated
    middle = k == h  # the middle row of an odd d: unscaled, zero in the odd half
    r = math.sqrt(0.5)
    vectors = np.empty((i.size, d), dtype=matrix.dtype)
    np.multiply(even_vectors[k], r, out=vectors[:, : d - h])
    odd, upper = odd_vectors.take(k, axis=0, mode="clip"), i < h
    cuts = [0, *np.flatnonzero(upper[1:] != upper[:-1]) + 1, i.size]
    for start, stop in zip(cuts, cuts[1:]):  # one scalar per run of rows on one side
        np.multiply(odd[start:stop], r if upper[start] else -r, out=vectors[start:stop, d - h :])
    vectors[middle, : d - h] = even_vectors[k[middle]]
    vectors[middle, d - h :] = 0.0
    for start in range(0, i.size, 64):
        block = vectors[start : start + 64]
        block[...] = block[:, order]
    return values[order], vectors


def hermitian_eig(operator: Operator) -> EigenSystem:
    """Ascending eigenvalues of a hermitian operator, with their residual.

    The solver's eigenvectors V are checked, then dropped: ArithmeticError
    unless max |V^dag V - I| <= 1e-10 (reconstruction alone passes wrong
    values on repeated columns) and max |H - V diag V^dag| <= 1e-10 *
    max(1, max |H|)."""
    if operator.tag != HERMITIAN:
        raise NonHermitianInputError("hermitian_eig requires a hermitian-tagged operator")
    values, vectors = _hermitian_solve(operator.matrix)
    with np.errstate(invalid="ignore", over="ignore"):  # NaN/inf fail below
        residual = max_abs(operator.matrix - (vectors * values) @ vectors.conj().T)
        orth = max_abs(vectors.conj().T @ vectors - np.eye(operator.dim))
    bound = EIG_RTOL * max(1.0, max_abs(operator.matrix))
    if not (residual <= bound and orth <= UNITARY_ATOL):
        raise ArithmeticError(
            f"eigendecomposition residual {residual:.3e} (bound {bound:.3e}), "
            f"max |V^dag V - I| = {orth:.3e} (bound {UNITARY_ATOL:.0e})"
        )
    return EigenSystem(values=values, residual=residual)


def _evolution_factors(hamiltonian: Operator, times,
                       rows=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(V, eigenvalues, times as float64) behind exp(-i H t), after every
    check `evolution_phases` documents; with `rows`, a sequence of row
    indices, V[rows] in place of V, which the parity solve builds without
    forming V (see `_hermitian_solve`).  When every time is zero no
    eigensolve is made: V is the identity (or its rows) and the values are
    zeros, so every phase angle lambda_k t is exactly 0."""
    if hamiltonian.tag != HERMITIAN:
        raise NonHermitianInputError("time evolution requires a hermitian-tagged operator")
    times = require_reals(times, "evolution times")
    d = hamiltonian.dim
    if not times.any():
        vectors = np.eye(d, dtype=hamiltonian.matrix.dtype)
        return vectors if rows is None else vectors[list(rows)], np.zeros(d), times
    values, vectors = _hermitian_solve(hamiltonian.matrix, rows)
    # Python floats: an overflowing product becomes inf without a numpy warning
    scale = max(abs(float(values[0])), abs(float(values[-1]))) * float(abs(times).max())
    if not math.isfinite(scale):
        raise InvalidConfigError(f"evolution phases overflow: max |lambda| * max |t| = {scale}")
    return vectors, values, times


def evolution_phases(hamiltonian: Operator, times) -> tuple[np.ndarray, np.ndarray]:
    """Spectral factors of exp(-i H t) = V diag(phases) V^dag.

    Returns (V, phases), where phases has shape times.shape + (d,) and V
    has H's dtype.  Raises NonHermitianInputError unless H is tagged
    hermitian, and InvalidConfigError (a ValueError) for a complex or
    non-finite time or an overflowing max |lambda| * max |t|.  When every
    time is zero no eigensolve is made: V is the identity, the eigenvalues
    are taken as zeros and every phase is exp(-i 0) = 1 - 0j, so the
    propagator is exactly the identity.
    """
    vectors, values, times = _evolution_factors(hamiltonian, times)
    return vectors, _phases(values, times)


def _phases(values: np.ndarray, times) -> np.ndarray:
    """exp(-i lambda_k t) for every time and eigenvalue, unchecked."""
    return np.exp(-1j * np.multiply.outer(times, values))


def evolve(hamiltonian: Operator, t: float) -> Operator:
    """Unitary time evolution exp(-i H t) via the spectral theorem, for
    one real time t."""
    vectors, phases = evolution_phases(hamiltonian, require_real(t, "evolution times"))
    return Operator((vectors * phases) @ vectors.conj().T, tag=UNITARY)
