"""Dense linear algebra kernel.

Everything downstream (shift/clock algebra, chain Hamiltonians, transfer
fidelities) is built on the two operations here: hermitian
eigendecomposition and unitary time evolution through the spectral
theorem.  Units have hbar = 1 in every module, so energies and times
enter only through their product.

An `Operator` stores its matrix as float64 when every imaginary part is
exactly zero and as complex128 otherwise, so a real symmetric
Hamiltonian is diagonalized in real arithmetic by the same `_eigh` that
a complex one goes to.  `_eigh` and, on the values-only route below,
`numpy.linalg.eigvalsh` are the package's only eigensolver calls.
`_eigh` goes straight to the LAPACK gufunc behind `numpy.linalg.eigh`,
without that wrapper's argument handling (where a numpy release has
moved the gufunc, it calls the wrapper): `eigh_lo` is the one private
numpy name used, because the coupling search pays for it.

`hermitian_eig`, `evolution_phases`, `evolve` and the transfer
amplitudes in `pst` reach them through `_hermitian_solve`, whose routes
are these (its docstring, `_end_rows`' and `_reflected`'s hold the math):
- below `_PARITY_SPLIT_DIM` rows, or when H is not mirror-symmetric:
  one `_eigh` on H;
- a mirror-symmetric H of that size: one `_eigh` on each of its two
  parity blocks, from which one gather builds the rows of V it is asked
  for (all of them by default);
- the same at even d for a real H with one on-site energy c and no entry
  joining two sites of the same sublattice: one `_eigh` on the even
  block, whose reflection about c is the odd block;
- rows 0 and d-1 alone of a real mirror-symmetric chain (tridiagonal,
  every bond nonzero) of that size: `numpy.linalg.eigvalsh` on the
  blocks it would solve, and V[0,k]^2 from the eigenvalues and bonds
  alone, certified by each parity summing to 1/2; a chain that fails
  takes the eigenvector route, byte for byte as without it.
The split routes return the even block's eigenpairs, then the odd
block's, each in its solver's order.  Everything downstream sums over k,
so only `hermitian_eig` sorts: it checks the whole V, then returns the
ascending eigenvalues with the residual that certified them.

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
    _numbers,
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

# `_eigh` calls numpy's private eigh gufunc, the one private numpy name
# used (the coupling search pays for it), or the public wrapper where a
# numpy release has moved it.
if not hasattr(_umath_linalg, "eigh_lo"):
    _umath_linalg = None

# Mirror-symmetric matrices from this size up are diagonalized in two
# parity blocks (see `_hermitian_solve`).  The split is the faster route
# from about d = 48: rows 0 and d-1 of a transfer chain took 105 vs 129 us
# split vs full at d = 48, 100 vs 224 us at 64 and 187 vs 522 us at 96,
# but 78 vs 52 us at 32 (numpy 2.4 on one OpenBLAS thread of a 2-vCPU
# Xeon; the whole V alike).  128 stays: the blocks' eigenpairs differ
# from one full solve's in the last bits, so a lower size would change
# the output of every mirror-symmetric chain below it.
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
    when neither structure is claimed.  Entries that are not numbers, or
    rows of unequal length, raise InvalidConfigError.
    """

    matrix: np.ndarray
    tag: str = GENERAL

    def __post_init__(self) -> None:
        m = np.array(_numbers(self.matrix, "matrix", complex_ok=True), dtype=complex)
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
    amplitudes are refused too; entries that are not numbers, or a ragged
    nesting, raise InvalidConfigError.
    """

    __slots__ = ("amplitudes",)

    def __init__(self, amplitudes) -> None:
        amps = np.array(_numbers(amplitudes, "amplitudes", complex_ok=True), dtype=complex).ravel()
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
    require_integer(index, "index", 0, dim, DimensionMismatchError)
    amps = np.zeros(dim, dtype=complex)
    amps[index] = 1.0
    return StateVector(amps)


def identity(dim: int) -> Operator:
    """Identity operator (tagged unitary); DimensionMismatchError for a
    dim below 1."""
    return Operator(np.eye(require_integer(dim, "dim", 1, error=DimensionMismatchError)),
                    tag=UNITARY)


@dataclass(frozen=True)
class EigenSystem:
    """Ascending eigenvalues of a hermitian H and the residual that
    certified them: max |H - V diag(values) V^dag| over the orthonormal
    eigenvectors V the solver returned with them."""

    values: np.ndarray
    residual: float

    def __post_init__(self) -> None:
        vals = np.array(require_reals(self.values, "eigenvalues", ndim=1))
        # neighbours are compared, not subtracted, so nothing overflows
        if not ((vals[1:] >= vals[:-1]).all() and require_real(self.residual, "residual") >= 0):
            raise InvalidConfigError("eigenvalues must be ascending, the residual >= 0")
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
    """(eigenvalues, orthonormal eigenvectors V) of a finite hermitian
    matrix.  Below `_PARITY_SPLIT_DIM` rows, or when it is not
    mirror-symmetric (M equals M reversed along both axes), that is one
    `_eigh` call, with ascending values.  Otherwise it is solved in its
    two parity blocks, or in the even block alone when the odd one is its
    reflection (below), and (eigenvalues, V) are in block order, even
    block first, each block's pairs in its solver's order.  With `rows`,
    a sequence of row indices, only those rows of V are returned, in that
    order, byte for byte V[rows] but on the end-row route below: the
    transfer amplitudes in `pst` ask for rows source and target.  Without
    it, as for `hermitian_eig`, `evolution_phases` and `evolve`, the whole
    d x d V is returned.

    When every requested row is 0 or d-1 and the split matrix is a real
    chain (float64, tridiagonal, every bond nonzero), `_end_rows` reads
    them from the blocks' eigenvalues alone; where its certificate holds
    the eigenvalues are eigvalsh's, within rounding of eigh's, and the
    rows are V[rows] up to each column's sign, within rounding.  Where it
    fails, the eigenvector route below runs, and its result is byte for
    byte V[rows].

    With d = 2h + p (p = 0 or 1), JMJ = M makes M block diagonal in the
    basis (e_i +- e_{d-1-i})/sqrt(2), with e_h itself in the even half
    when d is odd (Cantoni & Butler, Linear Algebra Appl. 13, 275 (1976)).
    The odd block is M[:h, :h] - M[:h, :h]J, and the even block is
    M[:h, :h] + M[:h, :h]J, bordered for odd d by sqrt(2) M[:h, h] and
    M[h, h].  A block eigenvector y becomes V's column (y, +-Jy)/sqrt(2),
    with y's last entry as the middle row of an even column; an odd
    column has a zero middle row.  Row i of V is gathered from row
    min(i, d-1-i) of each block's eigenvectors, its even half scaled by
    sqrt(1/2) and its odd half by one column of +-sqrt(1/2), negative
    past the middle, so asked for rows the route makes no d x d array,
    and for the whole V no second one.

    Only the even block is solved when the odd one is its reflection
    (`_chiral_centre`): at even d, a float64 M with every diagonal entry c
    and no entry joining two sites of the same sublattice (i + j even,
    i != j) is bipartite, so its spectrum is symmetric about c (Coulson &
    Rushbrooke, Proc. Camb. Phil. Soc. 36, 193 (1940)).  There the
    sublattice sign S = diag((-1)^i) anticommutes with J (JSJ has
    (-1)^(d-1-i) = -(-1)^i on its diagonal), and the odd block is
    c - S(even - c)S, with S restricted to the first h sites.  So the odd
    block's eigenvalues are `_reflected(even_values, c)`, and its
    eigenvectors are the even block's with every odd row negated, a sign
    the gather's column carries.  One `_eigh`, or on the end-row route
    one `numpy.linalg.eigvalsh`, then serves both blocks."""
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
    chain = rows is not None and set(rows) <= {0, d - 1} and _is_chain(matrix)
    centre = _chiral_centre(matrix, chain)
    if chain:
        even_values = np.linalg.eigvalsh(even)
        odd_values = (np.linalg.eigvalsh(top - folded) if centre is None
                      else _reflected(even_values, centre))
        ends = _end_rows(np.diagonal(matrix, 1), rows, even_values, odd_values)
        if ends is not None:
            return ends
    i = np.arange(d) if rows is None else np.asarray(rows)
    k = np.minimum(i, d - 1 - i)  # row d-1-k mirrors row k, odd half negated
    middle = k == h  # the middle row of an odd d: unscaled, zero in the odd half
    r = math.sqrt(0.5)
    scale = np.where(i < h, r, -r)[:, None]
    even_values, even_vectors = _eigh(even)
    if centre is None:
        odd_values, odd_vectors = _eigh(top - folded)
    else:  # S y: the even block's vectors, the odd sublattice negated by its scale
        odd_values, odd_vectors = _reflected(even_values, centre), even_vectors
        scale[k % 2 == 1] *= -1.0
    vectors = np.empty((i.size, d), dtype=matrix.dtype)
    np.multiply(even_vectors[k], r, out=vectors[:, : d - h])
    np.multiply(odd_vectors.take(k, axis=0, mode="clip"), scale, out=vectors[:, d - h :])
    vectors[middle, : d - h] = even_vectors[k[middle]]
    vectors[middle, d - h :] = 0.0
    return np.concatenate((even_values, odd_values)), vectors


def _is_chain(matrix: np.ndarray) -> bool:
    """True for a float64 tridiagonal matrix with every bond nonzero,
    checked without a d x d temporary: the d-1 bonds above the diagonal
    and their mirrors below it are its only off-diagonal nonzeros."""
    d = matrix.shape[0]
    return (matrix.dtype == np.float64 and bool(np.diagonal(matrix, 1).all())
            and np.count_nonzero(matrix)
            == 2 * (d - 1) + np.count_nonzero(np.diagonal(matrix)))


def _chiral_centre(matrix: np.ndarray, tridiagonal: bool) -> float | None:
    """c when the mirror-symmetric `matrix` is float64 of even size, with
    every diagonal entry c and no nonzero entry joining two sites of the
    same sublattice (i + j even, i != j); None otherwise.  Mirror symmetry
    carries row and column 2k onto d-1-2k, which is odd at even d, so the
    even sites' submatrix M[::2, ::2] = c I settles both sublattices; on a
    `tridiagonal` matrix only its diagonal is read, O(d)."""
    d = matrix.shape[0]
    if d % 2 or matrix.dtype != np.float64:
        return None
    c = matrix[0, 0]
    same = matrix[::2, ::2]
    diagonal = np.diagonal(same)
    if not (diagonal == c).all():  # NaN fails too
        return None
    if not tridiagonal and np.count_nonzero(same) != np.count_nonzero(diagonal):
        return None
    return float(c)


def _reflected(values: np.ndarray, centre: float) -> np.ndarray:
    """2c - values, element by element and in the same order, as
    c - (value - c), which overflows only where the reflected value itself
    does (to +-inf, without a numpy warning; every caller refuses an
    infinite eigenvalue); exactly -values at c = 0."""
    with np.errstate(over="ignore"):
        return centre - (values - centre)


def _end_rows(bonds: np.ndarray, rows, even_values: np.ndarray,
              odd_values: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """(eigenvalues, rows 0 and d-1 of V as `rows` asks for them) of a
    mirror-symmetric chain with nonzero bonds J, in block order, even
    block first, from the eigenvalues of its even and odd parity blocks
    alone, or None when they are not certified.

    For a tridiagonal matrix with nonzero bonds, V[0,k] V[d-1,k] =
    prod J / prod_{j != k} (lambda_k - lambda_j) (de Boor & Golub, Linear
    Algebra Appl. 21, 245 (1978)), and on a mirror-symmetric one
    V[d-1,k] = +V[0,k] for a column of the even block and -V[0,k] for
    one of the odd block.  So s_k = V[0,k]^2 = exp(sum log|J| -
    sum_{j != k} log|lambda_k - lambda_j|), the differences taken 64 rows
    at a time and scaled by a power of two near max |J|, which is exact,
    so the logs stay small whatever the chain's scale.  Each block's
    eigenvectors are orthonormal, so the s_k of each parity sum to 1/2.
    When both do within EIG_RTOL they are rescaled to 1/2 exactly, and
    row 0 is sqrt(s) and row d-1 is +-sqrt(s); otherwise (close pairs
    of levels, which the logs resolve poorly) the caller solves for the
    eigenvectors."""
    d = bonds.size + 1
    values = np.concatenate((even_values, odd_values))
    shift = -math.frexp(float(np.abs(bonds).max()))[1]
    # an overflowing or coinciding level gives an inf or NaN weight, which
    # fails the certificate below
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        scaled = np.ldexp(values, shift)
        logs = np.empty(d)
        for start in range(0, d, 64):
            block = np.abs(np.subtract.outer(scaled[start : start + 64], scaled))
            block.reshape(-1)[start :: d + 1] = 1.0  # drop j = k: log 1 = 0
            logs[start : start + 64] = np.log(block, out=block).sum(axis=1)
        weights = np.exp(np.log(np.abs(np.ldexp(bonds, shift))).sum() - logs)
    halves = weights[: even_values.size], weights[even_values.size :]
    sums = [float(half.sum()) for half in halves]
    if not all(abs(total - 0.5) <= EIG_RTOL for total in sums):
        return None
    for half, total in zip(halves, sums):
        half *= 0.5 / total
    top = np.sqrt(weights)
    bottom = np.concatenate((top[: even_values.size], -top[even_values.size :]))
    return values, np.where((np.asarray(rows) == 0)[:, None], top, bottom)


def hermitian_eig(operator: Operator) -> EigenSystem:
    """Ascending eigenvalues of a hermitian operator, with their residual.

    The solver's eigenvectors V are checked, then dropped, and its values
    sorted, the only sort of eigenvalues in this module: ArithmeticError
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
    return EigenSystem(values=np.sort(values, kind="stable"), residual=residual)


def _evolution_factors(hamiltonian: Operator, times,
                       rows=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(V, eigenvalues, times as float64) behind exp(-i H t), in
    `_hermitian_solve`'s order, after every check `evolution_phases`
    documents; with `rows`, a sequence of row indices, V[rows] in place
    of V, which the parity solve builds without forming V, or, for a
    chain's two end rows, from its spectrum alone (see
    `_hermitian_solve`).  When every time is zero no eigensolve is made:
    V is the identity (or its rows) and the values are zeros, so every
    phase angle lambda_k t is exactly 0."""
    if hamiltonian.tag != HERMITIAN:
        raise NonHermitianInputError("time evolution requires a hermitian-tagged operator")
    times = require_reals(times, "evolution times")
    d = hamiltonian.dim
    if not times.any():
        vectors = np.eye(d, dtype=hamiltonian.matrix.dtype)
        return vectors if rows is None else vectors[list(rows)], np.zeros(d), times
    values, vectors = _hermitian_solve(hamiltonian.matrix, rows)
    # Python floats: an overflowing product becomes inf without a numpy warning
    scale = float(abs(values).max()) * float(abs(times).max())
    if not math.isfinite(scale):
        raise InvalidConfigError(f"evolution phases overflow: max |lambda| * max |t| = {scale}")
    return vectors, values, times


def evolution_phases(hamiltonian: Operator, times) -> tuple[np.ndarray, np.ndarray]:
    """Spectral factors of exp(-i H t) = V diag(phases) V^dag.

    Returns (V, phases), where phases has shape times.shape + (d,) and V
    has H's dtype; the eigenvalues behind V's columns and the phases'
    last axis ascend, except on a split mirror-symmetric H, where they
    come in parity blocks (see `_hermitian_solve`).  Raises
    NonHermitianInputError unless H is tagged hermitian, and
    InvalidConfigError (a ValueError) for a complex or non-finite time or
    an overflowing max |lambda| * max |t|.  When every time is zero no
    eigensolve is made: V is the identity, the eigenvalues are taken as
    zeros and every phase is exp(-i 0) = 1 - 0j, so the propagator is
    exactly the identity.
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
