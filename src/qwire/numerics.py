"""Dense complex linear algebra kernel.

Everything downstream (shift/clock algebra, chain Hamiltonians, transfer
fidelities) is built on the three operations here: hermitian
eigendecomposition, unitary time evolution through the spectral theorem,
and matrix-vector application.

Every eigendecomposition goes through the private `_eigh`, the one
`np.linalg.eigh` call in the package, which `hermitian_eig` and
`evolution_phases` share.  When every imaginary part of the matrix is
exactly zero, a hermitian matrix is real symmetric, so `_eigh`
diagonalizes its real part in real arithmetic (LAPACK dsyevd); any other
matrix goes to the complex driver.  On a real tridiagonal matrix (every
line chain) both drivers return bit-identical eigenpairs.  Real
eigenvector columns are canonicalized by exact sign flips, and
`Operator` matrices stay complex either way.

All time evolution goes through `evolution_phases`, which checks its
input, diagonalizes H once and returns the eigenvectors V with the phases
exp(-i lambda_k t / hbar) for every requested time.  `evolve` builds the
propagator V diag(phases) V^dag from them; the transfer amplitudes in
`pst` contract the phases with V[target] * conj(V[source]) and never form
the d x d propagator.  All values are immutable after construction and
safe to share between threads.

The public `Operator` constructor copies its matrix and checks the tag.
For the hermitian tag the deviation max |M - M^dag| is computed first,
and when it is exactly 0 the relative bound needs no max |M|: a deviation
of exactly 0 also proves every entry finite, because a NaN or inf entry
makes its difference NaN or inf.  A nonzero deviation is held to the full
rule, which rejects any non-finite entry.

Four builders are hermitian and finite by construction and skip that
check through the private `Operator._certified`, which freezes their
freshly made matrix without copying or re-checking it:
`lattice.build_hamiltonian`, `pst.pst_hamiltonian`,
`spinchain.xy_chain_hamiltonian` and `spinchain.number_operator` (the
line-chain evaluator behind `optimizer` shares the lattice fill).  Each
writes one real float to an entry and to its mirror, or only real floats
to the diagonal, so M equals M^dag exactly; each rejects non-finite or
complex input up front and checks any sum or product of finite inputs
that could overflow, so every entry is finite and the real floats stay
real.  The check could not fail on them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatchError,
    NonHermitianInputError,
    NotNormalizedError,
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


def max_abs(matrix: np.ndarray) -> float:
    """Largest entry magnitude (the max norm used by all tolerances)."""
    return float(np.max(np.abs(matrix))) if matrix.size else 0.0


def _freeze(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


@dataclass(frozen=True)
class Operator:
    """Dense complex square matrix with a declared structural tag.

    The tag is verified at construction: hermitian means every entry is
    finite and max |M[i,j] - conj(M[j,i])| <= 1e-12 * (max entry
    magnitude), where a deviation of exactly 0 passes without the max
    entry magnitude being read (it already implies finite entries);
    unitary means max |M^dag M - I| <= 1e-10.  Use GENERAL when neither
    structure is claimed.
    """

    matrix: np.ndarray
    tag: str = GENERAL

    def __post_init__(self) -> None:
        m = np.array(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionMismatchError(f"operator must be square, got shape {m.shape}")
        if m.shape[0] < 1:
            raise DimensionMismatchError("operator dimension must be >= 1")
        if self.tag not in _TAGS:
            raise ValueError(f"unknown operator tag {self.tag!r}")
        if self.tag == HERMITIAN:
            dev = float(abs(m - m.conj().T).max())
            # dev == 0 implies finite entries; otherwise NaN and inf fail too
            if dev != 0 and not (
                np.isfinite(m).all() and dev <= HERMITIAN_RTOL * float(abs(m).max())
            ):
                raise NonHermitianInputError(
                    f"hermiticity violated: max |M - M^dag| = {dev:.3e}"
                )
        elif self.tag == UNITARY:
            dev = max_abs(m.conj().T @ m - np.eye(m.shape[0]))
            if not dev <= UNITARY_ATOL:
                raise ValueError(f"unitarity violated: max |M^dag M - I| = {dev:.3e}")
        object.__setattr__(self, "matrix", _freeze(m))

    @classmethod
    def _certified(cls, matrix: np.ndarray, tag: str) -> Operator:
        """Freeze a square complex matrix whose tag holds by construction,
        without copying it or checking it.  Only the builders named in the
        module docstring may call this; everything else goes through the
        checked constructor."""
        op = object.__new__(cls)
        object.__setattr__(op, "matrix", _freeze(matrix))
        object.__setattr__(op, "tag", tag)
        return op

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


class StateVector:
    """Complex amplitude vector over basis states.

    Unit norm (within 1e-10) is enforced at construction; `apply` is the
    one producer of intentionally non-normalized vectors (a non-unitary
    operator may shrink or stretch its input) and bypasses the check.
    """

    __slots__ = ("amplitudes",)

    def __init__(self, amplitudes, *, check_norm: bool = True) -> None:
        amps = np.array(amplitudes, dtype=complex).reshape(-1)
        if amps.size < 1:
            raise DimensionMismatchError("state vector must have dimension >= 1")
        if check_norm:
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
    if not 0 <= index < dim:
        raise DimensionMismatchError(f"index {index} outside dimension {dim}")
    amps = np.zeros(dim, dtype=complex)
    amps[index] = 1.0
    return StateVector(amps)


def identity(dim: int) -> Operator:
    """Identity operator (tagged unitary)."""
    return Operator(np.eye(dim, dtype=complex), tag=UNITARY)


@dataclass(frozen=True)
class EigenSystem:
    """Spectral decomposition H = V diag(values) V^dag.

    values ascend; eigenvector columns are phase-canonicalized so the
    largest-magnitude entry of each is real positive.
    """

    values: np.ndarray
    vectors: Operator = field(repr=False)

    def __post_init__(self) -> None:
        vals = np.array(self.values, dtype=float)
        if vals.ndim != 1 or vals.shape[0] != self.vectors.dim:
            raise DimensionMismatchError("eigenvalue count must match vector dimension")
        if np.any(np.diff(vals) < 0):
            raise ValueError("eigenvalues must be sorted ascending")
        object.__setattr__(self, "values", _freeze(vals))


def _canonical_phases(vectors: np.ndarray) -> np.ndarray:
    """Rotate each column so its largest-magnitude entry is real positive."""
    out = vectors.copy()
    for k in range(out.shape[1]):
        pivot = out[np.argmax(np.abs(out[:, k])), k]
        if pivot != 0:
            out[:, k] *= pivot.conjugate() / abs(pivot)
    return out


def _eigh(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(ascending eigenvalues, eigenvector columns) of a hermitian-tagged
    complex matrix, in real arithmetic when its imaginary part is all
    zero; the vectors are then a real array."""
    return np.linalg.eigh(matrix if matrix.imag.any() else matrix.real)


def hermitian_eig(operator: Operator) -> EigenSystem:
    """Eigendecomposition of a hermitian operator.

    Returns ascending eigenvalues and a unitary eigenvector matrix; the
    reconstruction residual ||H - V diag V^dag||_max is verified against
    1e-10 * max(1, ||H||_max).
    """
    if operator.tag != HERMITIAN:
        raise NonHermitianInputError("hermitian_eig requires a hermitian-tagged operator")
    values, raw = _eigh(operator.matrix)
    vectors = _canonical_phases(raw)
    residual = max_abs(operator.matrix - (vectors * values) @ vectors.conj().T)
    bound = EIG_RTOL * max(1.0, max_abs(operator.matrix))
    if residual > bound:
        raise ArithmeticError(
            f"eigendecomposition residual {residual:.3e} exceeds {bound:.3e}"
        )
    return EigenSystem(values=values, vectors=Operator(vectors, tag=UNITARY))


def evolution_phases(
    hamiltonian: Operator, times, hbar: float = 1.0
) -> tuple[np.ndarray, np.ndarray]:
    """Spectral factors of exp(-i H t / hbar) = V diag(phases) V^dag.

    Returns (V, phases), where phases has shape times.shape + (d,) and V
    is a real array when H has no nonzero imaginary part.  Raises
    NonHermitianInputError unless H is tagged hermitian, and ValueError for
    a non-finite time or an hbar outside (0, inf).  When every time is zero
    the propagator is exactly the identity, so no eigensolve is made and
    (I, ones) comes back.
    """
    if hamiltonian.tag != HERMITIAN:
        raise NonHermitianInputError("time evolution requires a hermitian-tagged operator")
    if isinstance(times, (int, float)):  # one time: the same checks on a Python float
        times = float(times)
        finite, nonzero, shape = math.isfinite(times), times != 0, ()
    else:
        times = np.asarray(times, dtype=float)
        finite, nonzero, shape = np.isfinite(times).all(), times.any(), times.shape
    if not finite:
        raise ValueError("evolution times must be finite")
    if not 0 < hbar < math.inf:
        raise ValueError(f"hbar must be positive and finite, got {hbar!r}")
    d = hamiltonian.dim
    if not nonzero:
        return np.eye(d, dtype=complex), np.ones(shape + (d,), dtype=complex)
    values, vectors = _eigh(hamiltonian.matrix)
    return vectors, np.exp(-1j * np.multiply.outer(times, values) / hbar)


def evolve(hamiltonian: Operator, t: float, hbar: float = 1.0) -> Operator:
    """Unitary time evolution exp(-i H t / hbar) via the spectral theorem."""
    vectors, phases = evolution_phases(hamiltonian, t, hbar)
    return Operator((vectors * phases) @ vectors.conj().T, tag=UNITARY)


def apply(operator: Operator, state: StateVector) -> StateVector:
    """Matrix-vector product M|v>.

    The result keeps whatever norm the product has; it is only guaranteed
    to be unit norm when M is unitary.
    """
    if operator.dim != state.dim:
        raise DimensionMismatchError(
            f"operator dim {operator.dim} does not match state dim {state.dim}"
        )
    return StateVector(operator.matrix @ state.amplitudes, check_norm=False)
