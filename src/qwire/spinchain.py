"""Multi-qubit layer: ladder operators, the XY exchange chain on 2^n
states, and its single-excitation reduction to an n-site hopping matrix.

Basis convention is big-endian: site 0 is the most significant bit, so
the basis state with only site k excited has index 2^(n-1-k).  The XY
chain conserves total excitation number, which is what makes the n of
2^n dimensions carrying one excitation a closed sector.

The chain and the number operator are built by bit arithmetic on basis
indices: a bond swaps the bits of its two sites where they differ, and
the excitation number is the popcount of the index.  The Kronecker
products of the ladder operators remain only as the small-n oracle
behind `ladder_algebra_check`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from typing import NamedTuple

import numpy as np

from .errors import (
    DimensionMismatchError,
    IndexOutOfRangeError,
    NonHermitianInputError,
    RegisterTooLargeError,
)
from .numerics import GENERAL, HERMITIAN, Operator, max_abs

MAX_QUBITS = 12  # dense 4096 x 4096 is the desk-scale ceiling

LADDER_ATOL = 1e-14

_LOWER = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)  # a|1> = |0>, a|0> = 0
_EYE2 = np.eye(2, dtype=complex)


@dataclass(frozen=True)
class QubitRegister:
    """n qubits spanning 2^n basis states (n capped at 12)."""

    n: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"register needs n >= 1, got {self.n}")
        if self.n > MAX_QUBITS:
            raise RegisterTooLargeError(f"n = {self.n} exceeds cap {MAX_QUBITS}")

    @property
    def dim(self) -> int:
        return 2**self.n


@dataclass(frozen=True)
class SectorMap:
    """Basis indices of the n single-excitation states, ordered by the
    excited site's position."""

    n: int
    indices: tuple[int, ...]

    def __post_init__(self) -> None:
        expected = tuple(2 ** (self.n - 1 - k) for k in range(self.n))
        if tuple(self.indices) != expected:
            raise ValueError(f"sector indices must be {expected}, got {self.indices}")
        object.__setattr__(self, "indices", expected)


def sector_map(n: int) -> SectorMap:
    """SectorMap for an n-qubit register under the big-endian convention."""
    register = QubitRegister(n)
    return SectorMap(n=register.n, indices=tuple(2 ** (n - 1 - k) for k in range(n)))


def lowering_operator(n: int, site: int) -> Operator:
    """Annihilation operator on one site of an n-qubit register."""
    register = QubitRegister(n)
    if not 0 <= site < register.n:
        raise IndexOutOfRangeError(f"site {site} outside register of {n} qubits")
    factors = [_LOWER if k == site else _EYE2 for k in range(n)]
    return Operator(reduce(np.kron, factors), tag=GENERAL)


def ladder_algebra_check(n: int, site: int) -> bool:
    """Verify a^2 = 0, (a^dag)^2 = 0 and a a^dag + a^dag a = 1 on the full
    register; the relations are exact in floating point."""
    a = lowering_operator(n, site).matrix
    a_dag = a.conj().T
    eye = np.eye(2**n)
    return (
        max_abs(a @ a) <= LADDER_ATOL
        and max_abs(a_dag @ a_dag) <= LADDER_ATOL
        and max_abs(a @ a_dag + a_dag @ a - eye) <= LADDER_ATOL
    )


def xy_chain_hamiltonian(couplings) -> Operator:
    """Exchange chain sum_j A_j (a^dag_j a_{j+1} + a^dag_{j+1} a_j) on
    2^n states, n = len(couplings) + 1.

    Couplings are energies, so the builder takes no hbar (fold any
    hbar*rate convention into the coupling values).  The result commutes
    with the total excitation number.  NonHermitianInputError is raised
    for a NaN, infinite or complex coupling; finite real couplings make
    the matrix hermitian and finite by construction.
    """
    if np.iscomplexobj(couplings):  # float() would drop the imaginary part
        raise NonHermitianInputError(f"exchange couplings must be real, got {couplings!r}")
    couplings = [float(a) for a in couplings]
    if not all(map(math.isfinite, couplings)):
        raise NonHermitianInputError(f"exchange couplings must be finite, got {couplings}")
    n = len(couplings) + 1
    index = np.arange(QubitRegister(n).dim)
    h = np.zeros((index.size, index.size), dtype=complex)
    for j, amplitude in enumerate(couplings):
        here, after = 1 << (n - 1 - j), 1 << (n - 2 - j)
        # the bond hops wherever sites j and j+1 differ: swap their bits
        hop = index[((index & here) == 0) != ((index & after) == 0)]
        h[hop ^ (here | after), hop] = amplitude  # the swap is its own mirror
    return Operator._certified(h, HERMITIAN)


def number_operator(n: int) -> Operator:
    """Total excitation number sum_j a^dag_j a_j: the popcount of each
    basis index on the diagonal."""
    index = np.arange(QubitRegister(n).dim)
    popcount = sum((index >> k) & 1 for k in range(n))
    return Operator._certified(np.diag(popcount.astype(complex)), HERMITIAN)


def single_excitation_sector(h_full: Operator, smap: SectorMap) -> Operator:
    """The n x n block of a 2^n Hamiltonian on the one-excitation states."""
    if h_full.dim != 2**smap.n:
        raise DimensionMismatchError(
            f"operator dim {h_full.dim} does not match 2^{smap.n}"
        )
    idx = np.array(smap.indices)
    block = h_full.matrix[np.ix_(idx, idx)]
    tag = HERMITIAN if h_full.tag == HERMITIAN else GENERAL
    return Operator(block, tag=tag)


class ClassicalityGap(NamedTuple):
    quantum: int
    classical: int
    gap: int


def classicality_gap(N: int) -> ClassicalityGap:
    """State-count comparison for N two-level systems: 2^N quantum basis
    states versus 2N classical arrow parameters, and their difference."""
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    if N > 62:
        raise OverflowError(f"N = {N} exceeds the exact-integer cap of 62")
    quantum = 2**N
    classical = 2 * N
    return ClassicalityGap(quantum=quantum, classical=classical, gap=quantum - classical)
