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

from dataclasses import dataclass, field
from functools import reduce
from typing import NamedTuple

import numpy as np

from .errors import (
    DimensionMismatchError,
    IndexOutOfRangeError,
    NonHermitianInputError,
    RegisterTooLargeError,
    require_integer,
    require_reals,
)
from .numerics import GENERAL, HERMITIAN, Operator, max_abs

MAX_QUBITS = 12  # dense 4096 x 4096 is the desk-scale ceiling

LADDER_ATOL = 1e-14

_LOWER = np.array([[0.0, 1.0], [0.0, 0.0]])  # a|1> = |0>, a|0> = 0
_EYE2 = np.eye(2)


@dataclass(frozen=True)
class QubitRegister:
    """n qubits spanning 2^n basis states (n capped at 12)."""

    n: int

    def __post_init__(self) -> None:
        require_integer(self.n, "n", 1)
        if self.n > MAX_QUBITS:
            raise RegisterTooLargeError(f"n = {self.n} exceeds cap {MAX_QUBITS}")

    @property
    def dim(self) -> int:
        return 2**self.n


@dataclass(frozen=True)
class SectorMap:
    """Basis indices of the single-excitation states of a valid n-qubit
    register, ordered by the excited site's position; derived at construction."""

    n: int
    indices: tuple[int, ...] = field(init=False)

    def __post_init__(self) -> None:
        QubitRegister(self.n)
        indices = tuple(2 ** (self.n - 1 - k) for k in range(self.n))
        object.__setattr__(self, "indices", indices)


def sector_map(n: int) -> SectorMap:
    """SectorMap for an n-qubit register under the big-endian convention."""
    return SectorMap(n=n)


def lowering_operator(n: int, site: int) -> Operator:
    """Annihilation operator on one site of an n-qubit register."""
    register = QubitRegister(n)
    require_integer(site, "site", 0, register.n, IndexOutOfRangeError)
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

    The result commutes with the total excitation number.
    NonHermitianInputError is raised unless couplings is a sequence of
    finite reals; those make the matrix hermitian and finite by
    construction.
    """
    couplings = require_reals(couplings, "exchange couplings", NonHermitianInputError, ndim=1)
    n = len(couplings) + 1
    index = np.arange(QubitRegister(n).dim)
    h = np.zeros((index.size, index.size))
    for j, amplitude in enumerate(couplings):
        here, after = 1 << (n - 1 - j), 1 << (n - 2 - j)
        # the bond hops wherever sites j and j+1 differ: swap their bits
        hop = index[((index & here) == 0) != ((index & after) == 0)]
        h[hop ^ (here | after), hop] = amplitude  # the swap is its own mirror
    return Operator._certified(h)


def number_operator(n: int) -> Operator:
    """Total excitation number sum_j a^dag_j a_j: the popcount of each
    basis index on the diagonal."""
    index = np.arange(QubitRegister(n).dim)
    popcount = sum((index >> k) & 1 for k in range(n))
    return Operator._certified(np.diag(popcount.astype(float)))


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
    states versus 2N classical arrow parameters, and their difference,
    for 1 <= N <= 62 (RegisterTooLargeError above that cap)."""
    N = require_integer(N, "N", 1)
    if N > 62:
        raise RegisterTooLargeError(f"N = {N} exceeds the cap of 62")
    quantum = 2**N
    classical = 2 * N
    return ClassicalityGap(quantum=quantum, classical=classical, gap=quantum - classical)
