"""Tight-binding ring and line chains: Hamiltonian builders, the closed-form
dispersion E_j = E0 - 2A cos(k_j b), and the ring position spread."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BadCouplingCountError, DimensionTooSmallError, NonHermitianInputError
from .numerics import HERMITIAN, Operator, StateVector, hermitian_eig

RING = "ring"
LINE = "line"


@dataclass(frozen=True)
class ChainSpec:
    """Chain description: size, topology, on-site energy, and one coupling
    per bond (d-1 bonds on a line, d on a ring)."""

    d: int
    topology: str
    E0: float
    couplings: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.d < 2:
            raise DimensionTooSmallError(f"chain needs d >= 2, got {self.d}")
        if self.topology not in (RING, LINE):
            raise ValueError(f"topology must be 'ring' or 'line', got {self.topology!r}")
        # numpy complex scalars convert to float with a warning; refuse them
        if np.iscomplexobj(self.couplings):
            raise ValueError(f"couplings must be real, got {self.couplings!r}")
        couplings = tuple(map(float, self.couplings))
        expected = self.d if self.topology == RING else self.d - 1
        if len(couplings) != expected:
            raise BadCouplingCountError(
                f"{self.topology} chain with d={self.d} needs {expected} couplings, "
                f"got {len(couplings)}"
            )
        if not all(map(math.isfinite, couplings)):
            raise ValueError("couplings must be finite")
        if np.iscomplexobj(self.E0) or not math.isfinite(self.E0):
            raise ValueError(f"E0 must be finite and real, got {self.E0!r}")
        object.__setattr__(self, "couplings", couplings)

    @property
    def is_uniform(self) -> bool:
        return len(set(self.couplings)) == 1


def uniform_chain(d: int, topology: str, E0: float = 0.0, A: float = 1.0) -> ChainSpec:
    """ChainSpec with every bond set to the same amplitude A."""
    n_bonds = d if topology == RING else d - 1
    return ChainSpec(d=d, topology=topology, E0=E0, couplings=(A,) * max(n_bonds, 0))


def _line_matrix(d: int, E0: float, couplings) -> np.ndarray:
    """Fresh d x d complex matrix with E0 on the diagonal and -A_l on both
    entries of bond l, for the first d-1 couplings.

    One real float goes to each entry and to its mirror, so the matrix is
    exactly hermitian, and finite whenever E0 and the couplings are."""
    h = np.zeros((d, d), dtype=complex)
    flat = h.reshape(-1)  # a view: strided writes fill whole diagonals
    flat[:: d + 1] = E0
    # 0.0 - A, as adding into the zero matrix gives: a zero coupling stays +0.0
    hopping = np.subtract(0.0, couplings[: d - 1])
    flat[1 :: d + 1] = hopping  # h[l, l+1]
    flat[d :: d + 1] = hopping  # h[l+1, l]
    return h


def build_hamiltonian(spec: ChainSpec) -> Operator:
    """Nearest-neighbor Hamiltonian: E0 on the diagonal, -A_l on bond l.

    Lines are tridiagonal; rings add the wraparound corner (for d=2 the
    two ring bonds share one matrix element and accumulate).  ChainSpec
    certifies finite E0 and couplings, so the matrix is hermitian and
    finite by construction; only a d=2 ring's sum of two bonds can
    overflow, and NonHermitianInputError is raised for it.
    """
    d = spec.d
    h = _line_matrix(d, spec.E0, spec.couplings)
    if spec.topology == RING:
        # Python floats: an overflowing sum becomes inf without a numpy warning
        corner = float(h[0, d - 1].real) - spec.couplings[d - 1]
        if not math.isfinite(corner):
            raise NonHermitianInputError(
                f"ring bonds {spec.couplings} sum to a non-finite corner entry {corner!r}"
            )
        h[0, d - 1] = h[d - 1, 0] = corner
    return Operator._certified(h, HERMITIAN)


def wave_numbers(topology: str, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Mode labels j and wave numbers k_j b of a d-site chain.

    Ring: k_j b = 2*pi*j/d for j = 0..d-1; line: k_j b = pi*j/(d+1) for
    j = 1..d.
    """
    if d < 2:
        raise DimensionTooSmallError(f"dispersion needs d >= 2, got {d}")
    if topology == RING:
        j = np.arange(d)
        return j, 2 * np.pi * j / d
    if topology == LINE:
        j = np.arange(1, d + 1)
        return j, np.pi * j / (d + 1)
    raise ValueError(f"topology must be 'ring' or 'line', got {topology!r}")


def dispersion(topology: str, d: int, E0: float, A: float) -> np.ndarray:
    """Closed-form single-particle energies E_j = E0 - 2A cos(k_j b) at the
    wave numbers of `wave_numbers`, in j order (not sorted)."""
    _, kb = wave_numbers(topology, d)
    return E0 - 2 * A * np.cos(kb)


def dispersion_check(spec: ChainSpec) -> float:
    """Max deviation between the eigenvalues of the built Hamiltonian and
    the closed-form dispersion, both sorted (uniform couplings only)."""
    if not spec.is_uniform:
        raise ValueError("dispersion_check requires uniform couplings")
    eigensystem = hermitian_eig(build_hamiltonian(spec))
    closed_form = np.sort(dispersion(spec.topology, spec.d, spec.E0, spec.couplings[0]))
    return float(np.max(np.abs(eigensystem.values - closed_form)))


def ring_position_spread(state: StateVector) -> float:
    """Standard deviation of the ring coordinate q_l = 2*pi*l/d under the
    state's site probabilities.  StateVector re-certifies the unit norm,
    which a vector from `apply` need not have: any other norm, NaN and
    inf included, raises NotNormalizedError."""
    state = StateVector(state.amplitudes)
    probabilities = np.abs(state.amplitudes) ** 2
    coords = 2 * np.pi * np.arange(state.dim) / state.dim
    mean = float(np.dot(probabilities, coords))
    variance = float(np.dot(probabilities, (coords - mean) ** 2))
    return float(np.sqrt(variance))
