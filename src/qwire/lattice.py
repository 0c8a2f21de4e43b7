"""Tight-binding ring and line chains: Hamiltonian builders, the closed-form
dispersion E_j = E0 - 2A cos(k_j b), and the ring position spread."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BadCouplingCountError, InvalidConfigError, NonHermitianInputError
from .errors import require_dim, require_real, require_reals
from .numerics import Operator, StateVector, hermitian_eig

RING = "ring"
LINE = "line"


@dataclass(frozen=True)
class ChainSpec:
    """Chain description: size, topology, on-site energy, and one coupling
    per bond (d-1 bonds on a line, d on a ring); E0 and the couplings must
    be finite reals and are kept as Python floats."""

    d: int
    topology: str
    E0: float
    couplings: tuple[float, ...]

    def __post_init__(self) -> None:
        require_dim(self.d)
        if self.topology not in (RING, LINE):
            raise InvalidConfigError(f"topology must be 'ring' or 'line', got {self.topology!r}")
        couplings = tuple(require_reals(self.couplings, "couplings", ndim=1).tolist())
        expected = self.d if self.topology == RING else self.d - 1
        if len(couplings) != expected:
            raise BadCouplingCountError(
                f"{self.topology} chain with d={self.d} needs {expected} couplings, "
                f"got {len(couplings)}"
            )
        object.__setattr__(self, "E0", require_real(self.E0, "E0"))
        object.__setattr__(self, "couplings", couplings)

    @property
    def is_uniform(self) -> bool:
        return len(set(self.couplings)) == 1


def uniform_chain(d: int, topology: str, E0: float = 0.0, A: float = 1.0) -> ChainSpec:
    """ChainSpec with every bond set to the same amplitude A."""
    require_dim(d)  # before d sizes the coupling tuple
    n_bonds = d if topology == RING else d - 1
    return ChainSpec(d=d, topology=topology, E0=E0, couplings=(A,) * n_bonds)


def _line_matrix(d: int, E0: float, couplings) -> np.ndarray:
    """Fresh d x d float64 matrix with E0 on the diagonal and -A_l on both
    entries of bond l, for the first d-1 couplings.

    One float goes to each entry and to its mirror, so the matrix is
    exactly symmetric, and finite whenever E0 and the couplings are."""
    h = np.zeros((d, d))
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
        corner = float(h[0, d - 1]) - spec.couplings[d - 1]
        if not math.isfinite(corner):
            raise NonHermitianInputError(
                f"ring bonds {spec.couplings} sum to a non-finite corner entry {corner!r}"
            )
        h[0, d - 1] = h[d - 1, 0] = corner
    return Operator._certified(h)


def wave_numbers(topology: str, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Mode labels j and wave numbers k_j b of a d-site chain.

    Ring: k_j b = 2*pi*j/d for j = 0..d-1; line: k_j b = pi*j/(d+1) for
    j = 1..d.
    """
    require_dim(d)
    if topology == RING:
        j = np.arange(d)
        return j, 2 * np.pi * j / d
    if topology == LINE:
        j = np.arange(1, d + 1)
        return j, np.pi * j / (d + 1)
    raise InvalidConfigError(f"topology must be 'ring' or 'line', got {topology!r}")


def dispersion(topology: str, d: int, E0: float, A: float) -> np.ndarray:
    """Closed-form single-particle energies E_j = E0 - 2A cos(k_j b) at the
    wave numbers of `wave_numbers`, in j order (not sorted).  The chain's
    own rules refuse d, the topology, E0 and A as `ChainSpec` does, and
    InvalidConfigError is raised when the band edge |E0| + 2|A| max|cos k_j b|
    overflows: |E0| + 2|A| on a ring, |E0| + 2|A| cos(pi/(d+1)) on a line."""
    return _band(uniform_chain(d, topology, E0, A))[2]


def _band(spec: ChainSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(j, k_j b, E_j) of a uniform chain, as `wave_numbers` and
    `dispersion` give them."""
    E0, A = spec.E0, spec.couplings[0]
    j, kb = wave_numbers(spec.topology, spec.d)
    cosines = np.cos(kb)
    reach = float(np.abs(cosines).max())
    # Python floats: an overflowing sum becomes inf without a numpy warning;
    # 2 * (A * cos) is 2A cos wherever it is finite, and no energy exceeds the edge
    if not math.isfinite(abs(E0) + 2 * (abs(A) * reach)):
        raise InvalidConfigError(
            f"band edge |E0| + 2|A| max|cos k_j b| overflows: E0={E0!r}, A={A!r}")
    return j, kb, E0 - 2 * (A * cosines)


def _modes(spec: ChainSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(j, k_j b, E_j, eigenvalue) for each mode of a uniform chain, in j
    order: the closed-form energy beside the eigenvalue of the built
    Hamiltonian that has its rank (a stable sort of the energies, so the
    first of two equal energies takes the lower eigenvalue)."""
    if not spec.is_uniform:
        raise InvalidConfigError("dispersion_check requires uniform couplings")
    j, kb, energies = _band(spec)  # refuses an overflowing band before any build
    eigenvalues = hermitian_eig(build_hamiltonian(spec)).values
    matched = np.empty_like(eigenvalues)
    matched[np.argsort(energies, kind="stable")] = eigenvalues
    return j, kb, energies, matched


def dispersion_check(spec: ChainSpec) -> float:
    """Max deviation between each closed-form energy and the eigenvalue of
    the built Hamiltonian of the same rank (uniform couplings only)."""
    _, _, energies, matched = _modes(spec)
    return float(np.max(np.abs(energies - matched)))


def ring_position_spread(state: StateVector) -> float:
    """Standard deviation of the ring coordinate q_l = 2*pi*l/d under the
    state's site probabilities (unit norm, as StateVector certifies)."""
    probabilities = np.abs(state.amplitudes) ** 2
    coords = 2 * np.pi * np.arange(state.dim) / state.dim
    mean = float(np.dot(probabilities, coords))
    variance = float(np.dot(probabilities, (coords - mean) ** 2))
    return float(np.sqrt(variance))
