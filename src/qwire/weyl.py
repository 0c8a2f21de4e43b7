"""Cyclic shift / clock pair, momentum basis, and the equidistant-spectrum
Hamiltonian whose one-step evolution reproduces the shift."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import (
    DimensionMismatchError,
    DimensionTooSmallError,
    NotProportionalError,
    ZeroThetaError,
)
from .numerics import HERMITIAN, UNITARY, Operator, evolve, max_abs

COMMUTATION_ATOL = 1e-12
IDENTITY_ATOL = 1e-10


def _require_dim(d: int) -> None:
    if d < 2:
        raise DimensionTooSmallError(f"dimension must be >= 2, got {d}")


def shift_matrix(d: int) -> Operator:
    """Cyclic shift |l> -> |l+1 mod d>: ones on the subdiagonal plus corner."""
    _require_dim(d)
    return Operator(np.roll(np.eye(d, dtype=complex), 1, axis=0), tag=UNITARY)


def clock_matrix(d: int) -> Operator:
    """Diagonal phase ramp |l> -> exp(2*pi*i*l/d) |l>."""
    _require_dim(d)
    return Operator(np.diag(np.exp(2j * np.pi * np.arange(d) / d)), tag=UNITARY)


def commutation_phase(u: Operator, v: Operator) -> complex:
    """Scalar lambda with U V = lambda V U, measured from the matrices.

    Both operators must be tagged unitary (the tag certifies
    max |M^dag M - I| <= 1e-10 with NaN and inf failing); ValueError is
    raised otherwise, even for a unitary matrix tagged GENERAL.
    NotProportionalError is raised if no scalar relates the two products
    within 1e-12 entrywise.
    """
    if u.dim != v.dim:
        raise DimensionMismatchError(f"operator dims differ: {u.dim} vs {v.dim}")
    for name, op in (("U", u), ("V", v)):
        if op.tag != UNITARY:
            raise ValueError(f"{name} must be a unitary-tagged operator, got {op.tag!r}")
    uv = u.matrix @ v.matrix
    vu = v.matrix @ u.matrix
    pivot = np.unravel_index(np.argmax(np.abs(vu)), vu.shape)
    if abs(vu[pivot]) == 0.0:
        raise NotProportionalError("V U is the zero matrix")
    lam = complex(uv[pivot] / vu[pivot])
    residual = max_abs(uv - lam * vu)
    if not residual <= COMMUTATION_ATOL:
        raise NotProportionalError(
            f"U V and V U are not proportional: residual {residual:.3e}"
        )
    return lam


def momentum_basis(d: int) -> Operator:
    """Unitary whose column j is the shift eigenvector with eigenvalue
    exp(2*pi*i*j/d); entries exp(-2*pi*i*l*j/d)/sqrt(d)."""
    _require_dim(d)
    l = np.arange(d)
    return Operator(np.exp(-2j * np.pi * np.outer(l, l) / d) / np.sqrt(d), tag=UNITARY)


def equidistant_hamiltonian(d: int, theta: float, hbar: float = 1.0) -> Operator:
    """Position-basis Hamiltonian with spectrum {0, hbar*theta, ...,
    (d-1)*hbar*theta} on the momentum eigenvectors.

    Built on the conjugate plane-wave basis (momentum column (d-j) mod d
    carries eigenvalue hbar*theta*j), which is the pairing that makes
    exp(-i H dt / hbar) at dt = 2*pi/(theta*d) coincide with the cyclic
    up-shift.  All off-diagonal entries are nonzero: every pair of sites
    acquires a direct transition amplitude.
    """
    _require_dim(d)
    if not 0 < abs(theta) < math.inf:  # negative theta is allowed
        raise ZeroThetaError(f"theta must be nonzero and finite, got {theta!r}")
    plane_waves = momentum_basis(d).matrix.conj()
    levels = hbar * theta * np.arange(d, dtype=float)
    h = (plane_waves * levels) @ plane_waves.conj().T
    return Operator((h + h.conj().T) / 2, tag=HERMITIAN)


def time_step(d: int, theta: float) -> float:
    """Step 2*pi/(theta*d) after which the equidistant evolution is a shift."""
    _require_dim(d)
    if not 0 < theta < math.inf:
        raise ZeroThetaError(f"theta must be positive and finite, got {theta!r}")
    return 2 * np.pi / (theta * d)


class ShiftIdentityResult(NamedTuple):
    holds: bool
    global_phase: complex
    residual: float


def verify_shift_identity(d: int, theta: float) -> ShiftIdentityResult:
    """Check that one time step of the equidistant Hamiltonian is the
    cyclic shift, up to one global phase.

    The phase is read off at the largest-magnitude entry over the shift's
    support; holds is true when the max residual is <= 1e-10.
    """
    dt = time_step(d, theta)
    evolved = evolve(equidistant_hamiltonian(d, theta), dt).matrix
    target = shift_matrix(d).matrix
    support = np.abs(target) > 0.5
    masked = np.where(support, np.abs(evolved), 0.0)
    pivot = np.unravel_index(np.argmax(masked), masked.shape)
    ratio = evolved[pivot] / target[pivot]
    phase = complex(ratio / abs(ratio)) if abs(ratio) > 0 else 1.0 + 0j
    residual = max_abs(evolved - phase * target)
    return ShiftIdentityResult(residual <= IDENTITY_ATOL, phase, float(residual))


@dataclass(frozen=True)
class WeylPair:
    """The (shift, clock) pair for dimension d with its measured
    commutation phase, validated at construction: both operators have
    order d and the phase is a primitive d-th root of unity.  The
    certification residuals max |U^d - I|, max |V^d - I| and
    max |U V - lambda V U| are kept on the pair."""

    dim: int
    shift: Operator
    clock: Operator
    commutation_phase: complex
    shift_pow_residual: float = field(init=False)
    clock_pow_residual: float = field(init=False)
    commutation_residual: float = field(init=False)

    def __post_init__(self) -> None:
        eye = np.eye(self.dim)
        for name, op in (("shift", self.shift), ("clock", self.clock)):
            if op.dim != self.dim:
                raise DimensionMismatchError(f"{name} dim {op.dim} != {self.dim}")
            dev = max_abs(np.linalg.matrix_power(op.matrix, self.dim) - eye)
            if not dev <= IDENTITY_ATOL:  # NaN fails too
                raise ValueError(f"{name}^d deviates from identity by {dev:.3e}")
            object.__setattr__(self, f"{name}_pow_residual", dev)
        lam = self.commutation_phase
        if abs(abs(lam) - 1.0) > COMMUTATION_ATOL:
            raise ValueError(f"commutation phase must be unit modulus, got {lam!r}")
        residual = max_abs(
            self.shift.matrix @ self.clock.matrix
            - lam * self.clock.matrix @ self.shift.matrix
        )
        if not residual <= COMMUTATION_ATOL:
            raise ValueError(f"commutation relation residual {residual:.3e}")
        object.__setattr__(self, "commutation_residual", residual)
        powers = lam ** np.arange(1, self.dim)
        if np.any(np.abs(powers - 1.0) <= COMMUTATION_ATOL):
            raise ValueError("commutation phase is not a primitive d-th root of unity")
        if abs(lam**self.dim - 1.0) > COMMUTATION_ATOL * self.dim:
            raise ValueError("commutation phase is not a d-th root of unity")


def weyl_pair(d: int) -> WeylPair:
    """Construct and certify the shift/clock pair for dimension d."""
    _require_dim(d)
    u = shift_matrix(d)
    v = clock_matrix(d)
    return WeylPair(dim=d, shift=u, clock=v, commutation_phase=commutation_phase(u, v))
