"""Cyclic shift / clock pair, momentum basis, and the equidistant-spectrum
Hamiltonian whose one-step evolution reproduces the shift."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import (
    DimensionMismatchError,
    InvalidConfigError,
    NotProportionalError,
    ZeroThetaError,
    require_dim,
    require_real,
)
from .numerics import HERMITIAN, UNITARY, Operator, evolve, max_abs

COMMUTATION_ATOL = 1e-12
IDENTITY_ATOL = 1e-10


def shift_matrix(d: int) -> Operator:
    """Cyclic shift |l> -> |l+1 mod d>: ones on the subdiagonal plus corner."""
    require_dim(d)
    return Operator(np.roll(np.eye(d), 1, axis=0), tag=UNITARY)


def clock_matrix(d: int) -> Operator:
    """Diagonal phase ramp |l> -> exp(2*pi*i*l/d) |l>."""
    require_dim(d)
    return Operator(np.diag(np.exp(2j * np.pi * np.arange(d) / d)), tag=UNITARY)


def _proportionality(u: np.ndarray, v: np.ndarray) -> tuple[complex, float]:
    """(lambda, max |U V - lambda V U|) from one product each way, lambda
    read off at the largest entry of V U; NotProportionalError unless the
    residual is <= 1e-12 (NaN fails too).  Both callers pass invertible
    U and V (unitary-tagged, or of certified order d), so V U is never
    the zero matrix."""
    uv = u @ v
    vu = v @ u
    pivot = np.unravel_index(np.argmax(np.abs(vu)), vu.shape)
    lam = complex(uv[pivot] / vu[pivot])
    residual = max_abs(uv - lam * vu)
    if not residual <= COMMUTATION_ATOL:
        raise NotProportionalError(
            f"U V and V U are not proportional: residual {residual:.3e}"
        )
    return lam, residual


def commutation_phase(u: Operator, v: Operator) -> complex:
    """Scalar lambda with U V = lambda V U, measured from the matrices.

    Both operators must be tagged unitary (the tag certifies
    max |M^dag M - I| <= 1e-10 with NaN and inf failing); InvalidConfigError
    (a ValueError) is raised otherwise, even for a unitary matrix tagged GENERAL.
    NotProportionalError is raised if no scalar relates the two products
    within 1e-12 entrywise.
    """
    if u.dim != v.dim:
        raise DimensionMismatchError(f"operator dims differ: {u.dim} vs {v.dim}")
    for name, op in (("U", u), ("V", v)):
        if op.tag != UNITARY:
            raise InvalidConfigError(f"{name} must be a unitary-tagged operator, got {op.tag!r}")
    return _proportionality(u.matrix, v.matrix)[0]


def momentum_basis(d: int) -> Operator:
    """Unitary whose column j is the shift eigenvector with eigenvalue
    exp(2*pi*i*j/d); entries exp(-2*pi*i*l*j/d)/sqrt(d)."""
    require_dim(d)
    l = np.arange(d)
    return Operator(np.exp(-2j * np.pi * np.outer(l, l) / d) / np.sqrt(d), tag=UNITARY)


def equidistant_hamiltonian(d: int, theta: float) -> Operator:
    """Position-basis Hamiltonian with spectrum {0, theta, ...,
    (d-1)*theta} on the momentum eigenvectors.

    Built on the conjugate plane-wave basis (momentum column (d-j) mod d
    carries eigenvalue theta*j), which is the pairing that makes
    exp(-i H dt) at dt = 2*pi/(theta*d) coincide with the cyclic
    up-shift.  All off-diagonal entries are nonzero: every pair of sites
    acquires a direct transition amplitude.  Raises ZeroThetaError for a
    complex, zero or non-finite theta or a top level (d-1)*theta that
    overflows.
    """
    d = require_dim(d)
    # real first: the symmetrization below would hide complex levels
    theta = require_real(theta, "theta", ZeroThetaError)
    if theta == 0:  # negative theta is allowed
        raise ZeroThetaError(f"theta must be nonzero, got {theta!r}")
    if not math.isfinite(theta * (d - 1)):
        raise ZeroThetaError(f"top level (d-1)*theta overflows: theta={theta!r}, d={d}")
    plane_waves = momentum_basis(d).matrix.conj()
    levels = theta * np.arange(d, dtype=float)
    h = (plane_waves * levels) @ plane_waves.conj().T
    return Operator((h + h.conj().T) / 2, tag=HERMITIAN)


def time_step(d: int, theta: float) -> float:
    """Step 2*pi/(theta*d) after which the equidistant evolution is a shift.

    ZeroThetaError is raised unless theta is real, 0 < theta < inf and
    the step is a finite nonzero number (theta*d must not overflow)."""
    d = require_dim(d)
    theta = require_real(theta, "theta", ZeroThetaError, positive=True)
    step = 2 * math.pi / (theta * d)
    if not 0 < step < math.inf:
        raise ZeroThetaError(f"theta = {theta!r} gives no finite nonzero time step at d = {d}")
    return step


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
    """The (shift, clock) pair for dimension d = shift.dim, validated at
    construction: the clock has the same dimension, both operators have
    order d, and the phase lambda of U V = lambda V U, measured there
    from one product each way, is a primitive d-th root of unity.  The
    phase and the residuals max |U^d - I|, max |V^d - I| and
    max |U V - lambda V U| are kept on the pair.  A pair that fails is
    refused with DimensionMismatchError, NotProportionalError or
    InvalidConfigError (a ValueError)."""

    shift: Operator
    clock: Operator
    commutation_phase: complex = field(init=False)
    dim: int = field(init=False)
    shift_pow_residual: float = field(init=False)
    clock_pow_residual: float = field(init=False)
    commutation_residual: float = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "dim", self.shift.dim)
        if self.clock.dim != self.dim:
            raise DimensionMismatchError(f"clock dim {self.clock.dim} != shift dim {self.dim}")
        eye = np.eye(self.dim)
        for name, op in (("shift", self.shift), ("clock", self.clock)):
            dev = max_abs(np.linalg.matrix_power(op.matrix, self.dim) - eye)
            if not dev <= IDENTITY_ATOL:  # NaN fails too
                raise InvalidConfigError(f"{name}^d deviates from identity by {dev:.3e}")
            object.__setattr__(self, f"{name}_pow_residual", dev)
        lam, residual = _proportionality(self.shift.matrix, self.clock.matrix)
        object.__setattr__(self, "commutation_phase", lam)
        object.__setattr__(self, "commutation_residual", residual)
        if abs(abs(lam) - 1.0) > COMMUTATION_ATOL:
            raise InvalidConfigError(f"commutation phase must be unit modulus, got {lam!r}")
        powers = lam ** np.arange(1, self.dim)
        if np.any(np.abs(powers - 1.0) <= COMMUTATION_ATOL):
            raise InvalidConfigError("commutation phase is not a primitive d-th root of unity")
        if abs(lam**self.dim - 1.0) > COMMUTATION_ATOL * self.dim:
            raise InvalidConfigError("commutation phase is not a d-th root of unity")


def weyl_pair(d: int) -> WeylPair:
    """Construct and certify the shift/clock pair for dimension d."""
    return WeylPair(shift=shift_matrix(d), clock=clock_matrix(d))  # raises for d < 2
