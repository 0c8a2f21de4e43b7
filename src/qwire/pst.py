"""Perfect-state-transfer chains.

The sqrt(j(d-j)) coupling profile makes the hopping Hamiltonian a scaled
spin-x generator for a fictitious spin (d-1)/2, so the evolution is a
global rotation: the excitation swings between the two chain ends with
period pi/vartheta and crosses completely at half that period.  Uniform
chains, whose dispersion is nonlinear, never reach fidelity 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionTooSmallError,
    IndexOutOfRangeError,
    ZeroThetaError,
)
from .lattice import _line_matrix
from .numerics import HERMITIAN, Operator, evolution_phases, evolve

MIRROR_ATOL = 1e-12
PEAK_FIDELITY_FLOOR = 1e-10


def pst_couplings(d: int, A: float) -> np.ndarray:
    """Bond amplitudes A*sqrt(j*(d-j)) for j = 1..d-1 (a palindrome)."""
    if d < 2:
        raise DimensionTooSmallError(f"chain needs d >= 2, got {d}")
    j = np.arange(1, d, dtype=float)
    return A * np.sqrt(j * (d - j))


def pst_hamiltonian(d: int, vartheta: float, hbar: float = 1.0) -> Operator:
    """Tridiagonal Hamiltonian with zero diagonal and off-diagonal entries
    vartheta*hbar*sqrt(j*(d-j)); equals 2*vartheta*J_x for spin (d-1)/2,
    so its spectrum is equidistant with gap 2*vartheta*hbar.

    ZeroThetaError is raised unless 0 < vartheta < inf and every entry
    vartheta*hbar*sqrt(j*(d-j)) is finite and real, and ValueError for a
    real hbar that is not positive; the matrix is then hermitian and
    finite by construction."""
    profile = pst_couplings(d, 1.0)  # raises for d < 2
    if not 0 < vartheta < math.inf:
        raise ZeroThetaError(f"vartheta must be positive and finite, got {vartheta!r}")
    with np.errstate(over="ignore"):  # an overflow is rejected just below
        hop = vartheta * hbar * profile
    if np.iscomplexobj(hop) or not np.isfinite(hop).all():
        raise ZeroThetaError(
            f"vartheta*hbar*sqrt(j(d-j)) must be finite and real, got vartheta={vartheta!r}, "
            f"hbar={hbar!r} at d={d}"
        )
    if not hbar > 0:  # finite and real by now
        raise ValueError(f"hbar must be positive and finite, got {hbar!r}")
    # a line chain carries -A on bond l, so A = -hop puts +hop off the diagonal
    return Operator._certified(_line_matrix(d, 0.0, -hop), HERMITIAN)


def evolution(d: int, vartheta: float, t: float, hbar: float = 1.0) -> Operator:
    """Rotation operator generated by the transfer Hamiltonian at time t."""
    return evolve(pst_hamiltonian(d, vartheta, hbar), t, hbar)


def _check_sites(dim: int, source: int, target: int) -> None:
    for name, site in (("source", source), ("target", target)):
        if not 0 <= site < dim:
            raise IndexOutOfRangeError(f"{name} site {site} outside chain of {dim} sites")


def _amplitudes(hamiltonian: Operator, times, source: int, target: int, hbar: float):
    """<target| exp(-iHt/hbar) |source> at each time, the spectral sum of
    V[target,k] conj(V[source,k]) exp(-i lambda_k t / hbar) over k, for
    sites already checked."""
    vectors, phases = evolution_phases(hamiltonian, times, hbar)
    return phases @ (vectors[target] * vectors[source].conj())


def _fidelity(hamiltonian: Operator, t: float, source: int, target: int, hbar: float) -> float:
    """`transfer_fidelity` for sites already checked."""
    amplitude = complex(_amplitudes(hamiltonian, t, source, target, hbar))
    return min(abs(amplitude) ** 2, 1.0)


def transfer_fidelity(
    hamiltonian: Operator, t: float, source: int, target: int, hbar: float = 1.0
) -> float:
    """Probability |<target| exp(-iHt/hbar) |source>|^2 of finding the
    excitation at the target site at time t (exactly 1 or 0 at t = 0)."""
    _check_sites(hamiltonian.dim, source, target)
    return _fidelity(hamiltonian, t, source, target, hbar)


@dataclass(frozen=True)
class FidelityCurve:
    """Transfer fidelity sampled on a strictly increasing time grid."""

    times: np.ndarray
    fidelities: np.ndarray
    source: int
    target: int

    def __post_init__(self) -> None:
        times = np.array(self.times, dtype=float)
        fidelities = np.array(self.fidelities, dtype=float)
        if times.shape != fidelities.shape or times.ndim != 1:
            raise ValueError("times and fidelities must be 1-d arrays of equal length")
        # written so that NaN fails each check
        if not (np.isfinite(times).all() and (np.diff(times) > 0).all()):
            raise ValueError("times must be finite and strictly increasing")
        if not ((0 <= fidelities) & (fidelities <= 1 + 1e-12)).all():
            raise ValueError("fidelities must lie in [0, 1]")
        for arr in (times, fidelities):
            arr.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "fidelities", fidelities)

    @property
    def peak(self) -> tuple[float, float]:
        """(time, fidelity) of the sampled maximum (first if tied)."""
        k = int(np.argmax(self.fidelities))
        return float(self.times[k]), float(self.fidelities[k])


def fidelity_curve(
    hamiltonian: Operator,
    t_grid,
    source: int,
    target: int,
    hbar: float = 1.0,
) -> FidelityCurve:
    """Transfer fidelity at every grid time, via one eigendecomposition."""
    _check_sites(hamiltonian.dim, source, target)
    times = np.array(t_grid, dtype=float).reshape(-1)
    amplitudes = _amplitudes(hamiltonian, times, source, target, hbar)
    fidelities = np.minimum(np.abs(amplitudes) ** 2, 1.0)
    return FidelityCurve(times=times, fidelities=fidelities, source=source, target=target)


@dataclass(frozen=True)
class TransferReport:
    """End-to-end transfer summary: crossing time, its fidelity, and the
    full circulation period (twice the crossing time)."""

    d: int
    vartheta: float
    t_star: float
    peak_fidelity: float
    period: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.peak_fidelity <= 1.0 + 1e-12:
            raise ValueError(f"peak fidelity {self.peak_fidelity!r} outside [0, 1]")
        # written so that NaN fails the check
        if not abs(self.period - 2 * self.t_star) <= 1e-9 * max(abs(self.period), 1.0):
            raise ValueError("period must equal twice the transfer time")


def transfer_time(d: int, vartheta: float, hbar: float = 1.0) -> TransferReport:
    """Perfect-transfer report: the excitation crosses at t* = pi/(2*vartheta)
    and returns to its start after the period pi/vartheta."""
    t_star = np.pi / (2 * vartheta)
    peak = transfer_fidelity(pst_hamiltonian(d, vartheta, hbar), t_star, 0, d - 1, hbar)
    report = TransferReport(
        d=d,
        vartheta=vartheta,
        t_star=float(t_star),
        peak_fidelity=peak,
        period=float(np.pi / vartheta),
    )
    if report.peak_fidelity < 1.0 - PEAK_FIDELITY_FLOOR:
        raise ArithmeticError(
            f"transfer chain d={d} missed perfect fidelity: {report.peak_fidelity!r}"
        )
    return report


def mirror_check(hamiltonian: Operator) -> bool:
    """True when the Hamiltonian is invariant under site reversal, the
    symmetry every perfect-transfer chain must have."""
    reversed_h = hamiltonian.matrix[::-1, ::-1]
    return bool(np.max(np.abs(reversed_h - hamiltonian.matrix)) <= MIRROR_ATOL)
