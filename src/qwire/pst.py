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
    IndexOutOfRangeError,
    InvalidConfigError,
    ZeroThetaError,
    require_dim,
    require_integer,
    require_real,
    require_reals,
)
from .lattice import _line_matrix
from .numerics import Operator, _evolution_factors, _freeze, _phases

MIRROR_RTOL = 1e-12
PEAK_FIDELITY_FLOOR = 1e-10


def pst_couplings(d: int, A: float) -> np.ndarray:
    """Bond amplitudes A*sqrt(j*(d-j)) for j = 1..d-1 (a palindrome);
    InvalidConfigError unless A is real and every amplitude finite."""
    require_dim(d)
    scale = require_real(A, "A")
    j = np.arange(1, d, dtype=float)
    with np.errstate(over="ignore"):  # an overflow is refused just below
        couplings = scale * np.sqrt(j * (d - j))
    if not np.isfinite(couplings).all():
        raise InvalidConfigError(f"A*sqrt(j(d-j)) must be finite, got A={A!r} at d={d}")
    return couplings


def pst_hamiltonian(d: int, vartheta: float) -> Operator:
    """Tridiagonal Hamiltonian with zero diagonal and off-diagonal entries
    vartheta*sqrt(j*(d-j)); equals 2*vartheta*J_x for spin (d-1)/2, so
    its spectrum is equidistant with gap 2*vartheta.

    ZeroThetaError is raised unless vartheta is real, 0 < vartheta < inf
    and every entry vartheta*sqrt(j*(d-j)) is finite; the matrix is then
    hermitian and finite by construction."""
    profile = pst_couplings(d, 1.0)  # raises for d < 2
    rate = require_real(vartheta, "vartheta", ZeroThetaError, positive=True)
    with np.errstate(over="ignore"):  # an overflow is rejected just below
        hop = rate * profile
    if not np.isfinite(hop).all():
        raise ZeroThetaError(
            f"vartheta*sqrt(j(d-j)) must be finite, got vartheta={vartheta!r} at d={d}"
        )
    # a line chain carries -A on bond l, so A = -hop puts +hop off the diagonal
    return Operator._certified(_line_matrix(d, 0.0, -hop))


def _check_sites(dim: int, source: int, target: int) -> None:
    for name, site in (("source", source), ("target", target)):
        require_integer(site, name, 0, dim, IndexOutOfRangeError)


def transfer_fidelity(hamiltonian: Operator, t: float, source: int, target: int) -> float:
    """Probability |<target| exp(-iHt) |source>|^2 of finding the
    excitation at the target site at time t (exactly 1 or 0 at t = 0),
    with the amplitude summed as V[target,k] conj(V[source,k])
    exp(-i lambda_k t) over k.  InvalidConfigError unless t is one real,
    finite number."""
    _check_sites(hamiltonian.dim, source, target)
    t = require_real(t, "evolution times")  # one time, refused before any eigensolve
    amplitude = _amplitudes(*_evolution_factors(hamiltonian, t, (source, target)))
    return min(abs(complex(amplitude)) ** 2, 1.0)


@dataclass(frozen=True)
class FidelityCurve:
    """Transfer fidelity sampled on a non-empty, strictly increasing time
    grid."""

    times: np.ndarray
    fidelities: np.ndarray
    source: int
    target: int

    def __post_init__(self) -> None:
        times = np.array(require_reals(self.times, "times", ndim=1))
        fidelities = np.array(require_reals(self.fidelities, "fidelities", ndim=1))
        if times.shape != fidelities.shape or not times.size:
            raise InvalidConfigError("times and fidelities must be non-empty and of equal length")
        if not (np.diff(times) > 0).all():
            raise InvalidConfigError("times must be finite and strictly increasing")
        if not ((0 <= fidelities) & (fidelities <= 1 + 1e-12)).all():
            raise InvalidConfigError("fidelities must lie in [0, 1]")
        require_integer(self.source, "source", 0)
        require_integer(self.target, "target", 0)
        object.__setattr__(self, "times", _freeze(times))
        object.__setattr__(self, "fidelities", _freeze(fidelities))

    @property
    def peak(self) -> tuple[float, float]:
        """(time, fidelity) of the sampled maximum (first if tied)."""
        k = int(np.argmax(self.fidelities))
        return float(self.times[k]), float(self.fidelities[k])


def fidelity_curve(hamiltonian: Operator, t_grid, source: int, target: int) -> FidelityCurve:
    """Transfer fidelity at every grid time, via one eigendecomposition,
    with the amplitudes of `_amplitudes`.  It takes the same time checks
    and eigenvectors as `transfer_fidelity` and agrees with its complex
    phases to rounding, not bit for bit: the squared magnitude is
    re^2 + im^2 here, and an evenly spaced grid from 0 has its phases
    factored, within about 3*eps*max|lambda|*t_max."""
    _check_sites(hamiltonian.dim, source, target)
    # _evolution_factors refuses complex times
    pair, values, times = _evolution_factors(hamiltonian, np.asarray(t_grid).reshape(-1),
                                             (source, target))
    return _curve(pair, values, times, source, target)


def _curve(pair: np.ndarray, values: np.ndarray, times, source: int, target: int) -> FidelityCurve:
    """The `FidelityCurve` of the amplitudes `_amplitudes` contracts at
    each grid time: |a|^2 as re^2 + im^2, clipped at 1."""
    amplitudes = _amplitudes(pair, values, times)
    fidelities = np.minimum(amplitudes.real ** 2 + amplitudes.imag ** 2, 1.0)
    return FidelityCurve(times=times, fidelities=fidelities, source=source, target=target)


def _amplitudes(pair: np.ndarray, values: np.ndarray, times) -> np.ndarray:
    """The amplitudes sum_k w_k exp(-i lambda_k t), w_k = V[target,k]
    conj(V[source,k]), at one time or at each time of a grid, from the
    factors `_evolution_factors(H, times, (source, target))` returned:
    `pair` holds V's rows source and target, the only two read, so the
    parity solve never forms V.

    On an evenly spaced grid from 0, such as every
    `np.linspace(0, t_max, N)` (checked exactly: each time but the last
    is i times the second), `_progression_amplitudes` factors the phases
    into about 2*sqrt(N)*d exponentials.  One time, or any other grid,
    is contracted directly as exp(-i lambda_k t) @ w."""
    w = pair[1] * pair[0].conj()
    n = times.size
    if n > 1 and times[1] > 0 and np.array_equal(times[:-1], np.arange(n - 1) * times[1]):
        return _progression_amplitudes(w, values, times)
    return _phases(values, times) @ w


def _progression_amplitudes(w: np.ndarray, values: np.ndarray, times: np.ndarray) -> np.ndarray:
    """sum_k w_k exp(-i lambda_k t) on a grid whose times but the last
    are i*dt, dt = times[1] > 0: the A x B amplitudes at i = a*B + b,
    B = ceil(sqrt(N - 1)), are one product of the coarse phases
    exp(-i lambda_k a*B*dt), scaled by w, with the fine phases
    exp(-i lambda_k b*dt); the last time is contracted directly.

    It builds two complex arrays of about sqrt(N) x d entries.  Each
    factored phase carries the rounding of two angles and of the times
    a*B*dt and b*dt, so it differs from exp(-i lambda_k t_i) by about
    3*eps*max|lambda|*t_max, and an amplitude by at most that, since
    sum_k |w_k| <= 1."""
    count = times.size - 1  # times i*dt for i < count
    fine = math.isqrt(count - 1) + 1  # B = ceil(sqrt(count))
    coarse = -(-count // fine)  # A
    dt = times[1]
    coarse_phases = _phases(values, (np.arange(coarse) * fine) * dt) * w  # A x d
    fine_phases = _phases(values, np.arange(fine) * dt).T  # d x B
    amplitudes = np.empty(count + 1, dtype=complex)
    amplitudes[:count] = (coarse_phases @ fine_phases).reshape(-1)[:count]
    amplitudes[count] = _phases(values, times[-1]) @ w
    return amplitudes


@dataclass(frozen=True)
class TransferReport:
    """End-to-end transfer summary: crossing time, its fidelity, and the
    full circulation period pi/vartheta (`_period`)."""

    d: int
    vartheta: float
    t_star: float
    peak_fidelity: float

    def __post_init__(self) -> None:
        require_dim(self.d)
        require_real(self.t_star, "transfer time", positive=True)
        require_real(self.vartheta, "vartheta", positive=True)  # the period divides by it
        if not 0.0 <= require_real(self.peak_fidelity, "peak fidelity") <= 1.0 + 1e-12:
            raise InvalidConfigError(f"peak fidelity {self.peak_fidelity!r} outside [0, 1]")

    @property
    def period(self) -> float:
        return _period(self.vartheta)


def _period(vartheta: float) -> float:
    """The period pi/vartheta of a transfer chain's rotation, for a
    vartheta already checked positive and finite; ZeroThetaError, naming
    vartheta, when it overflows (then so does 2*t*)."""
    period = math.pi / float(vartheta)
    if not math.isfinite(period):
        raise ZeroThetaError(f"the period pi/vartheta must be finite, got vartheta={vartheta!r}")
    return period


def transfer_time(d: int, vartheta: float) -> TransferReport:
    """Perfect-transfer report: the excitation crosses at t* = pi/(2*vartheta)
    and returns to its start after the period pi/vartheta."""
    return _curve_and_crossing(d, vartheta, ())[1]


def _curve_and_crossing(d: int, vartheta: float,
                        t_grid) -> tuple[FidelityCurve | None, TransferReport]:
    """`fidelity_curve(pst_hamiltonian(d, vartheta), t_grid, 0, d - 1)`
    (None for an empty grid) and the crossing report `transfer_time`
    returns, from one eigensolve.  The curve is fidelity_curve's bit for
    bit unless every grid time is zero: fidelity_curve then makes no
    eigensolve, and the two agree to rounding.

    t* goes to `_evolution_factors` after the grid times, under the same
    checks; ZeroThetaError is raised first when the period pi/vartheta
    overflows (`_period`).  The fidelity at t* is transfer_fidelity's,
    bit for bit, and ArithmeticError is raised when it misses 1 by more
    than PEAK_FIDELITY_FLOOR."""
    hamiltonian = pst_hamiltonian(d, vartheta)  # checks vartheta before it divides
    _period(vartheta)
    # not 2*vartheta, which could overflow, nor the period / 2, which
    # rounds twice where pi/vartheta is subnormal
    t_star = (np.pi / 2) / float(vartheta)
    pair, values, times = _evolution_factors(hamiltonian, np.append(t_grid, t_star), (0, d - 1))
    peak = min(abs(complex(_amplitudes(pair, values, times[-1]))) ** 2, 1.0)
    if peak < 1.0 - PEAK_FIDELITY_FLOOR:
        raise ArithmeticError(f"transfer chain d={d} missed perfect fidelity: {peak!r}")
    report = TransferReport(d=d, vartheta=vartheta, t_star=t_star, peak_fidelity=peak)
    grid = times[:-1]
    return (_curve(pair, values, grid, 0, d - 1) if grid.size else None), report


def mirror_check(hamiltonian: Operator) -> bool:
    """True when the Hamiltonian is invariant under site reversal, the
    symmetry every perfect-transfer chain must have: max |H - JHJ| at
    most MIRROR_RTOL * max |H|, a rule that no rescaling of H changes,
    and that NaN fails."""
    m = hamiltonian.matrix
    return bool(np.max(np.abs(m[::-1, ::-1] - m)) <= MIRROR_RTOL * np.max(np.abs(m)))
