"""Search over line-chain coupling profiles, with a certified result.

Maximizes end-to-end transfer fidelity at a fixed time with a simplex
descent (reflection / expansion / contraction / shrink) on the negated
objective, a Newton polish of each run that stops on collapse or
plateau, and deterministic seeded restarts while no result is certified.
The simplex hands off early: each run stops at a loose _HANDOFF = 1e-3
(or at tol, if looser), and the polish does the climbing from there.

Both the simplex's objective and the polish's derivatives come from one
factory, `_search`: its two closures share one chain matrix and one
eigensolve step, so the gradient and the exact Hessian come from the
eigenpairs of the same single `_eigh` that gives the fidelity, through
the first and second divided differences of exp(-i lambda t).  The step
remembers the last point it solved, so each distinct point is solved
once.  The polish forms one Hessian per accepted point, from the
eigenpairs that accepted the trial, tries its steps on the value alone
and takes damped Newton steps inside the +-COUPLING_BOUND box; the
final gradient forms no Hessian.
Where F's Hessian is not negative definite the polish climbs with the
Newton step of -log F, which has F's maximizers where F > 0: its
Hessian, up to the factor 1/F, is F's less grad F grad F^T / F, and the
step is taken where that is negative definite on the free coordinates.
It leaves the flat, indefinite region near F = 0 in a few steps.  Where
that matrix is not negative definite either, the polish takes the
modified Newton step, each eigenvalue lambda of F's Hessian replaced by
|lambda| floored relative to max |lambda| (Nocedal & Wright, Numerical
Optimization, 3.4).  Neither certifies anything.  A point is certified
when F's own Hessian is negative definite on the free coordinates and
the Newton decrement is at most tol (Boyd & Vandenberghe, Convex
Optimization, 9.5; Nocedal & Wright, Numerical Optimization, Thm 2.4);
only then has the search converged, and only then do the restarts stop
early.  The known optimum is the sqrt(j(d-j)) profile, which the search
should rediscover from a uniform start and certify, unmoved, when given
as the initial point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Real
from typing import Callable, NamedTuple

import numpy as np

from .errors import InvalidConfigError, require_integer, require_real, require_reals
from .lattice import LINE, ChainSpec, build_hamiltonian
from .numerics import _eigh
from .pst import transfer_fidelity

COUPLING_BOUND = 10.0

# Every level of a chain in the box has |lambda| < 2 * COUPLING_BOUND, so
# from this time on rounding lambda alone moves the phase lambda * t by
# more than a radian and F keeps no correct digit: about 2.25e14.
_T_TARGET_LIMIT = 1 / (2 * COUPLING_BOUND * float(np.finfo(float).eps))

_EXPAND = 2.0
_CONTRACT = 0.5
_SHRINK = 0.5

# Newton polish: at most _NEWTON_STEPS Hessians (and steps) per polish, each
# step halved at most _BACKTRACKS times.
_NEWTON_STEPS = 16
_BACKTRACKS = 30

# The Hessian's second divided differences: three eigenvalues within
# _CLUSTER / t of one another take the Taylor series with coefficients
# _SERIES[k] = (-i)^k / (k+2)! (see `_clustered_differences`).
_CLUSTER = 0.05
_SERIES = tuple((-1j) ** k / math.factorial(k + 2) for k in range(9))
_TINY = float(np.finfo(float).tiny)

# Each simplex run hands its point to the polish once it stops on collapse
# or plateau at this threshold (or at tol, if looser); the polish climbs the
# rest.  Where the Hessian is not negative definite the polish's modified
# step floors each |lambda| at _EIGEN_FLOOR relative to the largest one.
_HANDOFF = 1e-3
_EIGEN_FLOOR = 1e-8


def objective(couplings, t: float, d: int) -> float:
    """End-to-end transfer fidelity of a line chain at time t.

    Invariant under flipping the sign of any coupling (the alternating
    sign gauge) and under the joint rescaling (c*couplings, t/c).
    ChainSpec raises BadCouplingCountError unless there are d-1 couplings,
    and InvalidConfigError (a ValueError) unless they are finite and real.
    """
    couplings = np.asarray(couplings).reshape(-1)  # ChainSpec converts and checks
    spec = ChainSpec(d=d, topology=LINE, E0=0.0, couplings=couplings)
    return transfer_fidelity(build_hamiltonian(spec), t, 0, spec.d - 1)


@dataclass(frozen=True)
class OptimizeConfig:
    """Search settings: chain length, target transfer time, iteration
    budget, convergence threshold, and the seed for restart jitter.
    InvalidConfigError (a ValueError) is raised for any value outside
    its domain; t_target must also lie below _T_TARGET_LIMIT."""

    d: int
    t_target: float
    max_iters: int = 2000
    tol: float = 1e-9
    seed: int = 0

    def __post_init__(self) -> None:
        for name, low in (("d", 2), ("max_iters", 1), ("seed", 0)):
            require_integer(getattr(self, name), name, low)
        if not require_real(self.t_target, "t_target", positive=True) < _T_TARGET_LIMIT:
            raise InvalidConfigError(
                f"t_target must be below {_T_TARGET_LIMIT:.4g}, got {self.t_target!r}")
        require_real(self.tol, "tol", positive=True)


# Why a simplex run stopped: its vertices came within the hand-off threshold
# max(_HANDOFF, tol) of the best one, its best value gained less than that
# threshold over a sweep, or iterations ran out.
# Why a search stopped: one of those, or CERTIFIED when the Newton polish
# after a collapse or plateau certified a strict local maximum.
COLLAPSE = "collapse"
PLATEAU = "plateau"
BUDGET = "budget"
CERTIFIED = "certified"


@dataclass(frozen=True)
class OptimizeResult:
    """Best profile found, gauge-normalized to max |A_j| = 1.

    fidelity is the search's own value at its best point, the one the
    restarts and the certificate read.  By the joint rescaling (see
    `objective`) it equals, to rounding, the fidelity of the reported
    couplings at the gauge-adjusted time scale*t_target, where scale is
    the normalization factor that was divided out.
    stop_reason is "certified" when the Newton polish certified the best
    point, and otherwise why the last simplex run stopped (collapse,
    plateau or budget); only a certified search has converged.  Certified
    means that F's Hessian H is negative definite on the free coordinates
    (a coordinate on +-COUPLING_BOUND whose gradient points out of the
    box is fixed) and the Newton decrement g^T (-H)^-1 g / 2, the
    second-order estimate of the fidelity still to gain, is at most tol:
    a strict local maximum lies within reach of that estimate.
    restarts counts the runs after the first, iterations their simplex
    steps and newton_steps the Hessians formed over all polishes, one at
    each point a polish starts from or accepts; each is F's exact Hessian,
    from the same eigensolve as the point's fidelity.  gradient_norm is
    |grad F| over the free coordinates at the best point and decrement
    that of its last Newton iteration (inf when no Hessian was formed or
    it was not negative definite), both in the search's own couplings at
    t_target.
    """

    couplings: tuple[float, ...]
    fidelity: float
    iterations: int
    stop_reason: str
    restarts: int
    gradient_norm: float
    decrement: float
    newton_steps: int = 0

    def __post_init__(self) -> None:
        couplings = require_reals(self.couplings, "couplings", ndim=1)
        if not 0.0 <= require_real(self.fidelity, "fidelity") <= 1.0 + 1e-12:
            raise InvalidConfigError(f"fidelity {self.fidelity!r} outside [0, 1]")
        if self.stop_reason not in (CERTIFIED, COLLAPSE, PLATEAU, BUDGET):
            raise InvalidConfigError(f"unknown stop reason {self.stop_reason!r}")
        for name in ("iterations", "restarts", "newton_steps"):
            require_integer(getattr(self, name), name, 0)
        if not isinstance(self.decrement, Real):  # a real one may be inf, and is checked below
            require_real(self.decrement, "decrement")
        # the decrement may be inf; NaN fails
        if not (require_real(self.gradient_norm, "gradient norm") >= 0 and self.decrement >= 0):
            raise InvalidConfigError(f"gradient norm {self.gradient_norm!r} outside [0, inf) "
                                     f"or decrement {self.decrement!r} outside [0, inf]")
        object.__setattr__(self, "couplings", tuple(couplings.tolist()))

    @property
    def converged(self) -> bool:
        """True when the search certified a strict local maximum."""
        return self.stop_reason == CERTIFIED


class _SimplexRun(NamedTuple):
    x_best: np.ndarray
    f_best: float
    iterations: int
    stop_reason: str


def _clip(x: np.ndarray) -> np.ndarray:
    # np.clip's own arithmetic, without its argument handling
    return np.minimum(np.maximum(x, -COUPLING_BOUND), COUPLING_BOUND)


def _initial_simplex(x0: np.ndarray) -> np.ndarray:
    """x0 and n vertices that each move one coordinate of it, so the n
    edges from x0 are independent.  For x0 in the box every vertex is too:
    where the step x -> 1.05x would leave the box it is taken inward, to
    0.95x, rather than clipped back onto x."""
    n = x0.shape[0]
    simplex = np.tile(x0, (n + 1, 1))
    for i in range(n):
        x = simplex[i + 1, i]
        if 1.05 * x == x:  # zero, or too small for the relative step to move
            simplex[i + 1, i] = 0.00025
        elif abs(1.05 * x) <= COUPLING_BOUND:
            simplex[i + 1, i] = 1.05 * x
        else:
            simplex[i + 1, i] = 0.95 * x
    return simplex


def _simplex_descent(
    f: Callable[[np.ndarray], float],
    x0: np.ndarray,
    max_iters: int,
    tol: float,
) -> _SimplexRun:
    """One simplex run from x0, a point in the box.  Converges when the
    simplex collapses below tol or the best value improves by less than
    tol over a full sweep (n+1 consecutive steps).

    Each iteration orders the vertices by a stable argsort of their
    values, best first, ties in row order, and writes its new vertex into
    the last row; a shrink rewrites every row but the best."""
    n = x0.shape[0]
    simplex = _initial_simplex(x0)
    fvals = np.array([f(x) for x in simplex])
    sweep = n + 1
    checkpoint = float(fvals.min())
    iterations = 0
    stop_reason = BUDGET

    while iterations < max_iters:
        order = fvals.argsort(kind="stable")
        simplex, fvals = simplex[order], fvals[order]
        worst = simplex[-1]
        centroid = np.add.reduce(simplex[:-1], axis=0) / n
        step = centroid - worst
        reflected = _clip(centroid + step)
        f_reflected = f(reflected)

        if f_reflected < fvals[0]:
            expanded = _clip(centroid + _EXPAND * step)
            f_expanded = f(expanded)
            if f_expanded < f_reflected:
                simplex[-1], fvals[-1] = expanded, f_expanded
            else:
                simplex[-1], fvals[-1] = reflected, f_reflected
        elif f_reflected < fvals[-2]:
            simplex[-1], fvals[-1] = reflected, f_reflected
        else:
            if f_reflected < fvals[-1]:
                contracted = _clip(centroid + _CONTRACT * (reflected - centroid))
                f_contracted = f(contracted)
                accept = f_contracted <= f_reflected
            else:
                contracted = _clip(centroid + _CONTRACT * (worst - centroid))
                f_contracted = f(contracted)
                accept = f_contracted < fvals[-1]
            if accept:
                simplex[-1], fvals[-1] = contracted, f_contracted
            else:
                best = simplex[0]
                for i in range(1, n + 1):
                    simplex[i] = _clip(best + _SHRINK * (simplex[i] - best))
                    fvals[i] = f(simplex[i])

        iterations += 1

        if abs(simplex - simplex[fvals.argmin()]).max() < tol:
            stop_reason = COLLAPSE
            break
        if iterations % sweep == 0:
            best_now = float(fvals.min())
            if checkpoint - best_now < tol:
                stop_reason = PLATEAU
                break
            checkpoint = best_now

    k = fvals.argmin()
    return _SimplexRun(simplex[k].copy(), float(fvals[k]), iterations, stop_reason)


# the negated objective with its gradient and, unless the second argument is
# False, its Hessian in the couplings
_Derivatives = Callable[..., tuple[float, np.ndarray, np.ndarray | None]]


def _first_differences(values: np.ndarray, t: float) -> np.ndarray:
    """The first divided differences f[lambda_j, lambda_k] of
    f(lambda) = exp(-i lambda t) over the eigenvalues, the complex matrix
    -it exp(-it(lambda_j + lambda_k)/2) sinc(t(lambda_j - lambda_k)/2):
    one expression, without a branch, for distinct, close and equal
    eigenvalues.  The phase is the product of two half-angle phases."""
    angles = values * (0.5 * t)
    half = np.exp(angles * -1j)
    gap = np.abs(np.subtract.outer(angles, angles))
    np.maximum(gap, _TINY, out=gap)  # sin(tiny) / tiny == 1.0, the sinc of a zero gap
    sinc = np.sin(gap)
    sinc /= gap
    return np.multiply.outer(half * (-1j * t), half) * sinc


def _clustered_differences(a, b, c, t: float):
    """f[a, b, c] of f(lambda) = exp(-i lambda t) from its Taylor series
    about the mean m of a <= b <= c: -t^2 exp(-itm) sum_k (-i)^k h_k / (k+2)!,
    where h_k is the complete homogeneous symmetric polynomial of degree k
    in y = t (a - m, b - m, c - m).  Since y sums to zero, h_1 = 0 and
    h_k = -e2 h_{k-2} + e3 h_{k-3} from the elementary ones e2 and e3.
    Where t (c - a) <= _CLUSTER every |y| is at most 2 _CLUSTER / 3, and
    the terms past the last of _SERIES are below 1e-17 relative; three
    equal points give z^2 exp(z a) / 2, z = -it, the limit of every
    branch."""
    mean = (a + b + c) / 3
    ya, yb, yc = t * (a - mean), t * (b - mean), t * (c - mean)
    e2 = ya * yb + ya * yc + yb * yc
    e3 = ya * yb * yc
    h = [np.ones_like(e2), np.zeros_like(e2), -e2]
    while len(h) < len(_SERIES):
        h.append(e3 * h[-3] - e2 * h[-2])
    return -t * t * np.exp(mean * (-1j * t)) * sum(map(np.multiply, _SERIES, h))


class _Triples(NamedTuple):
    """Index tables of the second divided differences at dimension d: each
    index triple (i, k, j) of the d x d x d cube in C order, sorted into
    lo <= mid <= hi (f[i, k, j] is symmetric, so it is read there; ahead
    and behind are the flat positions of (mid, hi) and (lo, mid) in a
    d x d matrix, and equal holds the positions of (l, l, l) in order of
    l)."""

    lo: np.ndarray
    mid: np.ndarray
    hi: np.ndarray
    ahead: np.ndarray
    behind: np.ndarray
    equal: np.ndarray


def _triples(d: int) -> _Triples:
    lo, mid, hi = np.sort(np.indices((d, d, d)).reshape(3, -1), axis=0)
    return _Triples(lo, mid, hi, mid * d + hi, lo * d + mid, np.flatnonzero(lo == hi))


def _second_differences(values: np.ndarray, first: np.ndarray, t: float,
                        triples: _Triples) -> np.ndarray:
    """f[lambda_lo, lambda_mid, lambda_hi] of f(lambda) = exp(-i lambda t)
    for each triple of `_triples(d)` over d ascending eigenvalues, given
    first = `_first_differences(values, t)`.

    Three equal indices give f''/2 = z^2 exp(z lambda) / 2, z = -it.
    Otherwise, where the widest gap lambda_hi - lambda_lo exceeds
    _CLUSTER / t, the quotient (f[mid, hi] - f[lo, mid]) / (lambda_hi -
    lambda_lo) of the two first differences is taken: each carries the
    rounding of its phase, about eps max(1, |t lambda|) relative to t, and
    the gap divides it, so the quotient is good to about
    eps max(1, |t lambda|) / _CLUSTER relative to t^2 / 2.  Within that
    gap the three eigenvalues form a cluster and go to the Taylor series
    of `_clustered_differences` (McCurdy, Ng & Parlett, Math. Comp. 43,
    501 (1984))."""
    lo, mid, hi, ahead, behind, equal = triples
    firsts = first.reshape(-1)
    second = firsts[ahead] - firsts[behind]
    span = values[hi] - values[lo]
    separated = span * t > _CLUSTER
    np.divide(second, span, out=second, where=separated)
    second[equal] = first.diagonal() * (-0.5j * t)
    separated[equal] = True
    if not separated.all():
        clustered = np.flatnonzero(~separated)
        second[clustered] = _clustered_differences(
            values[lo[clustered]], values[mid[clustered]], values[hi[clustered]], t)
    return second


def _search(config: OptimizeConfig) -> tuple[Callable[[np.ndarray], float], _Derivatives]:
    """The negated `objective` at config's d and t_target, and the same
    value with its gradient and Hessian in the couplings, for coupling
    arrays whose count and finiteness were checked once per search;
    `derivatives(x, False)` gives None for the Hessian and forms none.

    Both closures share one d x d chain matrix and one step: rewrite both
    bond diagonals, make one `_eigh` and read the end-to-end amplitude a
    with the arithmetic of `transfer_fidelity` on a real chain, bit for
    bit, without objective's per-call ChainSpec and time checks
    (OptimizeConfig certified t_target).  So all three derivatives come
    from the eigenpairs of one `_eigh`.  The step keeps the read-only
    eigenpairs and amplitude of the last point it solved, keyed by the
    point's bytes, so each distinct point is solved once: `derivatives`
    at a trial that `negated` has just accepted reuses its eigenpairs,
    and a call at a new point gives what a fresh closure gives, byte for
    byte.

    With H = V diag(lambda) V^T, u = V[d-1], w = V[0] and the bond
    matrices E_l = dH/dA_l (-1 at (l, l+1) and (l+1, l)), in the
    eigenbasis Et_l = V^T E_l V, the amplitude a = <d-1| exp(-iHt) |0> has
    the Daleckii-Krein derivatives
        da/dA_l = sum_ij u_i w_j f[i, j] Et_l[i, j],
        d2a/dA_l dA_m = sum_ikj u_i w_j f[i, k, j] (Et_l[i, k] Et_m[k, j]
                                                    + Et_m[i, k] Et_l[k, j]),
    with the divided differences f[.] of exp(-i lambda t) at the
    eigenvalues (Najfeld & Havel, Adv. Appl. Math. 16, 321 (1995)).  The
    first is -(S[l, l+1] + S[l+1, l]), S = V (f[.,.] o u w^T) V^T.  F = |a|^2
    has grad F = 2 Re(conj(a) grad a) and the Hessian
    2 Re(grad a grad a^H) + 2 Re(conj(a) hess a), which needs only the
    real array R3 = Re(conj(a) f[., ., .]).  The contraction is three
    matrix products, O(n d^3 + d^4): Y = (V o u) R3 as a d x d^2 matrix,
    read as d x d blocks Y_p[k, j], M_l[k, j] = V[l+1, k] Y_l[k, j] +
    V[l, k] Y_{l+1}[k, j] and Z_l = V M_l (V o w)^T.  The part of
    Re(conj(a) hess a) with Et_l on the left is then
    T[l, m] = Z_l[m, m+1] + Z_l[m+1, m] (the minus signs of the two bonds
    cancel), and the part with Et_m on the left is its transpose.  Each
    term is summed symmetric, so the Hessian is exactly symmetric."""
    d = config.d
    chain = np.zeros((d, d))
    flat = chain.reshape(-1)
    upper, lower = flat[1 :: d + 1], flat[d :: d + 1]  # h[l, l+1] and h[l+1, l]
    t = float(config.t_target)
    minus_it = -1j * t
    triples = _triples(d)

    # the last point solved, keyed by its bytes: the simplex rewrites its rows
    # in place, so the array object would not tell a new point from the old
    last_key, last = None, None

    def solve(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, complex]:
        nonlocal last_key, last
        key = x.tobytes()
        if key != last_key:
            np.subtract(0.0, x, out=upper)  # -A_l, as lattice._line_matrix writes it
            lower[...] = upper
            values, vectors = _eigh(chain)
            values.flags.writeable = vectors.flags.writeable = False
            amplitude = complex(np.exp(values * minus_it) @ (vectors[d - 1] * vectors[0]))
            last_key, last = key, (values, vectors, amplitude)
        return last

    def negated(x: np.ndarray) -> float:
        return -min(abs(solve(x)[2]) ** 2, 1.0)

    def derivatives(x: np.ndarray, hessian: bool = True
                    ) -> tuple[float, np.ndarray, np.ndarray | None]:
        values, vectors, a = solve(x)
        u, w = vectors[d - 1], vectors[0]
        first = _first_differences(values, t)
        uw = np.multiply.outer(u, w)
        # -da/dA_l = S[l, l+1] + S[l+1, l] = (V (f[.,.] o (u w^T + w u^T)) V^T)[l, l+1]
        slopes = ((vectors[:-1] @ (first * (uw + uw.T))) * vectors[1:]).sum(axis=1)
        value = -min(abs(a) ** 2, 1.0)
        gradient = 2.0 * (a.conjugate() * slopes).real
        if not hessian:
            return value, gradient, None
        outer = np.multiply.outer(slopes.real, slopes.real)
        outer += np.multiply.outer(slopes.imag, slopes.imag)  # Re(grad a grad a^H)
        second = _second_differences(values, first, t, triples)
        r3 = (a.conjugate() * second).real.reshape(d, d * d)
        y = ((vectors * u) @ r3).reshape(d, d, d)
        m = vectors[1:, :, None] * y[:-1]
        m += vectors[:-1, :, None] * y[1:]
        z = (vectors @ m @ (vectors * w).T).reshape(d - 1, d * d)
        terms = z[:, 1 :: d + 1] + z[:, d :: d + 1]  # Z_l[m, m+1] + Z_l[m+1, m]
        matrix = outer + (terms + terms.T)
        matrix *= -2.0
        return value, gradient, matrix

    return negated, derivatives


class _Polish(NamedTuple):
    x: np.ndarray
    f: float
    certified: bool
    decrement: float
    hessians: int = 0


def _free(x: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Mask of the free coordinates.  One on the bound is fixed when its
    gradient points out of the box: -g, the ascent direction of F, pushes
    it outward."""
    return ~((np.abs(x) == COUPLING_BOUND) & (x * g < 0))


def _newton_step(free: np.ndarray, g: np.ndarray, hessian: np.ndarray) -> tuple[np.ndarray, float]:
    """(step, decrement) of the negated objective on the free coordinates,
    with a zero step on the fixed ones.  Where H is positive definite on
    the free coordinates (F's Hessian negative definite) this is the
    Newton step and the decrement g^T H^-1 g / 2.  Otherwise it is the
    modified Newton step, each eigenvalue lambda of H replaced by |lambda|
    floored at _EIGEN_FLOOR * max(1, max |lambda|) (Nocedal & Wright,
    Numerical Optimization, 3.4): a descent direction of the negated
    objective, with decrement inf, since no certificate holds there.
    `_polish` also calls it with -log F's Hessian H + g g^T / F in place
    of H, and takes that step only when its decrement is finite."""
    if not free.any():
        return np.zeros_like(g), 0.0
    everywhere = free.all()  # then H and g need no gather, and the step no scatter
    values, vectors = _eigh(hessian if everywhere else hessian[np.ix_(free, free)])
    definite = values[0] > 0
    if not definite:
        magnitudes = np.abs(values)
        values = np.maximum(magnitudes, _EIGEN_FLOOR * max(1.0, float(magnitudes.max())))
    projected = vectors.T @ (g if everywhere else g[free])
    direction = -(vectors @ (projected / values))
    if everywhere:
        step = direction
    else:
        step = np.zeros_like(g)
        step[free] = direction
    return step, float(projected @ (projected / values)) / 2 if definite else math.inf


def _polish(negated: Callable[[np.ndarray], float], derivatives: _Derivatives,
            x: np.ndarray, tol: float) -> _Polish:
    """Damped Newton from a simplex result, then its second-order
    certificate: the Hessian positive definite on the free coordinates
    and the decrement at most tol.

    Each of at most _NEWTON_STEPS iterations forms one Hessian, with the
    value and gradient, from one `derivatives` call at its point; the
    trial points in between need only `negated`.  Where H, the negated
    objective's Hessian, is not positive definite on the free
    coordinates, the step is the Newton step of -log F when the matrix
    H + r r^T, r = g / sqrt(F), is finite and positive definite there.
    -log F has the negated objective's minimizers where F > 0, its
    gradient is g / F and its Hessian (H + r r^T) / F, so its Newton step
    is -(H + r r^T)^-1 g; it costs one more eigensolve.  Otherwise the
    step is `_newton_step`'s own, the modified one where H is not
    positive definite.  An uncertified point's step is projected onto the
    box and halved until it lowers the negated objective; the polish ends
    when none does.  The certificate reads H alone: a certified point
    still takes its full Newton step when that lowers the value, then the
    polish ends.  The decrement returned is that of the last Hessian's
    point."""
    for hessians in range(1, _NEWTON_STEPS + 1):
        f, g, hessian = derivatives(x)
        free = _free(x, g)
        step, decrement = _newton_step(free, g, hessian)
        if decrement == math.inf:
            # F times -log F's Hessian, H + r r^T with r = g / sqrt(F): no
            # g g^T to overflow, and F = 0 gives a non-finite matrix, refused
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                r = g / math.sqrt(-f)
                curved = hessian + np.multiply.outer(r, r)
            if np.isfinite(curved).all():
                log_step, log_decrement = _newton_step(free, g, curved)
                if log_decrement < math.inf:
                    step = log_step
        certified = decrement <= tol
        for _ in range(1 if certified else _BACKTRACKS):
            trial = _clip(x + step)
            f_trial = negated(trial)
            if f_trial < f:
                x, f = trial, f_trial
                break
            step *= 0.5
        else:
            break
        if certified:
            break
    return _Polish(x, f, certified, decrement, hessians)


def optimize_couplings(config: OptimizeConfig, initial) -> OptimizeResult:
    """Search for the coupling profile maximizing end-to-end fidelity at
    config.t_target.

    Runs the simplex from the initial profile.  A run that stops on
    collapse or plateau is polished by damped Newton and certified when
    it can be (see `_polish`); a run that stops on the budget is not.
    The search ends at the first certified best point.  Otherwise it
    restarts from the best point with seeded jitter as long as the
    previous run improved the best value by at least tol and budget
    remains.  The best objective seen never decreases, except that a
    certified point displaces an uncertified best one less than tol above
    it.  Identical inputs give identical results; a search certified in
    its first run never reads the seed.
    """
    # Validated once per search, as objective validates each call: ChainSpec
    # refuses a complex, non-finite or miscounted start before clipping
    # could turn +-inf into +-COUPLING_BOUND, and clipped simplex moves and
    # jitter of finite points keep count and finiteness; OptimizeConfig
    # certifies d and t_target, and the end sites 0 and d-1 exist for
    # every d >= 2.
    spec = ChainSpec(config.d, LINE, 0.0, np.asarray(initial).reshape(-1))
    x_start = _clip(np.array(spec.couplings))
    negated, derivatives = _search(config)
    best = _Polish(x_start.copy(), negated(x_start), False, math.inf)
    handoff = max(_HANDOFF, config.tol)
    iterations = 0
    newton_steps = 0
    runs = 0

    while iterations < config.max_iters:
        run = _simplex_descent(negated, x_start, config.max_iters - iterations, handoff)
        iterations += run.iterations
        runs += 1
        if run.stop_reason == BUDGET:
            found = _Polish(run.x_best, run.f_best, False, math.inf)
        else:
            found = _polish(negated, derivatives, run.x_best, config.tol)
            newton_steps += found.hessians
        improved = found.f < best.f - config.tol
        # a certified point displaces a best one less than tol above it, the
        # resolution the restarts also use: near F = 1 that gap is rounding
        if found.f < best.f or found.certified and found.f <= best.f + config.tol:
            best = found
        if best.certified or run.stop_reason == BUDGET or not improved:
            break
        if runs == 1:  # the first restart: a search that needs none never builds it
            rng = np.random.default_rng(config.seed)
        jitter = 0.05 * max(1.0, float(np.max(np.abs(best.x))))
        x_start = _clip(best.x + jitter * rng.standard_normal(best.x.shape[0]))

    best_x = best.x
    scale = float(np.max(np.abs(best_x)))
    g = derivatives(best_x, False)[1]
    return OptimizeResult(
        couplings=tuple(best_x / scale if scale > 0 else best_x),
        fidelity=-best.f,
        iterations=iterations,
        stop_reason=CERTIFIED if best.certified else run.stop_reason,
        restarts=runs - 1,
        newton_steps=newton_steps,
        gradient_norm=float(np.linalg.norm(g[_free(best_x, g)])),
        decrement=best.decrement,
    )
