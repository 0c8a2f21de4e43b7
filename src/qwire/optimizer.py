"""Derivative-free search over line-chain coupling profiles.

Maximizes end-to-end transfer fidelity at a fixed time with a simplex
descent (reflection / expansion / contraction / shrink) on the negated
objective, plus deterministic seeded restarts.  The simplex stays sorted
by value: a full stable sort runs only after the initial evaluations and
after a shrink, and every other step inserts its one new vertex in place.
The collapse test measures the whole simplex only when the worst vertex
is already within tol of the best.  The known optimum is the
sqrt(j(d-j)) profile, which the search should rediscover from a uniform
start and leave untouched when given as the initial point.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from numbers import Integral, Real
from typing import Callable, NamedTuple

import numpy as np

from .errors import InvalidConfigError
from .lattice import LINE, ChainSpec, build_hamiltonian
from .numerics import _eigh, float_or_inf
from .pst import transfer_fidelity

COUPLING_BOUND = 10.0

_EXPAND = 2.0
_CONTRACT = 0.5
_SHRINK = 0.5


def objective(couplings, t: float, d: int) -> float:
    """End-to-end transfer fidelity of a line chain at time t.

    Invariant under flipping the sign of any coupling (the alternating
    sign gauge) and under the joint rescaling (c*couplings, t/c).
    ChainSpec raises BadCouplingCountError unless there are d-1 couplings,
    and InvalidConfigError (a ValueError) unless they are finite and real.
    """
    couplings = np.asarray(couplings).reshape(-1)  # ChainSpec converts and checks
    spec = ChainSpec(d=d, topology=LINE, E0=0.0, couplings=couplings.tolist())
    return transfer_fidelity(build_hamiltonian(spec), t, 0, spec.d - 1)


@dataclass(frozen=True)
class OptimizeConfig:
    """Search settings: chain length, target transfer time, iteration
    budget, convergence threshold, and the seed for restart jitter.
    InvalidConfigError (a ValueError) is raised for any value outside
    its domain."""

    d: int
    t_target: float
    max_iters: int = 2000
    tol: float = 1e-9
    seed: int = 0

    def __post_init__(self) -> None:
        for name, low in (("d", 2), ("max_iters", 1), ("seed", 0)):
            value = getattr(self, name)
            if not (isinstance(value, Integral) and value >= low):
                raise InvalidConfigError(f"{name} must be an integer >= {low}, got {value!r}")
        for name in ("t_target", "tol"):
            value = getattr(self, name)
            # Real first: comparing a complex would raise TypeError
            if not (isinstance(value, Real) and 0 < float_or_inf(value) < math.inf):
                raise InvalidConfigError(
                    f"{name} must be real, positive and finite, got {value!r}"
                )


# Why a simplex run stopped: its vertices came within tol of the best one,
# its best value gained less than tol over a sweep, or iterations ran out.
COLLAPSE = "collapse"
PLATEAU = "plateau"
BUDGET = "budget"


@dataclass(frozen=True)
class OptimizeResult:
    """Best profile found, gauge-normalized to max |A_j| = 1.

    fidelity is re-evaluated from the reported couplings at the
    gauge-adjusted time scale*t_target, where scale is the normalization
    factor that was divided out (the rescaling leaves the physics fixed).
    stop_reason is why the last simplex run stopped (collapse, plateau or
    budget), and restarts counts the runs after the first.
    """

    couplings: tuple[float, ...]
    fidelity: float
    iterations: int
    stop_reason: str
    restarts: int

    def __post_init__(self) -> None:
        if not 0.0 <= self.fidelity <= 1.0 + 1e-12:
            raise ValueError(f"fidelity {self.fidelity!r} outside [0, 1]")
        if self.stop_reason not in (COLLAPSE, PLATEAU, BUDGET):
            raise ValueError(f"unknown stop reason {self.stop_reason!r}")
        object.__setattr__(self, "couplings", tuple(float(a) for a in self.couplings))

    @property
    def converged(self) -> bool:
        """True unless the search stopped on its iteration budget."""
        return self.stop_reason != BUDGET


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


def _sorted(simplex: np.ndarray, fvals: list[float]) -> tuple[np.ndarray, list[float]]:
    """The vertices and their values by ascending value, equal values in
    row order: the order of a stable argsort."""
    order = sorted(range(len(fvals)), key=fvals.__getitem__)
    return simplex[order], [fvals[i] for i in order]


def _replace_worst(simplex: np.ndarray, fvals: list[float], x: np.ndarray, fx: float) -> None:
    """Drops the last (worst) vertex and inserts x after every value equal
    to fx, where a stable sort would put it, shifting the rows below."""
    del fvals[-1]
    k = bisect_right(fvals, fx)
    fvals.insert(k, fx)
    simplex[k + 1 :] = simplex[k:-1]
    simplex[k] = x


def _simplex_descent(
    f: Callable[[np.ndarray], float],
    x0: np.ndarray,
    max_iters: int,
    tol: float,
) -> _SimplexRun:
    """One simplex run from x0, a point in the box.  Converges when the
    simplex collapses below tol or the best value improves by less than
    tol over a full sweep (n+1 consecutive steps).

    The vertices stay sorted by value, best first, ties in arrival order.
    A full stable sort runs only after the initial evaluations and after a
    shrink; otherwise the one new vertex is inserted after every equal
    value.  The collapse test measures the whole simplex only when the
    worst vertex, whose distance from the best bounds the size from below,
    is already within tol."""
    n = x0.shape[0]
    simplex = _initial_simplex(x0)
    simplex, fvals = _sorted(simplex, [f(x) for x in simplex])
    sweep = n + 1
    checkpoint = fvals[0]
    iterations = 0
    stop_reason = BUDGET

    while iterations < max_iters:
        worst = simplex[-1]
        centroid = np.add.reduce(simplex[:-1], axis=0) / n
        step = centroid - worst
        reflected = _clip(centroid + step)
        f_reflected = f(reflected)

        if f_reflected < fvals[0]:
            expanded = _clip(centroid + _EXPAND * step)
            f_expanded = f(expanded)
            if f_expanded < f_reflected:
                _replace_worst(simplex, fvals, expanded, f_expanded)
            else:
                _replace_worst(simplex, fvals, reflected, f_reflected)
        elif f_reflected < fvals[-2]:
            _replace_worst(simplex, fvals, reflected, f_reflected)
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
                _replace_worst(simplex, fvals, contracted, f_contracted)
            else:
                best = simplex[0]
                for i in range(1, n + 1):
                    simplex[i] = _clip(best + _SHRINK * (simplex[i] - best))
                    fvals[i] = f(simplex[i])
                simplex, fvals = _sorted(simplex, fvals)

        iterations += 1

        # the worst vertex's distance from the best is a lower bound on the
        # size, and cheaper to take as floats than through ndarray.max
        best = simplex[0]
        if max(map(abs, (simplex[-1] - best).tolist())) < tol and abs(simplex - best).max() < tol:
            stop_reason = COLLAPSE
            break
        if iterations % sweep == 0:
            if checkpoint - fvals[0] < tol:
                stop_reason = PLATEAU
                break
            checkpoint = fvals[0]

    return _SimplexRun(simplex[0].copy(), float(fvals[0]), iterations, stop_reason)


def _search_objective(config: OptimizeConfig) -> Callable[[np.ndarray], float]:
    """The negated `objective` at config's d and t_target, for coupling
    arrays whose count and finiteness were checked once per search.

    The closure owns one d x d chain matrix: each call rewrites both bond
    diagonals of it, makes one `_eigh` and reads the end-to-end fidelity
    with the arithmetic of `transfer_fidelity` on a real chain, bit for bit,
    without objective's per-call ChainSpec and time checks (OptimizeConfig
    certified t_target)."""
    d = config.d
    chain = np.zeros((d, d))
    flat = chain.reshape(-1)
    upper, lower = flat[1 :: d + 1], flat[d :: d + 1]  # h[l, l+1], h[l+1, l]
    minus_it = -1j * float(config.t_target)

    def negated(x: np.ndarray) -> float:
        np.subtract(0.0, x, out=upper)  # -A_l, as lattice._line_matrix writes it
        lower[...] = upper
        values, vectors = _eigh(chain)
        amplitude = complex(np.exp(values * minus_it) @ (vectors[d - 1] * vectors[0]))
        return -min(abs(amplitude) ** 2, 1.0)

    return negated


def optimize_couplings(config: OptimizeConfig, initial) -> OptimizeResult:
    """Search for the coupling profile maximizing end-to-end fidelity at
    config.t_target.

    Runs the simplex from the initial profile, then restarts from the
    best point with seeded jitter as long as the previous run improved
    the best value by at least tol and budget remains.  The best
    objective seen is non-decreasing throughout, and identical inputs
    give identical results.
    """
    if np.iscomplexobj(initial):  # the float conversion would drop the imaginary part
        raise InvalidConfigError(f"couplings must be real, got {initial!r}")
    initial = np.asarray(initial, dtype=float).reshape(-1)
    # Validated once per search: ChainSpec checks the coupling count and
    # finiteness of the start before clipping could turn +-inf into
    # +-COUPLING_BOUND, and clipped simplex moves and jitter of finite
    # points keep both; OptimizeConfig certifies d and t_target, and the
    # end sites 0 and d-1 exist for every d >= 2.
    ChainSpec(d=config.d, topology=LINE, E0=0.0, couplings=initial.tolist())
    x_start = _clip(initial)
    negated = _search_objective(config)
    rng = np.random.default_rng(config.seed)
    best_x = x_start.copy()
    best_f = negated(best_x)
    iterations = 0
    runs = 0

    while iterations < config.max_iters:
        run = _simplex_descent(negated, x_start, config.max_iters - iterations, config.tol)
        iterations += run.iterations
        runs += 1
        improved = run.f_best < best_f - config.tol
        if run.f_best < best_f:
            best_x, best_f = run.x_best, run.f_best
        if run.stop_reason == BUDGET or not improved:
            break
        jitter = 0.05 * max(1.0, float(np.max(np.abs(best_x))))
        x_start = _clip(best_x + jitter * rng.standard_normal(best_x.shape[0]))

    scale = float(np.max(np.abs(best_x)))
    if scale > 0:
        reported = best_x / scale
        fidelity = objective(reported, scale * config.t_target, config.d)
    else:
        reported = best_x
        fidelity = -best_f
    return OptimizeResult(
        couplings=tuple(reported),
        fidelity=float(np.clip(fidelity, 0.0, 1.0)),
        iterations=iterations,
        stop_reason=run.stop_reason,
        restarts=runs - 1,
    )
