"""Derivative-free search over line-chain coupling profiles.

Maximizes end-to-end transfer fidelity at a fixed time with a simplex
descent (reflection / expansion / contraction / shrink) on the negated
objective, plus deterministic seeded restarts.  The known optimum is the
sqrt(j(d-j)) profile, which the search should rediscover from a uniform
start and leave untouched when given as the initial point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .lattice import LINE, ChainSpec, _line_matrix
from .numerics import HERMITIAN, Operator
from .pst import _fidelity

COUPLING_BOUND = 10.0

_REFLECT = 1.0
_EXPAND = 2.0
_CONTRACT = 0.5
_SHRINK = 0.5


def _line_fidelity(couplings, t: float, d: int, hbar: float = 1.0) -> float:
    """End-to-end transfer fidelity of a d-site line chain at time t, for
    couplings that ChainSpec's rule already certified (d-1 finite values),
    so the tridiagonal is hermitian and finite by construction.  Time and
    hbar are still checked by `numerics.evolution_phases`."""
    chain = Operator._certified(_line_matrix(d, 0.0, couplings), HERMITIAN)
    return _fidelity(chain, t, 0, d - 1, hbar)


def objective(couplings, t: float, d: int, hbar: float = 1.0) -> float:
    """End-to-end transfer fidelity of a line chain at time t.

    Invariant under flipping the sign of any coupling (the alternating
    sign gauge) and under the joint rescaling (c*couplings, t/c).
    ChainSpec raises BadCouplingCountError unless there are d-1 couplings,
    and ValueError unless they are finite and real.
    """
    couplings = np.asarray(couplings).reshape(-1)  # ChainSpec converts and checks
    spec = ChainSpec(d=d, topology=LINE, E0=0.0, couplings=couplings.tolist())
    return _line_fidelity(spec.couplings, t, spec.d, hbar)


@dataclass(frozen=True)
class OptimizeConfig:
    """Search settings: chain length, target transfer time, iteration
    budget, convergence threshold, and the seed for restart jitter."""

    d: int
    t_target: float
    max_iters: int = 2000
    tol: float = 1e-9
    seed: int = 0

    def __post_init__(self) -> None:
        if self.d < 2:
            raise ValueError(f"optimization needs d >= 2, got {self.d}")
        if not 0 < self.t_target < math.inf:
            raise ValueError(f"t_target must be positive and finite, got {self.t_target!r}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
        if not 0 < self.tol < math.inf:
            raise ValueError(f"tol must be positive and finite, got {self.tol!r}")


@dataclass(frozen=True)
class OptimizeResult:
    """Best profile found, gauge-normalized to max |A_j| = 1.

    fidelity is re-evaluated from the reported couplings at the
    gauge-adjusted time scale*t_target, where scale is the normalization
    factor that was divided out (the rescaling leaves the physics fixed).
    """

    couplings: tuple[float, ...]
    fidelity: float
    iterations: int
    converged: bool

    def __post_init__(self) -> None:
        if not 0.0 <= self.fidelity <= 1.0 + 1e-12:
            raise ValueError(f"fidelity {self.fidelity!r} outside [0, 1]")
        object.__setattr__(self, "couplings", tuple(float(a) for a in self.couplings))


class _SimplexRun(NamedTuple):
    x_best: np.ndarray
    f_best: float
    iterations: int
    converged: bool


def _clip(x: np.ndarray) -> np.ndarray:
    # np.clip's own arithmetic, without its argument handling
    return np.minimum(np.maximum(x, -COUPLING_BOUND), COUPLING_BOUND)


def _initial_simplex(x0: np.ndarray) -> np.ndarray:
    n = x0.shape[0]
    simplex = np.tile(x0, (n + 1, 1))
    for i in range(n):
        if simplex[i + 1, i] != 0.0:
            simplex[i + 1, i] *= 1.05
        else:
            simplex[i + 1, i] = 0.00025
    return _clip(simplex)


def _simplex_descent(
    f: Callable[[np.ndarray], float],
    x0: np.ndarray,
    max_iters: int,
    tol: float,
) -> _SimplexRun:
    """One simplex run.  Converges when the simplex collapses below tol
    or the best value improves by less than tol over a full sweep
    (n+1 consecutive steps)."""
    n = x0.shape[0]
    simplex = _initial_simplex(x0)
    fvals = np.array([f(x) for x in simplex])
    sweep = n + 1
    checkpoint = float(fvals.min())
    iterations = 0
    converged = False

    while iterations < max_iters:
        order = fvals.argsort(kind="stable")
        simplex, fvals = simplex[order], fvals[order]

        centroid = np.add.reduce(simplex[:-1], axis=0) / n  # the sum and division of mean
        reflected = _clip(centroid + _REFLECT * (centroid - simplex[-1]))
        f_reflected = f(reflected)

        if f_reflected < fvals[0]:
            expanded = _clip(centroid + _EXPAND * (centroid - simplex[-1]))
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
                contracted = _clip(centroid + _CONTRACT * (simplex[-1] - centroid))
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

        size = float(abs(simplex - simplex[fvals.argmin()]).max())
        if size < tol:
            converged = True
            break
        if iterations % sweep == 0:
            best_now = float(fvals.min())
            if checkpoint - best_now < tol:
                converged = True
                break
            checkpoint = best_now

    k = int(fvals.argmin())
    return _SimplexRun(simplex[k].copy(), float(fvals[k]), iterations, converged)


def _search_objective(config: OptimizeConfig) -> Callable[[np.ndarray], float]:
    """The negated `objective` at config's d and t_target, without the
    per-call ChainSpec: for coupling arrays whose count and finiteness
    were checked once per search."""

    def negated(x: np.ndarray) -> float:
        return -_line_fidelity(x, config.t_target, config.d)

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
        raise ValueError(f"couplings must be real, got {initial!r}")
    initial = np.asarray(initial, dtype=float).reshape(-1)
    x_start = _clip(initial)
    # Validated once per search: ChainSpec checks the coupling count and
    # finiteness of the start, and clipped simplex moves and jitter of
    # finite points keep both; OptimizeConfig certifies d and t_target,
    # and the end sites 0 and d-1 exist for every d >= 2.
    ChainSpec(d=config.d, topology=LINE, E0=0.0, couplings=x_start.tolist())
    negated = _search_objective(config)
    rng = np.random.default_rng(config.seed)
    best_x = x_start.copy()
    best_f = negated(best_x)
    iterations = 0
    converged = False

    while iterations < config.max_iters:
        run = _simplex_descent(negated, x_start, config.max_iters - iterations, config.tol)
        iterations += run.iterations
        improved = run.f_best < best_f - config.tol
        if run.f_best < best_f:
            best_x, best_f = run.x_best, run.f_best
        converged = run.converged
        if not run.converged or not improved:
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
        converged=converged,
    )
