import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm, expm_frechet

from conftest import expm_series
from qwire import optimizer
from qwire.errors import BadCouplingCountError, InvalidConfigError, QwireError
from qwire.optimizer import (
    _CONTRACT,
    _EXPAND,
    _SHRINK,
    BUDGET,
    CERTIFIED,
    COLLAPSE,
    COUPLING_BOUND,
    PLATEAU,
    OptimizeConfig,
    OptimizeResult,
    _clip,
    _initial_simplex,
    _search,
    _SimplexRun,
    objective,
    optimize_couplings,
)
from qwire.pst import pst_couplings


def _search_objective(config):
    return _search(config)[0]


def _search_derivatives(config):
    return _search(config)[1]


class TestObjective:
    def test_transfer_profile_reaches_one(self):
        # vartheta = A, so the crossing sits at pi / (2A)
        for d, A in [(3, 1.0), (5, 0.5)]:
            fid = objective(pst_couplings(d, A), math.pi / (2 * A), d)
            assert fid >= 1 - 1e-10

    def test_zero_couplings_cannot_propagate(self):
        for d in (2, 4, 7):
            assert objective(np.zeros(d - 1), 1.7, d) == 0.0

    def test_sign_gauge_invariance(self):
        rng = np.random.default_rng(21)
        couplings = rng.uniform(0.2, 2.0, size=4)
        base = objective(couplings, 2.3, 5)
        assert abs(objective(-couplings, 2.3, 5) - base) <= 1e-12
        flipped = couplings * np.array([1, -1, 1, -1])
        assert abs(objective(flipped, 2.3, 5) - base) <= 1e-12

    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 1000), c=st.floats(0.1, 5.0), t=st.floats(0.1, 5.0))
    def test_scale_gauge(self, seed, c, t):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 7))
        couplings = rng.uniform(0.2, 2.0, size=d - 1)
        assert abs(objective(c * couplings, t / c, d) - objective(couplings, t, d)) <= 1e-10

    def test_coupling_count_checked(self):
        with pytest.raises(BadCouplingCountError):
            objective([1.0, 1.0], 1.0, 4)

    @pytest.mark.parametrize("d", range(2, 11))
    def test_matches_power_series_propagator(self, d):
        # |exp(-iHt)[d-1, 0]|^2 with H = -A_l on the bonds, summed term by term
        rng = np.random.default_rng(400 + d)
        couplings = rng.uniform(-1.5, 1.5, d - 1)
        h = np.diag(-couplings, 1) + np.diag(-couplings, -1)
        for t in (0.4, 1.3):
            oracle = abs(expm_series(-1j * h * t)[d - 1, 0]) ** 2
            assert abs(objective(couplings, t, d) - oracle) <= 1e-12


class TestConfig:
    def test_invariants(self):
        with pytest.raises(ValueError):
            OptimizeConfig(d=4, t_target=-1.0)
        with pytest.raises(ValueError):
            OptimizeConfig(d=4, t_target=1.0, max_iters=0)
        with pytest.raises(ValueError):
            OptimizeConfig(d=4, t_target=1.0, tol=0.0)
        with pytest.raises(ValueError):
            OptimizeConfig(d=1, t_target=1.0)
        for t_target in (math.inf, math.nan):
            with pytest.raises(ValueError):
                OptimizeConfig(d=4, t_target=t_target)
        for tol in (math.nan, math.inf):
            with pytest.raises(ValueError):
                OptimizeConfig(d=4, t_target=1.0, tol=tol)

    @pytest.mark.parametrize("kwargs", [
        {"d": 4, "t_target": 1j}, {"d": 4, "t_target": np.complex128(1.0)},
        {"d": 4, "t_target": 1.0, "tol": 1j}, {"d": 4, "t_target": 10**400},
        {"d": 4, "t_target": 1e200}, {"d": 4, "t_target": optimizer._T_TARGET_LIMIT},
        {"d": 4, "t_target": "1.0"},
        {"d": 4.5, "t_target": 1.0}, {"d": 4.0, "t_target": 1.0},
        {"d": 4, "t_target": 1.0, "seed": -1}, {"d": 4, "t_target": 1.0, "seed": 1.0},
        {"d": 4, "t_target": 1.0, "seed": math.nan},
        {"d": 4, "t_target": 1.0, "max_iters": math.nan},
        {"d": 4, "t_target": 1.0, "max_iters": 2.5},
        {"d": 4, "t_target": 1.0, "max_iters": math.inf},
    ])
    def test_bad_type_is_value_error(self, kwargs):
        # not a bare TypeError from a comparison, nor a silently accepted d
        with pytest.raises(ValueError) as excinfo:
            OptimizeConfig(**kwargs)
        # a QwireError too, so the CLI maps it to exit 2 without a copy of the rule
        assert isinstance(excinfo.value, QwireError)
        assert excinfo.type is InvalidConfigError

    @pytest.mark.parametrize("start", [1.0, COUPLING_BOUND])
    @pytest.mark.parametrize("d", [2, 6, 12])
    def test_time_just_below_the_limit_searches_cleanly(self, d, start):
        # beyond the limit rounding a level moves its phase by over a radian;
        # just below it a short search still raises no warning
        config = OptimizeConfig(d=d, t_target=math.nextafter(optimizer._T_TARGET_LIMIT, 0),
                                max_iters=20)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = optimize_couplings(config, np.full(d - 1, start))
        assert 0.0 <= result.fidelity <= 1.0

    def test_numpy_integer_d_accepted(self):
        assert OptimizeConfig(d=np.int64(4), t_target=1.0).d == 4

    def test_numpy_integer_budget_and_seed_accepted(self):
        config = OptimizeConfig(d=4, t_target=1.0, max_iters=np.int32(5), seed=np.uint8(0))
        assert (config.max_iters, config.seed) == (5, 0)

    def test_result_fidelity_range(self):
        with pytest.raises(ValueError):
            OptimizeResult(couplings=(1.0,), fidelity=1.2, iterations=1,
                           stop_reason="plateau", restarts=0, gradient_norm=0.0,
                           decrement=math.inf)

    def test_result_stop_reason_checked(self):
        with pytest.raises(ValueError, match="unknown stop reason"):
            OptimizeResult(couplings=(1.0,), fidelity=0.5, iterations=1,
                           stop_reason="converged", restarts=0, gradient_norm=0.0,
                           decrement=math.inf)

    @pytest.mark.parametrize("gradient_norm, decrement",
                             [(math.nan, 0.0), (0.0, math.nan), (-1.0, 0.0), (0.0, -1e-300),
                              (math.inf, 0.0)])
    def test_result_certificate_fields_checked(self, gradient_norm, decrement):
        with pytest.raises(ValueError, match="gradient norm"):
            OptimizeResult(couplings=(1.0,), fidelity=0.5, iterations=1,
                           stop_reason="plateau", restarts=0, gradient_norm=gradient_norm,
                           decrement=decrement)

    # only a certified search has converged: a collapse or plateau of the
    # simplex alone is no evidence of a maximum
    @pytest.mark.parametrize("newton_steps", [-1, 2.0, math.nan, "3"])
    def test_result_newton_steps_checked(self, newton_steps):
        with pytest.raises(ValueError, match="newton_steps"):
            OptimizeResult(couplings=(1.0,), fidelity=0.5, iterations=1,
                           stop_reason="plateau", restarts=0, gradient_norm=0.0,
                           decrement=math.inf, newton_steps=newton_steps)

    @pytest.mark.parametrize("stop_reason, converged",
                             [("certified", True), ("collapse", False), ("plateau", False),
                              ("budget", False)])
    def test_result_converged_is_derived(self, stop_reason, converged):
        result = OptimizeResult(couplings=(1.0,), fidelity=0.5, iterations=1,
                                stop_reason=stop_reason, restarts=0, gradient_norm=0.0,
                                decrement=math.inf)
        assert result.converged is converged


class TestOptimize:
    def test_single_bond_recovers_unit_coupling(self):
        # 1-parameter oracle: fidelity is sin^2(a t), maximal at a = 1 for t = pi/2
        config = OptimizeConfig(d=2, t_target=math.pi / 2, seed=1)
        result = optimize_couplings(config, [0.5])
        assert result.converged
        assert result.fidelity >= 1 - 1e-6
        assert abs(result.couplings[0] - 1.0) <= 1e-3

    def test_recovers_transfer_profile_from_uniform(self):
        config = OptimizeConfig(d=4, t_target=math.pi / 2, seed=7)
        result = optimize_couplings(config, np.ones(3))
        assert result.converged
        assert result.fidelity >= 0.999
        target = pst_couplings(4, 1.0) / 2.0  # gauge-normalized ground truth
        recovered = np.abs(result.couplings)
        assert np.all(np.abs(recovered - target) <= 0.02 * target)

    @pytest.mark.parametrize("d", range(2, 7))
    def test_recovered_optimum_matches_known_profile(self, d):
        config = OptimizeConfig(d=d, t_target=math.pi / 2, seed=7, max_iters=4000)
        result = optimize_couplings(config, np.ones(d - 1))
        target = pst_couplings(d, 1.0)
        target = target / max(abs(target))
        recovered = np.abs(result.couplings)
        assert result.converged
        assert np.all(np.abs(recovered - target) <= 0.02 * target)

    def test_transfer_profile_is_fixed_point(self):
        d = 5
        config = OptimizeConfig(d=d, t_target=math.pi / 2, seed=0)
        result = optimize_couplings(config, pst_couplings(d, 1.0))
        assert result.converged
        assert result.fidelity >= 1 - 1e-10
        # stalls within the first sweep: one step per simplex vertex
        assert result.iterations == d

    def test_improves_on_initial(self):
        config = OptimizeConfig(d=4, t_target=math.pi / 2, seed=3)
        initial = np.array([0.4, 1.9, 0.8])
        result = optimize_couplings(config, initial)
        assert result.fidelity >= objective(initial, config.t_target, config.d)

    def test_deterministic_given_seed(self):
        config = OptimizeConfig(d=4, t_target=1.3, seed=42, max_iters=300)
        initial = np.array([0.6, 1.2, 0.9])
        first = optimize_couplings(config, initial)
        second = optimize_couplings(config, initial)
        assert first.couplings == second.couplings
        assert first.fidelity == second.fidelity
        assert first.iterations == second.iterations
        assert first.converged == second.converged

    def test_reported_profile_is_gauge_normalized(self):
        config = OptimizeConfig(d=4, t_target=math.pi / 2, seed=7)
        result = optimize_couplings(config, np.ones(3))
        assert abs(max(abs(a) for a in result.couplings) - 1.0) <= 1e-12

    def test_initial_length_checked(self):
        config = OptimizeConfig(d=4, t_target=1.0)
        with pytest.raises(BadCouplingCountError,
                           match=r"^line chain with d=4 needs 3 couplings, got 2$"):
            optimize_couplings(config, [1.0, 1.0])

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_non_finite_start_rejected(self, value, position):
        # checked before clipping, which would turn +-inf into +-COUPLING_BOUND
        start = [1.0, 1.0, 1.0]
        start[position] = value
        config = OptimizeConfig(d=4, t_target=1.0, max_iters=50)
        with pytest.raises(ValueError, match=r"^couplings must be finite$"):
            optimize_couplings(config, start)

    def test_start_beyond_bound_is_clipped(self):
        config = OptimizeConfig(d=4, t_target=1.0, max_iters=50)
        far = optimize_couplings(config, [1.0, 3 * COUPLING_BOUND, -1e300])
        clipped = optimize_couplings(config, [1.0, COUPLING_BOUND, -COUPLING_BOUND])
        assert far == clipped

    @pytest.mark.parametrize("start", [[1.0, np.complex128(1 + 2j), 1.0], np.ones(3, dtype=complex)])
    def test_complex_start_rejected(self, start):
        config = OptimizeConfig(d=4, t_target=1.0)
        with pytest.raises(ValueError, match="couplings must be real"):
            optimize_couplings(config, start)
        with pytest.raises(ValueError, match="couplings must be real"):
            objective(start, 1.0, 4)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(data=st.data(), d=st.integers(2, 12), t=st.floats(0.01, 10.0))
    def test_search_evaluator_equals_negated_objective(self, data, d, t):
        # the search skips objective's per-call checks and refills one matrix;
        # x1, x2, x1 on one closure: no value moves, and no call sees the last one's bonds
        bound = st.floats(-COUPLING_BOUND, COUPLING_BOUND)
        profile = st.lists(bound, min_size=d - 1, max_size=d - 1).map(np.array)
        x1, x2 = data.draw(profile), data.draw(profile)
        negated = _search_objective(OptimizeConfig(d=d, t_target=t))
        for x in (x1, x2, x1):
            assert negated(x).hex() == (-objective(x, t, d)).hex()

    @pytest.mark.parametrize("d", range(2, 10))
    def test_search_route_equals_objective_route(self, d, monkeypatch):
        # whole searches, bit for bit, against the same searches on the checked objective
        rng = np.random.default_rng(300 + d)
        starts = (np.ones(d - 1), rng.uniform(0.5, 1.5, d - 1))
        configs = [OptimizeConfig(d=d, t_target=math.pi / 2, seed=seed) for seed in (0, 1, 2)]
        shipped = [optimize_couplings(c, x) for c in configs for x in starts]
        search = optimizer._search
        monkeypatch.setattr(optimizer, "_search",
                            lambda c: (lambda x: -objective(x, c.t_target, c.d), search(c)[1]))
        assert shipped == [optimize_couplings(c, x) for c in configs for x in starts]

    def test_budget_exhaustion_reports_not_converged(self):
        config = OptimizeConfig(d=4, t_target=math.pi / 2, max_iters=3, seed=0)
        result = optimize_couplings(config, np.ones(3))
        assert not result.converged
        assert result.iterations == 3
        assert result.stop_reason == "budget"

    def test_all_zero_best_point_is_reported_unscaled(self):
        # at t = 1e-200 every sin^2(J t) underflows to 0, so nothing beats the
        # zero start, and a zero profile has no largest coupling to divide by
        result = optimize_couplings(OptimizeConfig(d=2, t_target=1e-200), [0.0])
        assert result.couplings == (0.0,)
        assert result.fidelity == 0.0 and result.gradient_norm == 0.0
        assert not result.converged

    @pytest.mark.parametrize("config, start, stop_reason", [
        (OptimizeConfig(d=8, t_target=math.pi / 2), np.ones(7), CERTIFIED),
        (OptimizeConfig(d=4, t_target=1.5, max_iters=1), np.ones(3), BUDGET),
        (OptimizeConfig(d=2, t_target=1e-200), [0.0], COLLAPSE),  # the all-zero best point
    ])
    def test_fidelity_is_the_search_value(self, config, start, stop_reason, monkeypatch):
        # the result reports the value the search computed at its best point,
        # the one its certificate read, with no second evaluation route
        def refused(*args):
            raise AssertionError("optimize_couplings evaluated objective")

        seen = []
        search = optimizer._search

        def recording(c):
            negated, derivatives = search(c)

            def recorded(x):
                value = negated(x)
                seen.append(value.hex())
                return value
            return recorded, derivatives

        monkeypatch.setattr(optimizer, "objective", refused)
        monkeypatch.setattr(optimizer, "_search", recording)
        result = optimize_couplings(config, start)
        assert result.stop_reason == stop_reason
        assert (-result.fidelity).hex() in seen

    def test_start_on_the_bound_is_searched(self):
        # every coordinate at +COUPLING_BOUND: the first simplex used to be
        # n+1 copies of the start, reported converged after one iteration
        config = OptimizeConfig(d=8, t_target=math.pi / 2)
        start = [COUPLING_BOUND] * 7
        result = optimize_couplings(config, start)
        assert result.iterations > 1
        assert result.fidelity > objective(start, config.t_target, config.d) + 0.5


def _frechet_gradient(x: np.ndarray, t: float, d: int) -> np.ndarray:
    """Gradient of -F from scipy's Frechet derivative of expm: an
    independent route to da/dA_l = [L(-iHt, -iEt)][d-1, 0], where E is the
    bond's -1 pair, and then d(-F) = -2 Re(conj(a) da)."""
    h = np.diag(-x, 1) + np.diag(-x, -1)
    gradient = np.empty(d - 1)
    for bond in range(d - 1):
        e = np.zeros((d, d))
        e[bond, bond + 1] = e[bond + 1, bond] = -1.0
        propagator, derivative = expm_frechet(-1j * t * h, -1j * t * e)
        amplitude = propagator[d - 1, 0]
        gradient[bond] = -2.0 * (np.conj(amplitude) * derivative[d - 1, 0]).real
    return gradient


@st.composite
def _profiles(draw):
    """(d, t, couplings): free profiles, mirror-symmetric ones whose middle
    bond is near 0 (near-degenerate pairs of eigenvalues) and profiles with
    coordinates on +-COUPLING_BOUND."""
    d = draw(st.integers(2, 12))
    t = draw(st.floats(0.01, 10.0))
    bound = st.floats(-COUPLING_BOUND, COUPLING_BOUND)
    x = np.array(draw(st.lists(bound, min_size=d - 1, max_size=d - 1)))
    kind = draw(st.sampled_from(["free", "split", "bound"]))
    if kind == "split":
        x = np.concatenate([x[: d // 2], x[: (d - 1) // 2][::-1]])
        x[(d - 1) // 2] = draw(st.sampled_from([0.0, 1e-14, -1e-11, 1e-8, -1e-5]))
    elif kind == "bound":
        on = draw(st.lists(st.booleans(), min_size=d - 1, max_size=d - 1))
        signs = draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=d - 1, max_size=d - 1))
        x = np.where(on, np.array(signs) * COUPLING_BOUND, x)
    return d, t, x


class TestGradient:
    """`_search`'s derivatives: the negated objective's value, bit for bit,
    and its analytic gradient against two independent routes."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(case=_profiles())
    def test_value_is_the_search_objective(self, case):
        d, t, x = case
        config = OptimizeConfig(d=d, t_target=t)
        negated, derivatives = _search(config)
        assert derivatives(x)[0].hex() == negated(x).hex() == (-objective(x, t, d)).hex()

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(case=_profiles())
    def test_matches_expm_frechet(self, case):
        # |dF/dA_l| <= 2t: the derivative of exp(-iHt) along a unit bond is at most t
        d, t, x = case
        value, gradient, _ = _search_derivatives(OptimizeConfig(d=d, t_target=t))(x)
        assert np.abs(gradient - _frechet_gradient(x, t, d)).max() <= 1e-12 * max(1.0, t)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(case=_profiles())
    def test_matches_central_differences_of_objective(self, case):
        # the truncation error is h^2/6 times the third derivative, which grows as t^3
        d, t, x = case
        step = 1e-5
        value, gradient, _ = _search_derivatives(OptimizeConfig(d=d, t_target=t))(x)
        differences = np.array([
            -(objective(x + step * e, t, d) - objective(x - step * e, t, d)) / (2 * step)
            for e in np.eye(d - 1)
        ])
        assert np.abs(gradient - differences).max() <= 1e-9 * max(1.0, t**3)

    def test_one_closure_leaves_no_state_between_calls(self, monkeypatch):
        # x1, x2, x1 on one closure: the chain matrix is refilled every call
        derivatives = _search_derivatives(OptimizeConfig(d=6, t_target=1.1))
        x1, x2 = np.linspace(0.5, 1.5, 5), np.linspace(-3.0, 2.0, 5)
        first = derivatives(x1)
        derivatives(x2)
        again = derivatives(x1)
        assert first[0].hex() == again[0].hex()
        assert first[1].tobytes() == again[1].tobytes()
        assert first[2].tobytes() == again[2].tobytes()
        # the two closures of one search share that matrix: value at x1,
        # derivatives at x2, value at x1, each equal to a fresh closure's
        config = OptimizeConfig(d=6, t_target=1.1)
        negated, derivatives = _search(config)
        v1, (v2, g2, h2), v3 = negated(x1), derivatives(x2), negated(x1)
        fresh_v1 = _search_objective(config)(x1)
        fresh_v2, fresh_g2, fresh_h2 = _search_derivatives(config)(x2)
        assert v1.hex() == v3.hex() == fresh_v1.hex()
        assert v2.hex() == fresh_v2.hex()
        assert g2.tobytes() == fresh_g2.tobytes()
        assert h2.tobytes() == fresh_h2.tobytes()
        # derivatives at the point negated just solved reuse its eigenpairs;
        # the point is known by its bytes, so one rewritten in place, as a
        # simplex row is, is solved again; either way the result is a fresh
        # closure's, byte for byte
        fresh = [_search_derivatives(config)(x1), (fresh_v2, fresh_g2, fresh_h2)]
        solves = []
        eigh = optimizer._eigh

        def counting(matrix):
            solves.append(matrix.shape)
            return eigh(matrix)

        monkeypatch.setattr(optimizer, "_eigh", counting)
        negated, derivatives = _search(config)
        x = x1.copy()
        negated(x)
        assert len(solves) == 1
        memo = derivatives(x)
        assert len(solves) == 1
        x[:] = x2
        moved = derivatives(x)
        assert len(solves) == 2
        for got, want in zip((memo, moved), fresh):
            assert got[0].hex() == want[0].hex()
            assert got[1].tobytes() == want[1].tobytes()
            assert got[2].tobytes() == want[2].tobytes()
        # without the Hessian: the same value and gradient, and no solve
        value, gradient, none = derivatives(x, False)
        assert none is None and len(solves) == 2
        assert value.hex() == moved[0].hex()
        assert gradient.tobytes() == moved[1].tobytes()

    @pytest.mark.parametrize("d", range(2, 9))
    def test_vanishes_on_the_transfer_profile(self, d):
        # F = 1 there, the maximum: every partial derivative is rounding
        _, gradient, _ = _search_derivatives(OptimizeConfig(d=d, t_target=math.pi / 2))(
            pst_couplings(d, 1.0))
        assert np.abs(gradient).max() <= 1e-13


def _block_hessian(x: np.ndarray, t: float, d: int) -> np.ndarray:
    """Hessian of -F from scipy's expm of block-bidiagonal matrices, an
    independent route (Mathias, SIAM J. Matrix Anal. Appl. 17, 610 (1996)):
    with X = -iHt and X_l = -itE_l along bond l, the (1, 2) block of
    exp([[X, X_l], [0, X]]) is the Frechet derivative of exp at X along
    X_l, and the (1, 3) block B(l, m) of exp([[X, X_l, 0], [0, X, X_m],
    [0, 0, X]]) gives the second, B(l, m) + B(m, l); then
    d2F = 2 Re(da conj(da)^T) + 2 Re(conj(a) d2a)."""
    h = np.diag(-x, 1) + np.diag(-x, -1)
    x_bonds = []
    for bond in range(d - 1):
        e = np.zeros((d, d))
        e[bond, bond + 1] = e[bond + 1, bond] = -1.0
        x_bonds.append(-1j * t * e)
    big = -1j * t * np.kron(np.eye(3), h)
    da = np.empty(d - 1, dtype=complex)
    d2a = np.empty((d - 1, d - 1), dtype=complex)
    for l, x_l in enumerate(x_bonds):
        big[:d, d : 2 * d] = x_l
        da[l] = expm(big[: 2 * d, : 2 * d])[d - 1, d]
        for m, x_m in enumerate(x_bonds):
            big[d : 2 * d, 2 * d :] = x_m
            d2a[l, m] = expm(big)[d - 1, 2 * d]
    amplitude = expm(-1j * t * h)[d - 1, 0]
    d2a += d2a.T
    return -2.0 * (np.outer(da, da.conj()).real + (np.conj(amplitude) * d2a).real)


def _second(values, t: float) -> complex:
    """f[a, b, c] of exp(-i lambda t) through the search's own two steps."""
    values = np.array(values, dtype=float)
    second = optimizer._second_differences(
        values, optimizer._first_differences(values, t), t, optimizer._triples(3))
    return complex(second[np.ravel_multi_index((0, 1, 2), (3, 3, 3))])


class TestHessian:
    """The exact Hessian from the eigenpairs of the gradient's one `_eigh`:
    its divided differences against their closed forms and limits, and the
    whole Hessian against an independent route."""

    @pytest.mark.parametrize("d", range(1, 13))
    def test_triples_match_the_sorted_cube(self, d):
        # each triple of the index cube in C order, sorted, with the flat
        # positions of its two pairs and of the triples (l, l, l), built
        # here one triple at a time
        ordered = [sorted(triple) for triple in itertools.product(range(d), repeat=3)]
        lo, mid, hi = (np.array([triple[p] for triple in ordered], dtype=int) for p in range(3))
        equal = [l * (d * d + d + 1) for l in range(d)]
        oracle = (lo, mid, hi, mid * d + hi, lo * d + mid, equal)
        triples = optimizer._triples(d)
        for name, got, want in zip(optimizer._Triples._fields, triples, oracle):
            assert np.array_equal(got, want), name

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(case=_profiles())
    def test_matches_block_expm(self, case):
        # the split profiles put eigenvalues within 1e-14..1e-5 of one
        # another, where the series branch runs; entries grow as t^2
        d, t, x = case
        hessian = _search_derivatives(OptimizeConfig(d=d, t_target=t))(x)[2]
        assert np.array_equal(hessian, hessian.T)
        assert np.abs(hessian - _block_hessian(x, t, d)).max() <= 1e-12 * max(1.0, t * t)

    @pytest.mark.parametrize("t", [0.3, math.pi / 2, 4.0, 10.0])
    def test_separated_triples_match_expm(self, t):
        # Opitz: the (0, 2) entry of f(J), J unit upper bidiagonal with
        # diagonal a, b, c, is f[a, b, c]; here f(J) = expm(-itJ)
        rng = np.random.default_rng(int(10 * t))
        checked = 0
        while checked < 100:
            a, b, c = np.sort(rng.uniform(-2 * COUPLING_BOUND, 2 * COUPLING_BOUND, 3))
            if min(b - a, c - b) * t < optimizer._CLUSTER:
                continue
            exact = expm(-1j * t * np.array([[a, 1.0, 0.0], [0.0, b, 1.0], [0.0, 0.0, c]]))[0, 2]
            assert abs(_second([a, b, c], t) - exact) <= 1e-12 * abs(exact)
            checked += 1

    @pytest.mark.parametrize("t", [0.3, math.pi / 2, 4.0, 10.0, 1e3])
    @pytest.mark.parametrize("lam", [-17.3, 0.0, 0.7, 19.9])
    def test_equal_points_give_half_the_second_derivative(self, t, lam):
        # f[l, l, l] = f''(l) / 2 = (-it)^2 exp(-itl) / 2, from the closed
        # form of three equal indices and from the series at three equal
        # eigenvalues alike; the phase t*l is exact to about eps*|t l|
        values = np.full(3, lam)
        limit = (-1j * t) ** 2 * np.exp(-1j * t * lam) / 2
        second = optimizer._second_differences(
            values, optimizer._first_differences(values, t), t, optimizer._triples(3))
        tolerance = 4 * np.finfo(float).eps * max(1.0, abs(lam) * t) * abs(limit)
        assert np.abs(second - limit).max() <= tolerance
        assert abs(optimizer._clustered_differences(lam, lam, lam, t) - limit) <= tolerance

    @pytest.mark.parametrize("t", [0.3, math.pi / 2, 4.0, 100.0])
    @pytest.mark.parametrize("lam", [0.0, 0.75, -3.5])
    def test_symmetric_triples_match_their_closed_form(self, t, lam):
        # f[l - e, l, l + e] = exp(-itl) (cos(te) - 1) / e^2
        #                    = -2 exp(-itl) sin^2(te / 2) / e^2,
        # free of cancellation: an exact oracle from clustered points
        # (t e = 1e-10) to well separated ones, across the switch.  Every
        # second difference is at most t^2 / 2 in modulus, the scale here.
        for k in range(40, -1, -2):
            e = 2.0**-k  # lam - e and lam + e are exact
            exact = -2 * np.exp(-1j * t * lam) * math.sin(t * e / 2) ** 2 / e**2
            assert abs(_second([lam - e, lam, lam + e], t) - exact) <= 1e-12 * t * t / 2

    @pytest.mark.parametrize("t", [0.3, math.pi / 2, 4.0, 10.0])
    @pytest.mark.parametrize("lam", [-17.3, 0.0, 0.7, 19.9])
    @pytest.mark.parametrize("middle", [0.0, 0.3, 0.5, 1.0])
    def test_branches_agree_at_the_switch(self, t, lam, middle):
        # just inside _CLUSTER / t the search takes the series, just outside
        # the quotient of first differences; each agrees with the series at
        # its own points to 1e-12 (the quotient loses about
        # eps |t lambda| / _CLUSTER)
        for span in (1 - 1e-12, 1 + 1e-12):
            a = lam
            c = lam + span * optimizer._CLUSTER / t
            b = a + middle * (c - a)
            series = complex(optimizer._clustered_differences(a, b, c, t))
            assert abs(_second([a, b, c], t) - series) <= 1e-12 * abs(series)


def _stub_polish(f, g, hessian, monkeypatch):
    """The polish of one point at the origin whose value -F = f, gradient g
    and Hessian are given, and at which no trial gains: its result, its
    first trial point (its first step) and every matrix handed to _eigh."""
    trials, matrices = [], []
    eigh = optimizer._eigh

    def recording(matrix):
        matrices.append(matrix.copy())
        return eigh(matrix)

    def negated(x):
        trials.append(x.copy())
        return 0.0

    monkeypatch.setattr(optimizer, "_eigh", recording)
    polished = optimizer._polish(negated, lambda x, wanted=True: (f, g, hessian),
                                 np.zeros(g.shape[0]), 1e-9)
    return polished, trials[0], matrices


class TestPolish:
    def test_certificate_on_the_transfer_profile(self):
        # F's Hessian there is negative definite, so the certificate holds
        # with a decrement at rounding level, and the Newton step that may
        # follow moves the point by rounding alone
        d = 6
        config = OptimizeConfig(d=d, t_target=math.pi / 2)
        x = pst_couplings(d, 1.0)
        polished = optimizer._polish(*_search(config), x, config.tol)
        assert polished.certified
        assert np.abs(polished.x - x).max() <= 1e-14
        assert polished.decrement <= 1e-25

    def test_certificate_needs_the_decrement_within_tol(self):
        # d = 2: F = sin^2(A t), so at t = pi/2 and A = 1 + delta the
        # decrement is about pi^2 delta^2 / 4, 9.9e-8 for delta = 2e-4: above
        # tol, so the polish steps before it certifies
        config = OptimizeConfig(d=2, t_target=math.pi / 2)
        negated, derivatives = _search(config)
        x = np.array([1.0 + 2e-4])
        _, g, hessian = derivatives(x)
        _, first = optimizer._newton_step(np.array([True]), g, hessian)
        assert first == pytest.approx(math.pi**2 * 4e-8 / 4, rel=1e-3)
        polished = optimizer._polish(negated, derivatives, x, config.tol)
        assert polished.certified and polished.decrement <= config.tol
        assert -polished.f >= 1 - 1e-15

    def test_hessian_matches_frechet_differences(self):
        # the exact Hessian, against central differences of the independent
        # Frechet route
        d, t = 5, 1.3
        x = np.array([0.7, 1.4, -0.9, 1.1])
        hessian = _search_derivatives(OptimizeConfig(d=d, t_target=t))(x)[2]
        step = 1e-5
        oracle = np.array([(_frechet_gradient(x + step * e, t, d)
                            - _frechet_gradient(x - step * e, t, d)) / (2 * step)
                           for e in np.eye(d - 1)])
        assert np.array_equal(hessian, hessian.T)
        assert np.abs(hessian - oracle).max() <= 1e-8

    def test_fixed_coordinates_take_no_step(self):
        # on +bound with the ascent direction (-g) pointing outward: fixed;
        # on -bound with -g pointing inward: free
        x = np.array([COUPLING_BOUND, 1.0, -COUPLING_BOUND])
        g = np.array([-0.5, 0.2, -0.5])
        free = optimizer._free(x, g)
        assert free.tolist() == [False, True, True]
        step, decrement = optimizer._newton_step(free, g, np.diag([1.0, 2.0, 4.0]))
        assert step.tolist() == [0.0, -0.1, 0.125]
        assert decrement == pytest.approx((0.2**2 / 2.0 + 0.5**2 / 4.0) / 2, rel=1e-15)

    def test_no_free_coordinate_takes_no_step(self):
        # every coordinate on the bound with -g pointing outward: nothing to
        # solve, and a zero decrement certifies the point
        x = np.array([COUPLING_BOUND, -COUPLING_BOUND])
        g = np.array([-0.5, 0.5])
        free = optimizer._free(x, g)
        assert not free.any()
        step, decrement = optimizer._newton_step(free, g, np.diag([1.0, 2.0]))
        assert step.tolist() == [0.0, 0.0] and decrement == 0.0

    def test_indefinite_hessian_gives_a_modified_step(self):
        # |lambda| in place of lambda: a descent direction of -F, and no
        # certificate, so the decrement is inf
        g = np.array([0.1, 0.1])
        step, decrement = optimizer._newton_step(np.array([True, True]), g,
                                                 np.array([[1.0, 0.0], [0.0, -1e-3]]))
        assert step.tolist() == [-0.1, -100.0]
        assert step @ g < 0 and decrement == math.inf

    def test_modified_step_floors_a_zero_eigenvalue(self):
        # the floor is _EIGEN_FLOOR relative to max |lambda| = 4
        g = np.array([0.1, 0.1])
        step, decrement = optimizer._newton_step(np.array([True, True]), g, np.diag([-4.0, 0.0]))
        floor = optimizer._EIGEN_FLOOR * 4.0
        assert step.tolist() == [-0.1 / 4.0, -0.1 / floor]
        assert decrement == math.inf

    def test_indefinite_hessian_takes_the_log_step_where_it_is_definite(self, monkeypatch):
        # H = diag(1, -0.1) is indefinite, but H + g g^T / F, F times -log F's
        # Hessian, is positive definite at F = 0.5: the polish takes -log F's
        # Newton step
        g = np.array([0.1, 0.3])
        hessian = np.diag([1.0, -0.1])
        polished, step, matrices = _stub_polish(-0.5, g, hessian, monkeypatch)
        curved = hessian + np.outer(g, g) / 0.5
        assert step == pytest.approx(-np.linalg.solve(curved, g), rel=1e-12)
        assert len(matrices) == 2 and np.array_equal(matrices[0], hessian)
        assert np.allclose(matrices[1], curved, rtol=1e-15, atol=0.0)
        assert not polished.certified and polished.decrement == math.inf

    def test_indefinite_log_hessian_keeps_the_modified_step(self, monkeypatch):
        # H + g g^T / F = [[1.02, 0.06], [0.06, -0.82]] is indefinite too: the
        # modified step of H, -g here since both |lambda| are 1
        g = np.array([0.1, 0.3])
        polished, step, matrices = _stub_polish(-0.5, g, np.diag([1.0, -1.0]), monkeypatch)
        assert step == pytest.approx(-g, rel=1e-15)
        assert len(matrices) == 2
        assert not polished.certified and polished.decrement == math.inf

    @pytest.mark.parametrize("f", [-math.ulp(0.0), -0.0])
    def test_non_finite_log_hessian_keeps_the_modified_step(self, f, monkeypatch):
        # at the smallest subnormal F, r = g / sqrt(F) is about 4.5e156 and
        # r r^T overflows; at F = 0 the division does.  Neither raises (a
        # RuntimeWarning is an error here) nor reaches _eigh: the polish
        # solves F's own Hessian alone and takes its modified step
        g = np.array([1e-5, -1e-5])
        hessian = np.diag([1.0, -1.0])
        polished, step, matrices = _stub_polish(f, g, hessian, monkeypatch)
        assert len(matrices) == 1 and np.array_equal(matrices[0], hessian)
        assert step == pytest.approx(-g, rel=1e-15)
        assert polished.hessians == 1 and not polished.certified

    def test_subnormal_fidelity_keeps_the_rank_one_term(self, monkeypatch):
        # F = 2^-1074 and g = 2^-538 (1, 1): g g^T underflows to zero, while
        # r = g / sqrt(F) = (0.5, 0.5) keeps r r^T exact, and H + r r^T =
        # [[0.15, 0.25], [0.25, 1.25]] is positive definite
        f = -math.ulp(0.0)
        g = np.full(2, 2.0**-538)
        hessian = np.diag([-0.1, 1.0])
        assert not np.outer(g, g).any()
        polished, step, matrices = _stub_polish(f, g, hessian, monkeypatch)
        curved = hessian + 0.25
        assert all(np.isfinite(matrix).all() for matrix in matrices)
        assert len(matrices) == 2 and np.array_equal(matrices[1], curved)
        assert step == pytest.approx(-np.linalg.solve(curved, g), rel=1e-12)

    def test_definite_hessian_solves_nothing_more(self, monkeypatch):
        # near the transfer profile F's Hessian is negative definite at every
        # point the polish reaches, so each Hessian takes one eigensolve and
        # the steps are the plain Newton steps
        d = 6
        sizes = []
        eigh = optimizer._eigh

        def counting(matrix):
            sizes.append(matrix.shape[0])
            return eigh(matrix)

        monkeypatch.setattr(optimizer, "_eigh", counting)
        config = OptimizeConfig(d=d, t_target=math.pi / 2)
        x = pst_couplings(d, 1.0) + 1e-3 * np.arange(1, d)
        polished = optimizer._polish(*_search(config), x, config.tol)
        assert polished.certified and polished.hessians >= 2
        assert sizes.count(d - 1) == polished.hessians

    @pytest.mark.parametrize("x", [pst_couplings(6, 1.0), np.ones(5)])
    def test_all_free_step_needs_no_gather(self, x):
        # every coordinate free: the step and decrement are those of the
        # gathered route, here H and g with one fixed coordinate appended,
        # byte for byte; the transfer profile's H is definite, the uniform
        # start's is not
        _, g, hessian = _search_derivatives(OptimizeConfig(d=6, t_target=math.pi / 2))(x)
        padded = np.eye(6)
        padded[:5, :5] = hessian
        free = np.ones(6, dtype=bool)
        free[5] = False
        step, decrement = optimizer._newton_step(free[:5], g, hessian)
        gathered, gathered_decrement = optimizer._newton_step(free, np.append(g, 1.0), padded)
        assert step.tobytes() == gathered[:5].tobytes() and gathered[5] == 0.0
        assert decrement.hex() == gathered_decrement.hex()

    def test_each_distinct_point_is_solved_once(self, monkeypatch):
        # d = 8 from the uniform start: one chain eigensolve per closure call
        # at a point other than the previous call's, one Hessian eigensolve
        # per Newton step, and one more per step where F's Hessian is
        # indefinite, for -log F's Hessian
        d = 8
        points, sizes, hessians = [], [], []
        search, eigh = optimizer._search, optimizer._eigh

        def counting(matrix):
            sizes.append(matrix.shape[0])
            return eigh(matrix)

        def recording_search(config):
            def recorded(closure):
                def call(x, *rest):
                    points.append(x.tobytes())
                    out = closure(x, *rest)
                    if isinstance(out, tuple) and out[2] is not None:
                        hessians.append((x.copy(), out[1], out[2]))
                    return out
                return call
            return tuple(map(recorded, search(config)))

        monkeypatch.setattr(optimizer, "_eigh", counting)
        monkeypatch.setattr(optimizer, "_search", recording_search)
        result = optimize_couplings(OptimizeConfig(d=d, t_target=math.pi / 2), np.ones(d - 1))
        distinct = sum(a != b for a, b in zip([None] + points, points))
        indefinite = 0
        for x, g, h in hessians:
            free = optimizer._free(x, g)
            indefinite += np.linalg.eigvalsh(h[np.ix_(free, free)])[0] <= 0
        assert distinct < len(points)
        assert sizes.count(d) == distinct
        assert len(hessians) == result.newton_steps > indefinite > 0
        assert sizes.count(d - 1) == result.newton_steps + indefinite
        assert len(sizes) == distinct + result.newton_steps + indefinite

    def test_budget_stop_is_not_polished(self, monkeypatch):
        monkeypatch.setattr(optimizer, "_polish", None)  # a call would raise
        config = OptimizeConfig(d=5, t_target=math.pi / 2, max_iters=7)
        result = optimize_couplings(config, np.ones(4))
        assert (result.stop_reason, result.iterations) == (BUDGET, 7)
        assert result.decrement == math.inf and result.gradient_norm > 0

    @pytest.mark.parametrize("d", [7, 8])
    def test_uniform_start_result_is_the_same_for_every_seed(self, d):
        # the first run does not read the seed, and a certified search ends there
        results = {optimize_couplings(OptimizeConfig(d=d, t_target=math.pi / 2, seed=seed),
                                      np.ones(d - 1)) for seed in (0, 1, 17, 999)}
        assert len(results) == 1
        (result,) = results
        assert result.stop_reason == CERTIFIED and result.restarts == 0
        assert result.fidelity >= 1 - 1e-10


class TestInitialSimplex:
    # the smallest subnormal is a nonzero start that 1.05x leaves unmoved
    special = [0.0, -0.0, math.ulp(0.0), -math.ulp(0.0), COUPLING_BOUND, -COUPLING_BOUND]
    coordinate = st.one_of(st.sampled_from(special), st.floats(-COUPLING_BOUND, COUPLING_BOUND))

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(start=st.lists(coordinate, min_size=1, max_size=12).map(np.array))
    def test_edges_have_full_rank_in_the_box(self, start):
        simplex = optimizer._initial_simplex(start)
        assert np.array_equal(simplex[0], start)
        assert np.all(np.abs(simplex) <= COUPLING_BOUND)
        # vertex i+1 moves coordinate i alone: the n edges are a diagonal
        # matrix, of rank n exactly when no diagonal entry is zero
        edges = simplex[1:] - simplex[0]
        assert np.array_equal(edges, np.diag(np.diag(edges)))
        assert np.all(np.diag(edges) != 0)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(start=st.lists(st.one_of(st.just(0.0), st.floats(1e-300, COUPLING_BOUND / 1.05),
                                    st.floats(-COUPLING_BOUND / 1.05, -1e-300)),
                          min_size=1, max_size=12).map(np.array))
    def test_outward_steps_inside_the_box_unchanged(self, start):
        # the former rule, for starts whose every 1.05x step stays in the box
        expected = np.tile(start, (start.shape[0] + 1, 1))
        for i in range(start.shape[0]):
            if expected[i + 1, i] != 0.0:
                expected[i + 1, i] *= 1.05
            else:
                expected[i + 1, i] = 0.00025
        assert optimizer._initial_simplex(start).tobytes() == expected.tobytes()


def _counting_runs(monkeypatch) -> list:
    """Records every simplex run of the searches that follow."""
    runs = []
    descent = optimizer._simplex_descent

    def counting(*args):
        runs.append(descent(*args))
        return runs[-1]

    monkeypatch.setattr(optimizer, "_simplex_descent", counting)
    return runs


class TestStopReason:
    def test_fixed_point_is_certified_in_one_sweep(self):
        # acceptance criterion 9's fixed point: one sweep, no restart, and
        # the certificate holds there with a vanishing decrement
        config = OptimizeConfig(d=4, t_target=math.pi / 2, seed=7)
        result = optimize_couplings(config, pst_couplings(4, 1.0))
        assert (result.stop_reason, result.iterations, result.restarts) == ("certified", 4, 0)
        assert result.converged
        # F rounds to 1 there, so a Newton step could move it by rounding at most
        assert np.abs(np.array(result.couplings) - pst_couplings(4, 1.0) / 2.0).max() <= 1e-14
        assert result.decrement <= 1e-20 and result.gradient_norm <= 1e-14

    def test_collapse_away_from_a_maximum_is_polished_to_it(self):
        # with tol = 0.1 the first simplex, 0.025 across, has already
        # collapsed, at F = 0.1 where F's Hessian is not negative definite;
        # -log F's Newton step climbs from there to a certified maximum
        config = OptimizeConfig(d=3, t_target=math.pi / 2, tol=0.1, seed=1)
        result = optimize_couplings(config, [0.5, 0.5])
        assert (result.stop_reason, result.iterations, result.restarts) == ("certified", 1, 0)
        assert result.converged and result.newton_steps >= 2
        assert result.decrement <= config.tol and result.fidelity >= 1 - 1e-9

    @pytest.mark.parametrize("d", [3, 4, 8])
    def test_certified_search_does_not_restart(self, d, monkeypatch):
        runs = _counting_runs(monkeypatch)
        config = OptimizeConfig(d=d, t_target=math.pi / 2, seed=7)
        result = optimize_couplings(config, np.ones(d - 1))
        assert len(runs) == 1 and result.restarts == 0
        assert runs[0].stop_reason == PLATEAU and result.stop_reason == CERTIFIED
        assert result.iterations == runs[0].iterations
        assert result.fidelity >= 1 - 1e-10

    @pytest.mark.parametrize("d, t, seed", [(7, 3.0, 4), (8, math.pi / 2, 1)])
    def test_former_ridge_stops_are_certified(self, d, t, seed, monkeypatch):
        # both used to stop against the coupling bound, where F's Hessian is
        # not negative definite on the free coordinates, and restart; the
        # polish now climbs on from there
        runs = _counting_runs(monkeypatch)
        start = np.random.default_rng(seed).uniform(0.5, 1.5, d - 1)
        result = optimize_couplings(OptimizeConfig(d=d, t_target=t, seed=seed), start)
        assert len(runs) == 1 and result.restarts == 0
        assert result.stop_reason == CERTIFIED and result.fidelity >= 1 - 1e-10

    @pytest.mark.parametrize("d, t, seed", [(8, 3.0, 6), (10, 5.0, 11)])
    def test_uncertified_search_restarts(self, d, t, seed, monkeypatch):
        # both end within 2e-5 of F = 1 where F's Hessian is negative definite
        # but ill-conditioned, and no polish brings the decrement within tol
        # in its _NEWTON_STEPS Hessians
        runs = _counting_runs(monkeypatch)
        start = np.random.default_rng(seed).uniform(0.5, 1.5, d - 1)
        config = OptimizeConfig(d=d, t_target=t, seed=seed)
        result = optimize_couplings(config, start)
        assert result.restarts == len(runs) - 1 >= 1
        assert result.stop_reason == runs[-1].stop_reason == PLATEAU
        assert result.iterations == sum(run.iterations for run in runs)
        assert result.newton_steps == optimizer._NEWTON_STEPS * len(runs)
        assert not result.converged and result.decrement > config.tol

    def test_uncertified_first_run_restarts_then_certifies(self, monkeypatch):
        # d = 11 from `--init random`'s start at seed 0: the first polish ends
        # uncertified, the jittered restart's polish certifies
        runs = _counting_runs(monkeypatch)
        config = OptimizeConfig(d=11, t_target=math.pi / 2, seed=0)
        result = optimize_couplings(config, np.random.default_rng(0).uniform(0.5, 1.5, 10))
        assert len(runs) == 2 and result.restarts == 1
        assert result.stop_reason == CERTIFIED and result.fidelity >= 1 - 1e-10
        assert result.iterations == sum(run.iterations for run in runs)

    def test_near_zero_plateau_is_not_converged(self):
        # near F = 0 every simplex move is below the absolute tol; F's
        # Hessian there is not negative definite, so nothing is certified,
        # and no polish step raises F on so flat a surface
        config = OptimizeConfig(d=24, t_target=math.pi / 2)
        result = optimize_couplings(config, np.ones(23))
        assert (result.stop_reason, result.iterations, result.restarts) == ("plateau", 24, 0)
        assert not result.converged
        assert result.fidelity == pytest.approx(5.6e-32, rel=0.05)
        assert result.decrement == math.inf

    @pytest.mark.parametrize("d, init, seed", [(8, "random", 1), (9, "random", 94),
                                               (10, "uniform", 2)])
    def test_former_ridge_searches_are_certified(self, d, init, seed, monkeypatch):
        # these ended uncertified below F = 0.999 where F's Hessian is
        # indefinite; each certified polish is re-checked here with numpy's
        # own eigvalsh and solve at the point of its last Hessian
        hessians, polishes = [], []
        search, polish = optimizer._search, optimizer._polish

        def recording_search(config):
            negated, derivatives = search(config)

            def recording(x, *rest):
                hessians.append((x.copy(), *derivatives(x, *rest)))
                return hessians[-1][1:]

            return negated, recording

        def recording_polish(negated, derivatives, x, tol):
            start = len(hessians)
            polishes.append((polish(negated, derivatives, x, tol), hessians[start:]))
            return polishes[-1][0]

        monkeypatch.setattr(optimizer, "_search", recording_search)
        monkeypatch.setattr(optimizer, "_polish", recording_polish)
        rng = np.random.default_rng(seed)
        start = np.ones(d - 1) if init == "uniform" else rng.uniform(0.5, 1.5, d - 1)
        config = OptimizeConfig(d=d, t_target=math.pi / 2, seed=seed)
        result = optimize_couplings(config, start)
        assert result.stop_reason == CERTIFIED and result.fidelity >= 0.999
        # each polish forms one Hessian per derivatives call
        assert all(found.hessians == len(made) for found, made in polishes)
        assert result.newton_steps == sum(len(made) for _, made in polishes)
        certified = [made[-1] for found, made in polishes if found.certified]
        assert certified
        for x, _, g, h in certified:
            free = optimizer._free(x, g)
            h = h[np.ix_(free, free)]
            assert np.linalg.eigvalsh(h)[0] > 0
            assert g[free] @ np.linalg.solve(h, g[free]) / 2 <= config.tol

    @pytest.mark.parametrize("d, allowed", [(6, 3), (7, 0), (8, 0), (9, 1), (10, 0)])
    def test_random_start_population(self, d, allowed):
        # t = pi/2 from starts drawn as `--init random` draws them, seeds
        # 0-99: the searches that end uncertified or below the CLI's 0.999
        # floor may number no more than they do with -log F's Newton step
        # (with the modified step alone they were 4, 1, 4, 3 and 1)
        failed = []
        for seed in range(100):
            start = np.random.default_rng(seed).uniform(0.5, 1.5, d - 1)
            result = optimize_couplings(OptimizeConfig(d=d, t_target=math.pi / 2, seed=seed),
                                        start)
            if not result.converged or result.fidelity < 0.999:
                failed.append(seed)
        assert len(failed) <= allowed, failed

    @pytest.mark.parametrize("d", range(4, 17))
    def test_uniform_start_certifies_in_one_run(self, d):
        # from d = 12 up these used to plateau near F = 0 (F = 4.3e-11 at
        # d = 12, 4.6e-19 at d = 16), where F's Hessian is indefinite and
        # the modified step barely climbs; -log F's Newton step climbs
        result = optimize_couplings(OptimizeConfig(d=d, t_target=math.pi / 2), np.ones(d - 1))
        assert (result.stop_reason, result.restarts) == (CERTIFIED, 0)
        assert result.fidelity >= 0.999

    # uniform-start failures of seeds 0-2 per d, for t_target in {pi/2, 3, 5,
    # 8, 12} and d = 4..16, with the modified step alone; other cells had none
    _UNIFORM_FAILURES = {
        math.pi / 2: {12: 3, 13: 3, 14: 3, 15: 3, 16: 3},
        3.0: {10: 1},
        5.0: {12: 3, 14: 1},
        8.0: {7: 3, 9: 3, 15: 3},
        12.0: {5: 3, 9: 3, 14: 3, 15: 3},
    }

    @pytest.mark.parametrize("t", sorted(_UNIFORM_FAILURES))
    def test_uniform_start_population(self, t):
        # no (t, d) cell may fail more often than with the modified step alone
        failed = {}
        for d in range(4, 17):
            for seed in range(3):
                result = optimize_couplings(OptimizeConfig(d=d, t_target=t, seed=seed),
                                            np.ones(d - 1))
                if not result.converged or result.fidelity < 0.999:
                    failed[d] = failed.get(d, 0) + 1
        allowed = self._UNIFORM_FAILURES[t]
        assert all(count <= allowed.get(d, 0) for d, count in failed.items()), failed

    def test_handoff_threshold(self, monkeypatch):
        # each run stops at _HANDOFF, or at tol where that is looser
        tols = []
        descent = optimizer._simplex_descent

        def recording(f, x0, budget, tol):
            tols.append(tol)
            return descent(f, x0, budget, tol)

        monkeypatch.setattr(optimizer, "_simplex_descent", recording)
        for tol in (1e-9, 0.1):
            optimize_couplings(OptimizeConfig(d=4, t_target=math.pi / 2, tol=tol), np.ones(3))
        assert tols == [optimizer._HANDOFF, 0.1]

    @pytest.mark.parametrize("d, iterations, hessians", [(7, 7, 7), (8, 8, 9)])
    def test_uniform_start_hands_off_after_one_sweep(self, d, iterations, hessians):
        # F is 4e-4 and 2e-5 there: the simplex plateaus at the hand-off
        # after one sweep, and the Newton polish does the climbing, where
        # F's Hessian is indefinite with -log F's Newton step (12 and 14
        # Hessians with the modified step alone)
        result = optimize_couplings(OptimizeConfig(d=d, t_target=math.pi / 2), np.ones(d - 1))
        assert (result.stop_reason, result.iterations) == (CERTIFIED, iterations)
        assert result.restarts == 0
        assert result.newton_steps == hessians

    @pytest.mark.parametrize("seed", [108, 235, 180])
    def test_former_stalls_are_certified(self, seed):
        # these seeds' restarts used to stall short of the F = 1 profile at
        # points where |grad F| was 0.06-0.18; the first run's polish now
        # reaches the maximum, so no restart runs and the seed plays no part
        config = OptimizeConfig(d=4, t_target=math.pi / 2, seed=seed)
        result = optimize_couplings(config, np.ones(3))
        assert (result.stop_reason, result.restarts) == ("certified", 0)
        assert result.fidelity >= 1 - 1e-10
        assert result.decrement <= config.tol


_REFLECT = 1.0


def _reference_descent(
    f,
    x0: np.ndarray,
    max_iters: int,
    tol: float,
) -> _SimplexRun:
    """One simplex run from x0, a point in the box.  Converges when the
    simplex collapses below tol or the best value improves by less than
    tol over a full sweep (n+1 consecutive steps)."""
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
            stop_reason = COLLAPSE
            break
        if iterations % sweep == 0:
            best_now = float(fvals.min())
            if checkpoint - best_now < tol:
                stop_reason = PLATEAU
                break
            checkpoint = best_now

    k = int(fvals.argmin())
    return _SimplexRun(simplex[k].copy(), float(fvals[k]), iterations, stop_reason)


def _run_both(f, x0, max_iters, tol) -> str:
    """Runs the shipped loop and the argsort-per-iteration reference, checks
    that every output matches to the bit and returns the stop reason."""
    shipped = optimizer._simplex_descent(f, x0, max_iters, tol)
    reference = _reference_descent(f, x0, max_iters, tol)
    assert shipped.x_best.tobytes() == reference.x_best.tobytes()
    assert shipped.f_best.hex() == reference.f_best.hex()
    assert (shipped.iterations, shipped.stop_reason) == (reference.iterations,
                                                         reference.stop_reason)
    return shipped.stop_reason


def _constant(x):
    return 0.0


def _rounded_square(x):
    return round(float(x @ x), 1)


class TestSortedSimplex:
    """The shipped loop must agree bit for bit with `_reference_descent`, the
    argsort-per-iteration loop written out on its own: every output, on
    every stop reason, on ties and on the n = 1 simplex."""

    coordinate = st.one_of(st.sampled_from([0.0, 1.0, COUPLING_BOUND, -COUPLING_BOUND]),
                           st.floats(-COUPLING_BOUND, COUPLING_BOUND))
    tols = st.sampled_from([1e-9, 1e-3, 1e-1])

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(data=st.data(), d=st.integers(2, 8), t=st.floats(0.3, 3.0),
           max_iters=st.integers(1, 300), tol=tols)
    def test_search_objective_matches_reference(self, data, d, t, max_iters, tol):
        # d = 2 is n = 1, where the second-worst vertex is the best one
        x0 = data.draw(st.lists(self.coordinate, min_size=d - 1, max_size=d - 1).map(np.array))
        _run_both(_search_objective(OptimizeConfig(d=d, t_target=t)), x0, max_iters, tol)

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(f=st.sampled_from([_constant, _rounded_square]),
           x0=st.lists(coordinate, min_size=1, max_size=7).map(np.array),
           max_iters=st.integers(1, 300), tol=tols)
    def test_ties_keep_the_stable_order(self, f, x0, max_iters, tol):
        _run_both(f, x0, max_iters, tol)

    @pytest.mark.parametrize("d", range(2, 11))
    def test_every_stop_reason_matches(self, d):
        negated = _search_objective(OptimizeConfig(d=d, t_target=math.pi / 2))
        uniform, zeros = np.ones(d - 1), np.zeros(d - 1)
        # the 0.00025 steps of a zero start are below tol = 1e-3 at once
        cases = [(uniform, 2000, 1e-9), (zeros, 2000, 1e-3), (uniform, 1, 1e-9)]
        assert [_run_both(negated, *case) for case in cases] == [PLATEAU, COLLAPSE, BUDGET]
        # a constant leaves every step to a shrink, 0.05 * 2**-k across after
        # k of them: below tol = 1e-2 on step 3, inside the first sweep when
        # n >= 2.  On ties the stable order decides every vertex.
        cases = [(2000, 1e-2), (2000, 1e-9), (1, 1e-9)]
        assert ([_run_both(_constant, uniform, *case) for case in cases]
                == [COLLAPSE if d > 2 else PLATEAU, PLATEAU, BUDGET])
        for tol in (1e-9, 1e-2):
            _run_both(_rounded_square, uniform, 2000, tol)

    # best A, then B within tol = 0.1 of it, then the worst W.  The reflection
    # R = A + B - W = (0.01, -1) lands between A and B, so after one step
    # the worst vertex is B, 0.01 from A, while R is 1 away.
    A, B, W = (0.0, 0.0), (0.01, 0.0), (0.0, 1.0)

    @staticmethod
    def _valley(x):
        # A: 0, B: 1, W: 3, R: 0.5
        return 100.0 * x[0] + 1.75 * x[1] + 1.25 * x[1] ** 2

    def _from(self, vertices, monkeypatch):
        # for the shipped loop and for the reference, which calls this
        # module's name
        simplex = np.array(vertices)

        def fixed(x0):
            return simplex.copy()

        monkeypatch.setattr(optimizer, "_initial_simplex", fixed)
        monkeypatch.setitem(globals(), "_initial_simplex", fixed)
        return simplex[0]

    def test_worst_within_tol_is_not_collapse(self, monkeypatch):
        x0 = self._from([self.A, self.B, self.W], monkeypatch)
        assert [self._valley(np.array(v)) for v in (self.A, self.B, self.W)] == [0.0, 1.0, 3.0]
        assert self._valley(np.array([0.01, -1.0])) == 0.5
        run = optimizer._simplex_descent(self._valley, x0, 1, 0.1)
        assert (run.iterations, run.stop_reason) == (1, BUDGET)
        assert _run_both(self._valley, x0, 1, 0.1) == BUDGET

    def test_every_vertex_within_tol_is_collapse(self, monkeypatch):
        x0 = self._from([self.A, self.B, self.W], monkeypatch)
        run = optimizer._simplex_descent(self._valley, x0, 50, 1.5)
        assert (run.iterations, run.stop_reason) == (1, COLLAPSE)
        assert _run_both(self._valley, x0, 50, 1.5) == COLLAPSE
        # and one that takes several steps to shrink below tol
        x0 = self._from([(1.0, 1.0), (1.05, 1.0), (1.0, 1.05)], monkeypatch)
        reference = _reference_descent(_constant, x0, 50, 1e-2)
        assert (reference.iterations, reference.stop_reason) == (3, COLLAPSE)
        assert _run_both(_constant, x0, 50, 1e-2) == COLLAPSE

    def test_collapse_is_measured_from_the_new_best(self, monkeypatch):
        # reflecting W = (1.5, 0) through A = (0, 0) and B = (0.9, 0) gives
        # R = (-0.6, 0), the new best; the expansion to (-1.65, 0) is worse.
        # Every vertex lies within tol = 1 of A, but B is 1.5 from R, so the
        # simplex has not collapsed.
        def shifted_square(x):
            return (x[0] + 0.6) ** 2

        x0 = self._from([(0.0, 0.0), (0.9, 0.0), (1.5, 0.0)], monkeypatch)
        run = optimizer._simplex_descent(shifted_square, x0, 1, 1.0)
        assert (run.iterations, run.stop_reason) == (1, BUDGET)
        assert run.x_best == pytest.approx([-0.6, 0.0])
        assert _run_both(shifted_square, x0, 1, 1.0) == BUDGET
