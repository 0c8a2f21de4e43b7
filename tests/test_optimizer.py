import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import expm_series
from qwire.errors import BadCouplingCountError
from qwire.optimizer import (
    COUPLING_BOUND,
    OptimizeConfig,
    OptimizeResult,
    _search_objective,
    objective,
    optimize_couplings,
)
from qwire.pst import pst_couplings


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

    def test_result_fidelity_range(self):
        with pytest.raises(ValueError):
            OptimizeResult(couplings=(1.0,), fidelity=1.2, iterations=1, converged=True)


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

    def test_non_finite_start_rejected(self):
        config = OptimizeConfig(d=4, t_target=1.0)
        with pytest.raises(ValueError, match=r"^couplings must be finite$"):
            optimize_couplings(config, [1.0, math.nan, 1.0])

    @pytest.mark.parametrize("start", [[1.0, np.complex128(1 + 2j), 1.0], np.ones(3, dtype=complex)])
    def test_complex_start_rejected(self, start):
        config = OptimizeConfig(d=4, t_target=1.0)
        with pytest.raises(ValueError, match="couplings must be real"):
            optimize_couplings(config, start)
        with pytest.raises(ValueError, match="couplings must be real"):
            objective(start, 1.0, 4)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(data=st.data(), d=st.integers(2, 9), t=st.floats(0.01, 10.0))
    def test_search_evaluator_equals_negated_objective(self, data, d, t):
        # the search skips objective's per-call ChainSpec; the values must not move
        bound = st.floats(-COUPLING_BOUND, COUPLING_BOUND)
        x = np.array(data.draw(st.lists(bound, min_size=d - 1, max_size=d - 1)))
        negated = _search_objective(OptimizeConfig(d=d, t_target=t))
        assert negated(x).hex() == (-objective(x, t, d)).hex()

    def test_budget_exhaustion_reports_not_converged(self):
        config = OptimizeConfig(d=4, t_target=math.pi / 2, max_iters=3, seed=0)
        result = optimize_couplings(config, np.ones(3))
        assert not result.converged
        assert result.iterations == 3
