import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from conftest import expm_series, random_hermitian
from qwire.errors import (
    DimensionTooSmallError,
    IndexOutOfRangeError,
    NonHermitianInputError,
    ZeroThetaError,
)
from qwire.lattice import LINE, ChainSpec, build_hamiltonian, uniform_chain
from qwire.numerics import GENERAL, HERMITIAN, Operator, hermitian_eig, max_abs
from qwire.pst import (
    FidelityCurve,
    TransferReport,
    evolution,
    fidelity_curve,
    mirror_check,
    pst_couplings,
    pst_hamiltonian,
    transfer_fidelity,
    transfer_time,
)

X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


class TestCouplings:
    def test_two_sites(self):
        assert np.allclose(pst_couplings(2, 1.0), [1.0])

    def test_four_sites(self):
        assert np.allclose(pst_couplings(4, 1.0), [math.sqrt(3), 2.0, math.sqrt(3)])

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(d=st.integers(2, 64), A=st.floats(0.1, 5.0))
    def test_palindrome(self, d, A):
        profile = pst_couplings(d, A)
        assert np.allclose(profile, profile[::-1], atol=1e-12)

    def test_rejects_small_d(self):
        with pytest.raises(DimensionTooSmallError):
            pst_couplings(1, 1.0)


class TestHamiltonian:
    def test_two_site_hop(self):
        assert np.allclose(pst_hamiltonian(2, 1.0).matrix, X)

    def test_three_site_off_diagonals(self):
        h = pst_hamiltonian(3, 1.0).matrix
        # first rows carry sqrt(d-1) then sqrt(2(d-2))
        assert abs(h[0, 1] - math.sqrt(3 - 1)) <= 1e-15
        assert abs(h[1, 2] - math.sqrt(2 * (3 - 2))) <= 1e-15
        assert np.allclose(np.diag(h), 0.0)

    @pytest.mark.parametrize("d,vartheta", [(2, 1.0), (5, 0.6), (9, 2.0), (16, 1.0)])
    def test_spectrum_is_scaled_spin_ladder(self, d, vartheta):
        # eigensolver oracle: spin (d-1)/2 gives levels vartheta*(2m - d + 1)
        values = hermitian_eig(pst_hamiltonian(d, vartheta)).values
        expected = vartheta * (2 * np.arange(d) - d + 1)
        assert np.allclose(values, expected, rtol=1e-10, atol=1e-10 * d * vartheta)

    @pytest.mark.parametrize("d", [2, 3, 8, 17])
    def test_gap_is_twice_vartheta(self, d):
        vartheta = 0.9
        gaps = np.diff(hermitian_eig(pst_hamiltonian(d, vartheta)).values)
        assert np.allclose(gaps, 2 * vartheta, rtol=1e-10)

    def test_rejects_bad_arguments(self):
        with pytest.raises(DimensionTooSmallError):
            pst_hamiltonian(1, 1.0)
        with pytest.raises(ZeroThetaError):
            pst_hamiltonian(4, 0.0)

    @pytest.mark.parametrize("vartheta", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_vartheta(self, vartheta):
        with pytest.raises(ZeroThetaError):
            pst_hamiltonian(4, vartheta)

    @pytest.mark.parametrize("hbar", [0.0, -0.0, -1.0, -1e-300])
    def test_rejects_non_positive_hbar(self, hbar):
        # hbar = 0 would give the zero matrix, a negative hbar flipped couplings
        with pytest.raises(ValueError, match="hbar must be positive"):
            pst_hamiltonian(4, 1.0, hbar)
        with pytest.raises(ValueError, match="hbar must be positive"):
            transfer_time(3, 1.0, hbar)

    @pytest.mark.parametrize("vartheta,hbar", [(1e308, 1.0), (1e200, 1e200),
                                               (1.0, math.nan), (1.0, math.inf)])
    def test_rejects_overflowing_couplings(self, vartheta, hbar):
        # finite vartheta and hbar whose couplings vartheta*hbar*sqrt(j(d-j)) are not
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ZeroThetaError, match=r"vartheta=.*, hbar="):
                pst_hamiltonian(4, vartheta, hbar)


class TestEvolution:
    def test_zero_time(self):
        assert max_abs(evolution(6, 1.0, 0.0).matrix - np.eye(6)) <= 1e-14

    def test_two_site_quarter_turn(self):
        u = evolution(2, 1.0, math.pi / 2).matrix
        assert max_abs(u - (-1j) * X) <= 1e-12
        assert max_abs(u - expm_series(-1j * X * math.pi / 2)) <= 1e-12

    @pytest.mark.parametrize("d", [2, 5, 12])
    def test_end_to_end_amplitude_at_crossing(self, d):
        u = evolution(d, 1.0, math.pi / 2).matrix
        assert abs(abs(u[d - 1, 0]) - 1.0) <= 1e-10


class TestTransferFidelity:
    def test_zero_time_identity_cases(self):
        h = pst_hamiltonian(5, 1.0)
        assert transfer_fidelity(h, 0.0, 2, 2) == 1.0
        assert transfer_fidelity(h, 0.0, 0, 4) == 0.0

    def test_perfect_crossing_d5(self):
        h = pst_hamiltonian(5, 1.0)
        assert transfer_fidelity(h, math.pi / 2, 0, 4) >= 1 - 1e-10

    def test_index_bounds(self):
        h = pst_hamiltonian(3, 1.0)
        with pytest.raises(IndexOutOfRangeError):
            transfer_fidelity(h, 1.0, 0, 3)
        with pytest.raises(IndexOutOfRangeError):
            transfer_fidelity(h, 1.0, -1, 2)

    def test_two_site_sine_law(self):
        # closed form for d=2: fidelity = sin^2(vartheta t)
        h = pst_hamiltonian(2, 1.0)
        for t in (0.3, 1.0, 2.2):
            assert abs(transfer_fidelity(h, t, 0, 1) - math.sin(t) ** 2) <= 1e-12

    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(d=st.integers(2, 12), c=st.floats(0.1, 4.0), t=st.floats(0.0, 6.0))
    def test_scaling_covariance(self, d, c, t):
        fast = transfer_fidelity(pst_hamiltonian(d, c * 1.0), t / c, 0, d - 1)
        slow = transfer_fidelity(pst_hamiltonian(d, 1.0), t, 0, d - 1)
        assert abs(fast - slow) <= 1e-10

    @pytest.mark.parametrize("t", [0.17, 0.9, 1.4])
    def test_mirror_covariance(self, t):
        h = pst_hamiltonian(7, 1.0)
        assert abs(transfer_fidelity(h, t, 0, 6) - transfer_fidelity(h, t, 6, 0)) <= 1e-12


class TestFidelityCurve:
    def test_constant_for_zero_hamiltonian(self):
        h = Operator(np.zeros((3, 3)), tag=HERMITIAN)
        grid = np.linspace(0.0, 5.0, 20)
        same = fidelity_curve(h, grid, 1, 1)
        other = fidelity_curve(h, grid, 0, 2)
        assert np.allclose(same.fidelities, 1.0)
        assert np.allclose(other.fidelities, 0.0)

    def test_transfer_and_revival_over_one_period(self):
        d = 4
        h = pst_hamiltonian(d, 1.0)
        grid = np.linspace(0.0, math.pi, 801)
        curve = fidelity_curve(h, grid, 0, d - 1)
        t_peak, peak = curve.peak
        assert peak >= 1 - 1e-9
        assert abs(t_peak - math.pi / 2) <= math.pi / 800
        back = fidelity_curve(h, grid, 0, 0)
        assert back.fidelities[-1] >= 1 - 1e-9

    def test_matches_independent_exponential(self):
        # oracle route: scipy expm per grid point
        h = pst_hamiltonian(5, 0.8)
        grid = np.linspace(0.0, 4.0, 9)
        curve = fidelity_curve(h, grid, 0, 4)
        for t, fid in zip(curve.times, curve.fidelities):
            oracle = abs(expm(-1j * h.matrix * t)[4, 0]) ** 2
            assert abs(fid - oracle) <= 1e-12

    @pytest.mark.parametrize("d", range(4, 9))
    def test_uniform_chain_never_transfers_perfectly(self, d):
        h = build_hamiltonian(uniform_chain(d, LINE))
        grid = np.linspace(0.0, 20.0, 2000)
        curve = fidelity_curve(h, grid, 0, d - 1)
        assert curve.fidelities.max() < 1 - 1e-3

    def test_curve_invariants(self):
        with pytest.raises(ValueError):
            FidelityCurve(times=np.array([0.0, 0.0]), fidelities=np.array([0.0, 0.0]),
                          source=0, target=1)
        with pytest.raises(ValueError):
            FidelityCurve(times=np.array([0.0, 1.0]), fidelities=np.array([0.0, 1.5]),
                          source=0, target=1)

    @pytest.mark.parametrize("times,fidelities", [
        ([0.0, math.nan], [0.0, 0.5]),
        ([math.nan, 1.0], [0.0, 0.5]),
        ([math.nan], [0.5]),
        ([0.0, math.inf], [0.0, 0.5]),
        ([0.0, 1.0], [math.nan, 0.5]),
        ([0.0, 1.0], [0.0, math.nan]),
    ])
    def test_curve_rejects_nan(self, times, fidelities):
        with pytest.raises(ValueError):
            FidelityCurve(times=np.array(times), fidelities=np.array(fidelities),
                          source=0, target=1)


class TestEvolutionInputChecks:
    """transfer_fidelity and fidelity_curve share one evolution routine, so
    both reject the same inputs."""

    @staticmethod
    def _call(route, h, t, hbar=1.0):
        if route == "curve":
            return fidelity_curve(h, [0.0, t], 0, h.dim - 1, hbar)
        return transfer_fidelity(h, t, 0, h.dim - 1, hbar)

    @pytest.mark.parametrize("route", ["point", "curve"])
    def test_rejects_general_tag(self, route):
        h = Operator(np.triu(pst_hamiltonian(4, 1.0).matrix), tag=GENERAL)
        with pytest.raises(NonHermitianInputError):
            self._call(route, h, 1.0)

    @pytest.mark.parametrize("route", ["point", "curve"])
    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_time(self, route, t):
        with pytest.raises(ValueError):
            self._call(route, pst_hamiltonian(4, 1.0), t)

    @pytest.mark.parametrize("route", ["point", "curve"])
    @pytest.mark.parametrize("hbar", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_bad_hbar(self, route, hbar):
        with pytest.raises(ValueError):
            self._call(route, pst_hamiltonian(4, 1.0), 1.0, hbar)

    @pytest.mark.parametrize("hbar", [0.0, math.nan])
    def test_zero_time_still_checks_hbar(self, hbar):
        with pytest.raises(ValueError):
            transfer_fidelity(pst_hamiltonian(4, 1.0), 0.0, 0, 3, hbar)

    def test_curve_rejects_nan_inside_grid(self):
        with pytest.raises(ValueError):
            fidelity_curve(pst_hamiltonian(4, 1.0), [0.0, 0.5, math.nan, 1.5], 0, 3)


class TestAmplitudeOracle:
    """Direct spectral amplitudes against a power-series exponential on
    complex hermitian H, where a conjugate on the wrong eigenvector row
    changes the result (on real chains it would not)."""

    @pytest.mark.parametrize("d", range(2, 10))
    def test_transfer_fidelity(self, d):
        rng = np.random.default_rng(100 + d)
        h = random_hermitian(rng, d, scale=0.5)
        for source, target in [(0, d - 1), (d - 1, 0), (1, 0)]:
            for t in (0.4, 1.3):
                oracle = abs(expm_series(-1j * h.matrix * t)[target, source]) ** 2
                assert abs(transfer_fidelity(h, t, source, target) - oracle) <= 1e-12

    @pytest.mark.parametrize("d", range(2, 10))
    def test_fidelity_curve(self, d):
        rng = np.random.default_rng(200 + d)
        h = random_hermitian(rng, d, scale=0.5)
        source, target = d - 1, 0
        grid = np.linspace(0.0, 2.0, 11)
        curve = fidelity_curve(h, grid, source, target, hbar=1.5)
        for t, fid in zip(curve.times, curve.fidelities):
            oracle = abs(expm_series(-1j * h.matrix * t / 1.5)[target, source]) ** 2
            assert abs(fid - oracle) <= 1e-12


class TestTransferTime:
    def test_two_site_case(self):
        # sin^2 oracle: the first maximum of sin^2(t) sits at pi/2
        report = transfer_time(2, 1.0)
        assert abs(report.t_star - math.pi / 2) <= 1e-15
        assert report.peak_fidelity >= 1 - 1e-12

    def test_d8_fast_rotation(self):
        report = transfer_time(8, 2.0)
        assert abs(report.t_star - math.pi / 4) <= 1e-15
        assert report.peak_fidelity >= 1 - 1e-10

    @pytest.mark.parametrize("d,vartheta", [(2, 1.0), (5, 0.3), (16, 2.7)])
    def test_period_is_twice_crossing_time(self, d, vartheta):
        report = transfer_time(d, vartheta)
        assert abs(report.period - 2 * report.t_star) <= 1e-12
        assert abs(report.period - math.pi / vartheta) <= 1e-12

    @pytest.mark.parametrize("d", range(2, 9))
    def test_crossing_time_confirmed_by_grid_maximization(self, d):
        # dense-grid oracle over one period pins the crossing at pi/(2 vartheta)
        vartheta = 1.0
        h = pst_hamiltonian(d, vartheta)
        grid = np.linspace(0.0, math.pi / vartheta, 4001)
        curve = fidelity_curve(h, grid, 0, d - 1)
        t_peak, peak = curve.peak
        assert abs(t_peak - math.pi / (2 * vartheta)) <= grid[1] - grid[0]
        analytic = transfer_fidelity(h, math.pi / (2 * vartheta), 0, d - 1)
        assert analytic >= peak - 1e-12

    @pytest.mark.parametrize("d", range(2, 33))
    def test_perfect_transfer_and_revival(self, d):
        vartheta = 1.0
        h = pst_hamiltonian(d, vartheta)
        assert transfer_fidelity(h, math.pi / (2 * vartheta), 0, d - 1) >= 1 - 1e-10
        assert transfer_fidelity(h, math.pi / vartheta, 0, 0) >= 1 - 1e-9

    def test_report_invariants(self):
        with pytest.raises(ValueError):
            TransferReport(d=4, vartheta=1.0, t_star=1.0, peak_fidelity=0.5, period=3.0)
        with pytest.raises(ValueError):
            TransferReport(d=4, vartheta=1.0, t_star=1.0, peak_fidelity=1.5, period=2.0)

    @pytest.mark.parametrize("t_star, period", [
        (math.nan, math.nan), (1.0, math.nan), (math.nan, 2.0), (math.inf, math.inf),
    ])
    def test_report_rejects_non_finite_times(self, t_star, period):
        with pytest.raises(ValueError):
            TransferReport(d=4, vartheta=1.0, t_star=t_star, peak_fidelity=1.0, period=period)


class TestMirrorCheck:
    def test_transfer_chain_is_symmetric(self):
        for d in (2, 5, 10):
            assert mirror_check(pst_hamiltonian(d, 1.0))

    def test_uniform_line_is_symmetric(self):
        assert mirror_check(build_hamiltonian(uniform_chain(6, LINE)))

    def test_lopsided_chain_is_not(self):
        spec = ChainSpec(d=3, topology=LINE, E0=0.0, couplings=(1.0, 2.0))
        assert not mirror_check(build_hamiltonian(spec))
