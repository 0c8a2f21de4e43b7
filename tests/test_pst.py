import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from conftest import expm_series, random_hermitian
from qwire import numerics, pst
from qwire.errors import (
    DimensionTooSmallError,
    IndexOutOfRangeError,
    NonHermitianInputError,
    ZeroThetaError,
)
from qwire.lattice import LINE, ChainSpec, build_hamiltonian, uniform_chain
from qwire.numerics import (
    GENERAL,
    HERMITIAN,
    Operator,
    evolution_phases,
    evolve,
    hermitian_eig,
    max_abs,
)
from qwire.optimizer import OptimizeConfig, _search
from qwire.pst import (
    FidelityCurve,
    TransferReport,
    _curve_and_crossing,
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

    @pytest.mark.parametrize("vartheta", [0.0, -0.0, -1.0, -1e-300])
    def test_rejects_non_positive_vartheta(self, vartheta):
        # vartheta = 0 would give the zero matrix, a negative one flipped couplings
        with pytest.raises(ZeroThetaError, match="vartheta must be positive"):
            pst_hamiltonian(4, vartheta)
        with pytest.raises(ZeroThetaError, match="vartheta must be positive"):
            transfer_time(3, vartheta)

    @pytest.mark.parametrize("vartheta", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_vartheta(self, vartheta):
        with pytest.raises(ZeroThetaError):
            pst_hamiltonian(4, vartheta)

    @pytest.mark.parametrize("d,vartheta", [(4, 1e308), (64, 1e307)])
    def test_rejects_overflowing_couplings(self, d, vartheta):
        # finite vartheta whose couplings vartheta*sqrt(j(d-j)) are not
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ZeroThetaError, match=r"vartheta=.* at d="):
                pst_hamiltonian(d, vartheta)


class TestEvolution:
    """Evolution under the transfer Hamiltonian is a rotation."""

    def test_zero_time(self):
        assert max_abs(evolve(pst_hamiltonian(6, 1.0), 0.0).matrix - np.eye(6)) <= 1e-14

    def test_two_site_quarter_turn(self):
        u = evolve(pst_hamiltonian(2, 1.0), math.pi / 2).matrix
        assert max_abs(u - (-1j) * X) <= 1e-12
        assert max_abs(u - expm_series(-1j * X * math.pi / 2)) <= 1e-12

    @pytest.mark.parametrize("d", [2, 5, 12])
    def test_end_to_end_amplitude_at_crossing(self, d):
        u = evolve(pst_hamiltonian(d, 1.0), math.pi / 2).matrix
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


def _complex_phase_curves(h: Operator, times, pairs) -> list[np.ndarray]:
    """The former fidelity_curve route, for each (source, target) pair:
    complex phases exp(-i lambda t) from evolution_phases, contracted with
    V[target] * conj(V[source])."""
    vectors, phases = evolution_phases(h, times)
    return [np.minimum(np.abs(phases @ (vectors[target] * vectors[source].conj())) ** 2, 1.0)
            for source, target in pairs]


def _direct_curve(h: Operator, times, source: int, target: int) -> np.ndarray:
    """The direct complex contraction fidelity_curve makes on a grid that
    is not evenly spaced from 0, written out as a reference."""
    vectors, values, times = numerics._evolution_factors(h, np.asarray(times, dtype=float))
    w = vectors[target] * vectors[source].conj()
    amplitudes = np.exp(-1j * np.multiply.outer(times, values)) @ w
    return np.minimum(amplitudes.real ** 2 + amplitudes.imag ** 2, 1.0)


def _mirror_symmetric(rng: np.random.Generator, d: int) -> Operator:
    x = rng.normal(size=(d, d))
    h = x + x.T
    return Operator(h + h[::-1, ::-1], tag=HERMITIAN)


def _unit_spectrum(d: int, kind: str) -> Operator:
    """A mirror-symmetric real or a random complex hermitian H with its
    spectrum scaled into [-1, 1] (Gershgorin)."""
    rng = np.random.default_rng(d)
    h = _mirror_symmetric(rng, d) if kind == "real" else random_hermitian(rng, d)
    return Operator(h.matrix / max(1.0, np.abs(h.matrix).sum(axis=1).max()), tag=HERMITIAN)


class TestCurveContraction:
    """fidelity_curve factors the phases of a grid evenly spaced from 0
    and contracts the phases exp(-i lambda_k t) directly on any other
    grid; both agree with the complex exponential route to rounding.  The
    real mirror-symmetric matrices go through the parity split from
    d = 128 up."""

    @pytest.mark.parametrize("kind", ["real", "complex"])
    @pytest.mark.parametrize("d", range(2, 201))
    def test_matches_complex_phases(self, d, kind):
        h = _unit_spectrum(d, kind)
        grid = np.linspace(0.0, 40.0, 37)
        pairs = [(0, d - 1), (d - 1, d // 2)]
        for (source, target), expected in zip(pairs, _complex_phase_curves(h, grid, pairs)):
            curve = fidelity_curve(h, grid, source, target)
            assert max_abs(curve.fidelities - expected) <= 1e-13

    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_all_zero_grid(self, kind):
        rng = np.random.default_rng(3)
        h = _mirror_symmetric(rng, 150) if kind == "real" else random_hermitian(rng, 150)
        pairs = [(0, 0), (0, 149)]
        for (source, target), expected in zip(pairs, _complex_phase_curves(h, [0.0], pairs)):
            curve = fidelity_curve(h, [0.0], source, target)
            assert curve.fidelities.tolist() == expected.tolist() == [float(source == target)]

    # N - 1 = 1, 2, 4, 36, 3999, 4000: perfect squares, primes and neither
    @pytest.mark.parametrize("samples", [2, 3, 5, 37, 4000, 4001])
    @pytest.mark.parametrize("d", [2, 5, 64, 127, 128, 129, 200, 257])
    def test_factored_matches_complex_phases(self, d, samples, monkeypatch):
        factored = []
        progression = pst._progression_amplitudes

        def counting(w, values, times):
            factored.append(times.size)
            return progression(w, values, times)

        monkeypatch.setattr(pst, "_progression_amplitudes", counting)
        grid = np.linspace(0.0, 40.0, samples)
        for kind in ("real", "complex"):
            h = _unit_spectrum(d, kind)
            expected, = _complex_phase_curves(h, grid, [(0, d - 1)])
            curve = fidelity_curve(h, grid, 0, d - 1)
            assert max_abs(curve.fidelities - expected) <= 1e-13
        assert factored == [samples, samples]

    @pytest.mark.parametrize("index", [0, 1, 18, 35])
    @pytest.mark.parametrize("kind", ["real", "complex"])
    @pytest.mark.parametrize("d", [5, 129])
    def test_uneven_grid_contracts_phases_directly(self, d, kind, index):
        # one time one ulp off the progression sends the grid down the direct path
        grid = np.linspace(0.0, 40.0, 37)
        grid[index] = np.nextafter(grid[index], math.inf)
        h = _unit_spectrum(d, kind)
        curve = fidelity_curve(h, grid, 0, d - 1)
        assert curve.fidelities.tobytes() == _direct_curve(h, grid, 0, d - 1).tobytes()
        expected, = _complex_phase_curves(h, grid, [(0, d - 1)])
        pointwise = [transfer_fidelity(h, t, 0, d - 1) for t in grid]
        assert max_abs(curve.fidelities - expected) <= 1e-15
        assert max_abs(curve.fidelities - pointwise) <= 1e-15

    def test_factored_curve_memory(self):
        h = pst_hamiltonian(200, 1.0)
        grid = np.linspace(0.0, math.pi, 4000)
        tracemalloc.start()
        try:
            fidelity_curve(h, grid, 0, 199)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the direct route holds 4000 x 200 complex phases, 12.8 MB
        assert peak < 2_000_000


class TestEvolutionInputChecks:
    """transfer_fidelity and fidelity_curve share one evolution routine, so
    both reject the same inputs."""

    @staticmethod
    def _call(route, h, t):
        if route == "curve":
            return fidelity_curve(h, [0.0, t], 0, h.dim - 1)
        return transfer_fidelity(h, t, 0, h.dim - 1)

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

    def test_curve_rejects_nan_inside_grid(self):
        with pytest.raises(ValueError):
            fidelity_curve(pst_hamiltonian(4, 1.0), [0.0, 0.5, math.nan, 1.5], 0, 3)

    @pytest.mark.parametrize("route", ["evolve", "point", "curve"])
    @pytest.mark.parametrize("t", [
        1j, np.complex128(math.pi / 2 + 5j), np.complex128(1.0),
        np.array([0.5, 1j]), [0.5, np.complex128(1.0)],
    ])
    def test_rejects_complex_time(self, route, t):
        # a float cast would drop the imaginary part with only a ComplexWarning
        h = pst_hamiltonian(4, 1.0)
        call = {"evolve": lambda: evolve(h, t),
                "point": lambda: transfer_fidelity(h, t, 0, 3),
                "curve": lambda: fidelity_curve(h, t, 0, 3)}[route]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="evolution times must be real"):
                call()


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
        grid = np.linspace(0.0, 2.0, 11) / 1.5
        curve = fidelity_curve(h, grid, source, target)
        for t, fid in zip(curve.times, curve.fidelities):
            oracle = abs(expm_series(-1j * h.matrix * t)[target, source]) ** 2
            assert abs(fid - oracle) <= 1e-12


ORACLE_SIZES = [*range(2, 11), 64, 127, 128, 129, 256, 257]


def _oracle_atol(h: np.ndarray, t_max: float) -> float:
    """32 eps (1 + ||H|| t_max), ||H|| the largest absolute row sum: each
    phase carries its eigenvalue's rounding, about eps max|lambda|, times
    t.  The worst deviation seen was about 7 eps (1 + ||H|| t)."""
    return 32 * np.finfo(float).eps * (1.0 + np.abs(h).sum(axis=1).max() * t_max)


def _spectral_amplitudes(h: np.ndarray, times) -> np.ndarray:
    """<d-1| exp(-iHt) |0> of a real chain with nonzero bonds J, from its
    eigenvalues alone: sum_k w_k exp(-i lambda_k t) with
    w_k = V[0,k] V[d-1,k] = prod J / prod_{j != k} (lambda_k - lambda_j)
    (de Boor & Golub, Linear Algebra Appl. 21, 245 (1978)), formed from
    log-magnitudes and a sign count."""
    values = np.linalg.eigvalsh(h)
    bonds = np.diagonal(h, 1)
    gaps = np.subtract.outer(values, values)
    np.fill_diagonal(gaps, 1.0)  # drop j = k
    logs = np.log(np.abs(bonds)).sum() - np.log(np.abs(gaps)).sum(axis=1)
    negative = np.count_nonzero(bonds < 0) + np.count_nonzero(gaps < 0, axis=1)
    weights = np.where(negative % 2, -1.0, 1.0) * np.exp(logs)
    return np.exp(-1j * np.multiply.outer(times, values)) @ weights


def _palindrome(x: np.ndarray) -> np.ndarray:
    """x with its second half replaced by its first half reversed."""
    i = np.arange(x.size)
    return np.where(2 * i < x.size, x, x[::-1])


@st.composite
def oracle_chain(draw):
    """A real chain matrix with bonds from U(0.5, 1.5), with or without
    on-site energies of size 0.1, mirror-symmetric or not.

    Independent mirror-symmetric disorder pairs each localized state with
    its mirror image; from d = 64 up many pairs split by less than
    rounding, and the weights would divide by a zero gap.  A
    mirror-symmetric chain of that size takes a smooth profile drawn from
    the same ranges instead: bonds a + (b - a) sin(pi n/d) with a < b
    from U(0.5, 1.5), and on-site energies c + s (b - a) sin(pi i/(d-1))
    with c from 0.1 N(0, 1) and s from U(-1, 1), whose single well at
    each band edge keeps every level apart."""
    d = draw(st.sampled_from(ORACLE_SIZES))
    mirror, onsite = draw(st.booleans()), draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if mirror and d >= 64:
        a, b = np.sort(rng.uniform(0.5, 1.5, 2))
        bonds = a + (b - a) * np.sin(np.pi * np.arange(1, d) / d)
        energies = 0.1 * rng.normal() + (b - a) * rng.uniform(-1.0, 1.0) * np.sin(
            np.pi * np.arange(d) / (d - 1))
    else:
        bonds, energies = rng.uniform(0.5, 1.5, d - 1), 0.1 * rng.normal(size=d)
    if not onsite:
        energies = np.zeros(d)
    if mirror:
        bonds, energies = _palindrome(bonds), _palindrome(energies)
    return np.diag(energies) + np.diag(bonds, 1) + np.diag(bonds, -1)


class TestSpectralOracle:
    """Transfer fidelities from (0, d-1) against the amplitude the chain's
    eigenvalues give alone, never an eigenvector, across the parity split
    at d = 128 and both parity routes."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(h=oracle_chain(), fraction=st.floats(0.01, 1.0))
    def test_fidelities(self, h, fraction):
        d = h.shape[0]
        op = Operator(h, tag=HERMITIAN)
        times = np.linspace(0.0, d, 201)  # the front reaches site d-1 near t = d/2
        expected = np.abs(_spectral_amplitudes(h, times)) ** 2
        curve = fidelity_curve(op, times, 0, d - 1).fidelities
        assert np.abs(curve - expected).max() <= _oracle_atol(h, d)
        t = fraction * d
        expected = abs(_spectral_amplitudes(h, t)) ** 2
        assert abs(transfer_fidelity(op, t, 0, d - 1) - expected) <= _oracle_atol(h, t)
        if d <= 10 and not np.diagonal(h).any():  # the search's chain has no on-site energy
            negated, _ = _search(OptimizeConfig(d=d, t_target=t))
            assert abs(-negated(-np.diagonal(h, 1)) - expected) <= _oracle_atol(h, t)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(d=st.sampled_from(ORACLE_SIZES), vartheta=st.floats(0.5, 1.5))
    def test_transfer_time(self, d, vartheta):
        report = transfer_time(d, vartheta)
        h = pst_hamiltonian(d, vartheta).matrix
        amplitude = _spectral_amplitudes(h, report.t_star)
        assert abs(report.peak_fidelity - abs(amplitude) ** 2) <= _oracle_atol(h, report.t_star)


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

    @pytest.mark.parametrize("vartheta", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_vartheta(self, vartheta):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ZeroThetaError, match="vartheta must be positive and finite"):
                transfer_time(4, vartheta)

    def test_largest_vartheta_still_transfers(self):
        # 2 * vartheta overflows here, so t* must come from (pi/2) / vartheta
        report = transfer_time(2, 1.7e308)
        assert report.t_star == (math.pi / 2) / 1.7e308 > 0
        assert report.peak_fidelity >= 1 - 1e-10

    @pytest.mark.parametrize("vartheta", [5e-324, 1e-308])
    def test_overflowing_period_refused_naming_vartheta(self, vartheta):
        # t* = inf at 5e-324 reached the phases unchecked; at 1e-308 only the period was inf
        message = re.escape(f"the period pi/vartheta must be finite, got vartheta={vartheta!r}")
        with pytest.raises(ZeroThetaError, match=message):
            transfer_time(4, vartheta)
        with pytest.raises(ZeroThetaError, match=message):
            _curve_and_crossing(4, vartheta, np.linspace(0.0, 1.0, 5))
        assert math.isfinite(transfer_time(4, 1e-300).period)

    def test_report_invariants(self):
        report = TransferReport(d=4, vartheta=1.0, t_star=math.pi / 2, peak_fidelity=1.0)
        assert report.period == math.pi
        with pytest.raises(ValueError):
            TransferReport(d=4, vartheta=1.0, t_star=1.0, peak_fidelity=1.5)

    @pytest.mark.parametrize("vartheta", [1.2e308, 1.4203703703703703e308, 0.3])
    def test_period_is_pi_over_vartheta_bit_for_bit(self, vartheta):
        # where pi/vartheta is subnormal, 2 t* rounds differently from it
        assert transfer_time(2, vartheta).period.hex() == pst._period(vartheta).hex()

    @pytest.mark.parametrize("vartheta", [0.0, -1.0, math.nan, math.inf])
    def test_report_rejects_vartheta_outside_positive_finite(self, vartheta):
        with pytest.raises(ValueError, match="vartheta must be positive and finite"):
            TransferReport(d=4, vartheta=vartheta, t_star=1.0, peak_fidelity=1.0)

    @pytest.mark.parametrize("t_star", [0.0, -1.0, math.nan, math.inf, -math.inf])
    def test_report_rejects_t_star_outside_positive_finite(self, t_star):
        with pytest.raises(ValueError, match="transfer time must be positive and finite"):
            TransferReport(d=4, vartheta=1.0, t_star=t_star, peak_fidelity=1.0)


class TestCurveAndCrossing:
    """`pst._curve_and_crossing` serves `qwire pst` from one eigensolve."""

    # odd and even d, below and above the parity split, and a vartheta
    # whose 2*vartheta overflows
    @pytest.mark.parametrize("d, vartheta, t_max, samples", [
        (2, 1.0, 3.2, 400), (5, 0.3, 12.0, 97), (8, 1.0, 3.2, 400), (64, 3.1, 1.0, 1000),
        (129, 1.0, math.pi, 300), (200, 1.0, math.pi, 4000), (257, 1.9, 2.0, 50),
        (2, 1.7e308, 1e-308, 3),
    ])
    def test_equals_curve_and_transfer_time(self, d, vartheta, t_max, samples, monkeypatch):
        grid = np.linspace(0.0, t_max, samples)
        expected_curve = fidelity_curve(pst_hamiltonian(d, vartheta), grid, 0, d - 1)
        expected_report = transfer_time(d, vartheta)
        solves = []
        solve = numerics._hermitian_solve

        def counting(matrix, *args):
            solves.append(matrix.shape)
            return solve(matrix, *args)

        monkeypatch.setattr(numerics, "_hermitian_solve", counting)
        curve, report = _curve_and_crossing(d, vartheta, grid)
        assert solves == [(d, d)]
        assert curve.times.tobytes() == expected_curve.times.tobytes()
        assert curve.fidelities.tobytes() == expected_curve.fidelities.tobytes()
        # the crossing keeps transfer_fidelity's complex phases, bit for bit
        assert report == expected_report
        assert report.peak_fidelity.hex() == expected_report.peak_fidelity.hex()

    def test_crossing_time_follows_the_grid_through_one_check(self, monkeypatch):
        seen = []
        factors = pst._evolution_factors

        def recording(hamiltonian, times, *args):
            seen.append(times.tolist())
            return factors(hamiltonian, times, *args)

        monkeypatch.setattr(pst, "_evolution_factors", recording)
        curve, report = _curve_and_crossing(4, 1.0, [0.0, 1.0])
        assert seen == [[0.0, 1.0, math.pi / 2]]
        assert curve.times.tolist() == [0.0, 1.0]
        # an empty grid is the crossing alone: transfer_time
        assert _curve_and_crossing(4, 1.0, ()) == (None, report)
        assert seen[1:] == [[math.pi / 2]]

    def test_missed_crossing_still_raises(self, monkeypatch):
        monkeypatch.setattr(pst, "PEAK_FIDELITY_FLOOR", -1.0)  # every peak misses 2
        with pytest.raises(ArithmeticError, match="missed perfect fidelity"):
            _curve_and_crossing(7, 1.0, np.linspace(0.0, 1.0, 5))


class TestMirrorCheck:
    def test_transfer_chain_is_symmetric(self):
        for d in (2, 5, 10):
            assert mirror_check(pst_hamiltonian(d, 1.0))

    def test_uniform_line_is_symmetric(self):
        assert mirror_check(build_hamiltonian(uniform_chain(6, LINE)))

    def test_lopsided_chain_is_not(self):
        spec = ChainSpec(d=3, topology=LINE, E0=0.0, couplings=(1.0, 2.0))
        assert not mirror_check(build_hamiltonian(spec))

    def test_tiny_lopsided_chain_is_not(self):
        # an absolute tolerance passed every chain whose entries are below it
        spec = ChainSpec(d=3, topology=LINE, E0=0.0, couplings=(1e-13, 3e-13))
        assert not mirror_check(build_hamiltonian(spec))

    @pytest.mark.parametrize("exponent", range(-200, 201, 25))
    def test_verdict_does_not_depend_on_scale(self, exponent):
        scale = 10.0 ** exponent
        assert mirror_check(pst_hamiltonian(8, scale))
        spec = ChainSpec(d=4, topology=LINE, E0=0.0, couplings=(scale, 3 * scale, 1.5 * scale))
        assert not mirror_check(build_hamiltonian(spec))

    def test_nan_fails(self):
        matrix = np.zeros((3, 3))
        matrix[1, 1] = math.nan  # on the mirror axis, where H - JHJ reads nan - nan
        assert not mirror_check(Operator(matrix, GENERAL))
