import cmath
import math

import numpy as np
import pytest
from scipy.linalg import expm

from qwire.errors import (
    DimensionTooSmallError,
    NotProportionalError,
    ZeroThetaError,
)
from qwire.numerics import HERMITIAN, Operator, basis_state, hermitian_eig, max_abs
from qwire.weyl import (
    WeylPair,
    clock_matrix,
    commutation_phase,
    equidistant_hamiltonian,
    momentum_basis,
    shift_matrix,
    time_step,
    verify_shift_identity,
    weyl_pair,
)


class TestShiftMatrix:
    def test_d2_is_swap(self):
        assert np.array_equal(shift_matrix(2).matrix, np.array([[0, 1], [1, 0]]))

    def test_wraparound(self):
        out = shift_matrix(4).matrix @ basis_state(4, 3).amplitudes
        assert np.array_equal(out, basis_state(4, 0).amplitudes)

    def test_order_d(self):
        powered = np.linalg.matrix_power(shift_matrix(5).matrix, 5)
        assert np.array_equal(powered, np.eye(5))

    def test_rejects_small_dimension(self):
        with pytest.raises(DimensionTooSmallError):
            shift_matrix(1)


class TestClockMatrix:
    def test_d2_is_sign_flip(self):
        assert np.allclose(clock_matrix(2).matrix, np.diag([1.0, -1.0]))

    def test_d4_entries(self):
        assert np.allclose(clock_matrix(4).matrix, np.diag([1.0, 1j, -1.0, -1j]))

    @pytest.mark.parametrize("d", range(2, 17))
    def test_trace_vanishes(self, d):
        # geometric-sum oracle: the d-th roots of unity sum to zero
        oracle = sum(cmath.exp(2j * cmath.pi * l / d) for l in range(d))
        assert abs(oracle) <= 1e-12
        assert abs(np.trace(clock_matrix(d).matrix)) <= 1e-12

    @pytest.mark.parametrize("d", range(2, 17))
    def test_order_d(self, d):
        for mat in (shift_matrix(d).matrix, clock_matrix(d).matrix):
            assert max_abs(np.linalg.matrix_power(mat, d) - np.eye(d)) <= 1e-10


class TestCommutationPhase:
    def test_commuting_pair(self):
        eye = Operator(np.eye(3, dtype=complex), tag="unitary")
        assert commutation_phase(eye, eye) == 1.0

    def test_shift_clock_d3_by_direct_multiplication(self):
        # oracle: multiply the 3x3 matrices entry by entry in plain python
        d = 3
        u = [[0, 0, 1], [1, 0, 0], [0, 1, 0]]
        v = [[cmath.exp(2j * cmath.pi * l / d) if l == m else 0 for m in range(d)] for l in range(d)]
        uv = [[sum(u[i][k] * v[k][j] for k in range(d)) for j in range(d)] for i in range(d)]
        vu = [[sum(v[i][k] * u[k][j] for k in range(d)) for j in range(d)] for i in range(d)]
        ratios = [uv[i][j] / vu[i][j] for i in range(d) for j in range(d) if vu[i][j] != 0]
        assert all(abs(r - ratios[0]) <= 1e-12 for r in ratios)
        assert abs(ratios[0] - cmath.exp(-2j * cmath.pi / d)) <= 1e-12

        measured = commutation_phase(shift_matrix(d), clock_matrix(d))
        assert abs(measured - cmath.exp(-2j * cmath.pi / d)) <= 1e-12

    @pytest.mark.parametrize("d", range(2, 17))
    def test_phase_is_primitive_root(self, d):
        lam = commutation_phase(shift_matrix(d), clock_matrix(d))
        assert abs(lam**d - 1.0) <= 1e-12 * d
        for k in range(1, d):
            assert abs(lam**k - 1.0) > 1e-12

    def test_not_proportional(self):
        u = shift_matrix(3)
        v = Operator(np.diag([1.0, 1.0, 1j]), tag="unitary")
        with pytest.raises(NotProportionalError):
            commutation_phase(u, v)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, -math.inf)])
    @pytest.mark.parametrize("whole", [True, False])
    def test_non_finite_operator_rejected(self, bad, whole):
        m = shift_matrix(3).matrix.copy()
        if whole:
            m[:] = bad
        else:
            m[1, 0] = bad
        for u, v in [(Operator(m), clock_matrix(3)), (clock_matrix(3), Operator(m))]:
            with np.errstate(invalid="ignore"), pytest.raises(ValueError):
                commutation_phase(u, v)

    def test_untagged_unitary_rejected(self):
        # the unitary tag is the certificate: the same matrix tagged GENERAL fails
        general = Operator(shift_matrix(3).matrix)
        for u, v in [(general, clock_matrix(3)), (clock_matrix(3), general)]:
            with pytest.raises(ValueError, match="unitary-tagged"):
                commutation_phase(u, v)


class TestMomentumBasis:
    def test_d2_columns(self):
        f = momentum_basis(2).matrix
        assert np.allclose(f[:, 0], [1 / math.sqrt(2), 1 / math.sqrt(2)])
        assert np.allclose(f[:, 1], [1 / math.sqrt(2), -1 / math.sqrt(2)])

    @pytest.mark.parametrize("d", range(2, 17))
    def test_columns_are_shift_eigenvectors(self, d):
        f = momentum_basis(d).matrix
        s = shift_matrix(d).matrix
        for j in range(d):
            expected = np.exp(2j * np.pi * j / d) * f[:, j]
            assert max_abs(s @ f[:, j] - expected) <= 1e-12

    @pytest.mark.parametrize("d", range(2, 17))
    def test_diagonalizes_shift_in_column_order(self, d):
        f = momentum_basis(d).matrix
        diag = f.conj().T @ shift_matrix(d).matrix @ f
        assert max_abs(diag - np.diag(np.exp(2j * np.pi * np.arange(d) / d))) <= 1e-12

    def test_flat_modulus(self):
        d = 7
        assert np.allclose(np.abs(momentum_basis(d).matrix), 1 / math.sqrt(d))


class TestEquidistantHamiltonian:
    @pytest.mark.parametrize("d,theta", [(2, 1.0), (5, 0.7), (9, 2.5), (16, 1.0)])
    def test_spectrum_is_equidistant(self, d, theta):
        system = hermitian_eig(equidistant_hamiltonian(d, theta))
        expected = theta * np.arange(d)
        assert np.allclose(system.values, expected, rtol=1e-10, atol=1e-10 * theta * d)
        gaps = np.diff(system.values)
        assert np.allclose(gaps, theta, rtol=1e-10, atol=1e-10 * theta)

    def test_two_level_case(self):
        system = hermitian_eig(equidistant_hamiltonian(2, 1.0))
        assert np.allclose(system.values, [0.0, 1.0])

    def test_hbar_scales_spectrum(self):
        system = hermitian_eig(equidistant_hamiltonian(3, 1.0, hbar=2.0))
        assert np.allclose(system.values, [0.0, 2.0, 4.0])

    def test_all_sites_coupled(self):
        h = equidistant_hamiltonian(5, 1.0).matrix
        off_diagonal = np.abs(h[~np.eye(5, dtype=bool)])
        assert off_diagonal.min() > 0.01

    def test_zero_theta_rejected(self):
        with pytest.raises(ZeroThetaError):
            equidistant_hamiltonian(4, 0.0)

    def test_negative_theta_reverses_spectrum(self):
        system = hermitian_eig(equidistant_hamiltonian(3, -1.0))
        assert np.allclose(system.values, [-2.0, -1.0, 0.0])


class TestTimeStep:
    def test_arithmetic_cases(self):
        assert time_step(4, math.pi / 2) == 2 * math.pi / (math.pi / 2 * 4)
        assert abs(time_step(4, math.pi / 2) - 1.0) <= 1e-15
        assert abs(time_step(2, math.pi) - 1.0) <= 1e-15

    def test_defining_identity(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            d = int(rng.integers(2, 40))
            theta = float(rng.uniform(0.01, 20.0))
            assert abs(time_step(d, theta) * theta * d - 2 * math.pi) <= 1e-12

    def test_rejects_nonpositive_theta(self):
        with pytest.raises(ZeroThetaError):
            time_step(4, 0.0)
        with pytest.raises(ZeroThetaError):
            time_step(4, -1.0)

    @pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("call", [time_step, equidistant_hamiltonian, verify_shift_identity])
    def test_non_finite_theta_rejected(self, call, theta):
        with pytest.raises(ZeroThetaError, match="theta"):
            call(4, theta)


class TestShiftIdentity:
    def test_small_cases_hold(self):
        assert verify_shift_identity(2, 1.0).holds
        assert verify_shift_identity(8, 3.7).holds

    def test_d16_residual(self):
        result = verify_shift_identity(16, 1.0)
        assert result.holds
        assert result.residual <= 1e-10

    def test_eigenphase_substitution(self):
        # substitution oracle: exp(-i theta j dt) must equal exp(-2 pi i j / d)
        d, theta = 11, 2.6
        dt = time_step(d, theta)
        j = np.arange(d)
        assert max_abs(np.exp(-1j * theta * j * dt) - np.exp(-2j * np.pi * j / d)) <= 1e-12

    def test_against_pade_exponential(self):
        # independent oracle: scipy's exponential instead of the spectral route
        d, theta = 16, 1.0
        h = equidistant_hamiltonian(d, theta).matrix
        u = expm(-1j * h * time_step(d, theta))
        result = verify_shift_identity(d, theta)
        assert max_abs(u - result.global_phase * shift_matrix(d).matrix) <= 1e-10

    @pytest.mark.parametrize("d", range(2, 33))
    def test_holds_across_dimensions(self, d):
        rng = np.random.default_rng(d)
        for theta in rng.uniform(0.1, 5.0, size=5):
            result = verify_shift_identity(d, float(theta))
            assert result.holds, f"d={d} theta={theta}: residual {result.residual}"


class TestWeylPair:
    @pytest.mark.parametrize("d", range(2, 17))
    def test_construction_certifies_invariants(self, d):
        pair = weyl_pair(d)
        assert pair.dim == d
        assert abs(pair.commutation_phase - cmath.exp(-2j * cmath.pi / d)) <= 1e-12

    def test_rejects_wrong_phase(self):
        with pytest.raises(ValueError):
            WeylPair(dim=3, shift=shift_matrix(3), clock=clock_matrix(3),
                     commutation_phase=1.0 + 0j)

    def test_rejects_small_dimension(self):
        with pytest.raises(DimensionTooSmallError):
            weyl_pair(1)

    @pytest.mark.parametrize("d", [2, 5, 16])
    def test_keeps_certification_residuals(self, d):
        pair = weyl_pair(d)
        eye = np.eye(d)
        assert pair.shift_pow_residual == max_abs(
            np.linalg.matrix_power(pair.shift.matrix, d) - eye)
        assert pair.clock_pow_residual == max_abs(
            np.linalg.matrix_power(pair.clock.matrix, d) - eye)
        assert pair.commutation_residual <= 1e-12
        assert pair.shift_pow_residual <= 1e-10 and pair.clock_pow_residual <= 1e-10

    def test_rejects_nan_operator(self):
        nan_shift = Operator(np.full((3, 3), np.nan))
        with pytest.raises(ValueError):
            WeylPair(dim=3, shift=nan_shift, clock=clock_matrix(3),
                     commutation_phase=commutation_phase(shift_matrix(3), clock_matrix(3)))
