import cmath
import math
import warnings

import numpy as np
import pytest
from scipy.linalg import expm

from qwire.errors import (
    DimensionMismatchError,
    DimensionTooSmallError,
    NotProportionalError,
    ZeroThetaError,
)
from qwire.numerics import (
    HERMITIAN,
    UNITARY,
    Operator,
    basis_state,
    evolve,
    hermitian_eig,
    max_abs,
)
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


    @pytest.mark.parametrize("d", range(2, 9))
    def test_is_unit_time_evolution_under_ramp_levels(self, d):
        # levels -2*pi*l/d for one unit of time give the phases exp(2*pi*i*l/d)
        ramp = Operator(np.diag(-2 * np.pi * np.arange(d) / d), tag=HERMITIAN)
        assert max_abs(evolve(ramp, 1.0).matrix - clock_matrix(d).matrix) <= 1e-12


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
        m = shift_matrix(3).matrix.astype(complex)  # the shift is stored real
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

    def test_all_sites_coupled(self):
        h = equidistant_hamiltonian(5, 1.0).matrix
        off_diagonal = np.abs(h[~np.eye(5, dtype=bool)])
        assert off_diagonal.min() > 0.01

    def test_zero_theta_rejected(self):
        with pytest.raises(ZeroThetaError):
            equidistant_hamiltonian(4, 0.0)

    # a numpy integer d must not overflow in numpy, with a RuntimeWarning
    @pytest.mark.parametrize("d,theta", [
        (4, 1e308), (4, -1e308), (1001, 1e306), (np.int64(4), 1e308),
    ])
    def test_overflowing_levels_rejected(self, d, theta):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ZeroThetaError, match="theta"):
                equidistant_hamiltonian(d, theta)

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

    @pytest.mark.parametrize("theta", [1j, np.complex128(1 + 1j), np.complex128(1 + 0j)])
    @pytest.mark.parametrize("call", [time_step, equidistant_hamiltonian])
    def test_complex_theta_rejected(self, call, theta):
        # refused by name before any comparison, and without a ComplexWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ZeroThetaError, match="must be real"):
                call(4, theta)

    @pytest.mark.parametrize("d,theta", [
        (4, 1e308), (2, 1e308), (3, 5e-324), (np.int64(4), 1e308),
    ])
    @pytest.mark.parametrize("call", [time_step, verify_shift_identity])
    def test_step_overflow_rejected(self, call, d, theta):
        # theta*d overflows to inf (step 0.0), or the step itself to inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ZeroThetaError, match="theta"):
                call(d, theta)


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


    @pytest.mark.parametrize("d", [2, 5, 8])
    def test_one_step_moves_every_site_up(self, d):
        # state by state: |l> lands on |l+1 mod d>, all with the same phase
        theta = 0.7
        u = evolve(equidistant_hamiltonian(d, theta), time_step(d, theta)).matrix
        phases = []
        for site in range(d):
            out = u @ basis_state(d, site).amplitudes
            landing = (site + 1) % d
            assert max_abs(np.delete(out, landing)) <= 1e-10
            phases.append(out[landing])
        assert np.allclose(np.abs(phases), 1.0, atol=1e-10)
        assert np.allclose(phases, phases[0], atol=1e-10)


class TestWeylPair:
    @pytest.mark.parametrize("d", range(2, 17))
    def test_construction_certifies_invariants(self, d):
        pair = weyl_pair(d)
        assert pair.dim == d
        assert abs(pair.commutation_phase - cmath.exp(-2j * cmath.pi / d)) <= 1e-12

    @pytest.mark.parametrize("d", range(2, 17))
    def test_measures_the_phase_weyl_pair_reports(self, d):
        pair = WeylPair(shift_matrix(d), clock_matrix(d))
        reference = weyl_pair(d)
        # fields, not the pairs: Operator equality is ambiguous on arrays
        assert pair.commutation_phase == reference.commutation_phase
        assert pair.commutation_phase == commutation_phase(shift_matrix(d), clock_matrix(d))
        assert (pair.dim, pair.shift_pow_residual, pair.clock_pow_residual,
                pair.commutation_residual) == (
            reference.dim, reference.shift_pow_residual, reference.clock_pow_residual,
            reference.commutation_residual)

    def test_rejects_measured_phase_that_is_not_primitive(self):
        # C^2 has order 4 like C, but U C^2 = -C^2 U: lambda = -1 squares to 1
        c = clock_matrix(4).matrix
        with pytest.raises(ValueError, match="not a primitive d-th root of unity"):
            WeylPair(shift=shift_matrix(4), clock=Operator(c @ c, tag=UNITARY))

    def test_rejects_clock_with_no_common_phase(self):
        # order 4, but the shift moves its phases to ones no scalar relates
        clock = Operator(np.diag([1, 1, 1j, -1j]), tag=UNITARY)
        with pytest.raises(NotProportionalError, match="not proportional"):
            WeylPair(shift=shift_matrix(4), clock=clock)

    def test_rejects_mismatched_clock(self):
        with pytest.raises(DimensionMismatchError, match="clock dim 4 != shift dim 3"):
            WeylPair(shift=shift_matrix(3), clock=clock_matrix(4))

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
        with pytest.raises(ValueError, match=r"shift\^d deviates from identity by nan"):
            WeylPair(shift=nan_shift, clock=clock_matrix(3))

    # U = diag(u1, u2) and an anti-diagonal V with V^2 = I: lambda = u1/u2 is
    # read at V U's larger entry, and the other entry's residual is
    # |b| |u2^2 - u1^2| / |u2|, which a small b keeps within 1e-12 while
    # lambda is off the unit circle, or on it but not a square root of 1
    def test_rejects_measured_phase_off_the_unit_circle(self):
        shift = Operator(np.diag([1.0 + 2e-12, -1.0]))
        clock = Operator(np.array([[0.0, 10.0], [0.1, 0.0]]))
        with pytest.raises(ValueError, match=r"must be unit modulus, got \(-1\.000000000002"):
            WeylPair(shift=shift, clock=clock)

    def test_rejects_measured_phase_that_is_not_a_root_of_unity(self):
        # lambda = -exp(-5e-12 i): |lambda^2 - 1| = 1e-11 exceeds 2e-12
        shift = Operator(np.diag([1.0, -np.exp(5e-12j)]))
        clock = Operator(np.array([[0.0, 20.0], [0.05, 0.0]]))
        with pytest.raises(ValueError, match="is not a d-th root of unity"):
            WeylPair(shift=shift, clock=clock)
