import math

import numpy as np
import pytest

from qwire.errors import (
    DimensionMismatchError,
    IndexOutOfRangeError,
    InvalidConfigError,
    NonHermitianInputError,
    RegisterTooLargeError,
)
from qwire.numerics import HERMITIAN, Operator, identity, max_abs
from qwire.pst import pst_couplings, pst_hamiltonian
from qwire.lattice import LINE, build_hamiltonian, uniform_chain
from qwire.spinchain import (
    MAX_QUBITS,
    ClassicalityGap,
    QubitRegister,
    SectorMap,
    classicality_gap,
    ladder_algebra_check,
    lowering_operator,
    number_operator,
    sector_map,
    single_excitation_sector,
    xy_chain_hamiltonian,
)


def lowering_oracle(n: int, site: int) -> np.ndarray:
    """Independent construction by bit enumeration: clear the site's bit."""
    dim = 2**n
    bit = 1 << (n - 1 - site)
    m = np.zeros((dim, dim), dtype=complex)
    for col in range(dim):
        if col & bit:
            m[col & ~bit, col] = 1.0
    return m


def popcount(x: int) -> int:
    return bin(x).count("1")


def kronecker_xy_chain(couplings) -> np.ndarray:
    """Reference build of the exchange chain from the Kronecker-product
    ladder operators: sum_j A_j (a^dag_j a_{j+1} + h.c.)."""
    n = len(couplings) + 1
    h = np.zeros((2**n, 2**n), dtype=complex)
    for j, amplitude in enumerate(couplings):
        hop = lowering_operator(n, j).matrix.conj().T @ lowering_operator(n, j + 1).matrix
        h += amplitude * (hop + hop.conj().T)
    return h


def kronecker_number_operator(n: int) -> np.ndarray:
    """Reference sum_j a^dag_j a_j from the Kronecker-product ladder operators."""
    total = np.zeros((2**n, 2**n), dtype=complex)
    for site in range(n):
        a = lowering_operator(n, site).matrix
        total += a.conj().T @ a
    return total


class TestLoweringOperator:
    def test_single_qubit_action(self):
        a = lowering_operator(1, 0).matrix
        ket0, ket1 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        assert np.array_equal(a @ ket1, ket0)
        assert np.array_equal(a @ ket0, np.zeros(2))

    @pytest.mark.parametrize("n,site", [(1, 0), (3, 0), (3, 1), (3, 2), (5, 3)])
    def test_matches_bit_enumeration_oracle(self, n, site):
        assert np.array_equal(lowering_operator(n, site).matrix, lowering_oracle(n, site))

    @pytest.mark.parametrize("n,site", [(1, 0), (2, 1), (4, 2)])
    def test_nilpotent(self, n, site):
        a = lowering_operator(n, site).matrix
        assert np.count_nonzero(a @ a) == 0

    def test_anticommutator_is_identity(self):
        a = lowering_operator(1, 0).matrix
        assert np.array_equal(a @ a.conj().T + a.conj().T @ a, np.eye(2))

    def test_site_bounds(self):
        with pytest.raises(IndexOutOfRangeError):
            lowering_operator(3, 3)

    def test_register_cap(self):
        with pytest.raises(RegisterTooLargeError):
            lowering_operator(MAX_QUBITS + 1, 0)
        with pytest.raises(RegisterTooLargeError):
            QubitRegister(13)


class TestLadderAlgebra:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_relations_hold_on_all_sites(self, n):
        for site in range(n):
            assert ladder_algebra_check(n, site)

    def test_detector_catches_perturbation(self):
        # same three relations, evaluated on a perturbed matrix
        a = lowering_operator(2, 0).matrix.copy()
        a[0, 0] += 1e-6
        eye = np.eye(4)
        ok = (
            max_abs(a @ a) <= 1e-14
            and max_abs(a.conj().T @ a.conj().T) <= 1e-14
            and max_abs(a @ a.conj().T + a.conj().T @ a - eye) <= 1e-14
        )
        assert not ok


class TestXYChain:
    def test_two_qubit_explicit_matrix(self):
        # 4x4 oracle: only the one-excitation corner hops, amplitude A
        A = 0.7
        expected = np.zeros((4, 4), dtype=complex)
        expected[1, 2] = expected[2, 1] = A
        assert np.allclose(xy_chain_hamiltonian([A]).matrix, expected, atol=1e-15)

    def test_hops_single_excitation(self):
        A = 0.7
        h = xy_chain_hamiltonian([A]).matrix
        ket_10 = np.zeros(4)
        ket_10[2] = 1.0  # site 0 excited under the big-endian convention
        out = h @ ket_10
        expected = np.zeros(4)
        expected[1] = A  # excitation moved to site 1
        assert np.allclose(out, expected)

    def test_vacuum_is_annihilated(self):
        h = xy_chain_hamiltonian([1.0, 0.5, 2.0]).matrix
        vacuum = np.zeros(16)
        vacuum[0] = 1.0
        assert np.count_nonzero(h @ vacuum) == 0

    def test_no_mixing_between_excitation_sectors(self):
        h = xy_chain_hamiltonian([1.0, 0.5, 2.0]).matrix
        for row in range(16):
            for col in range(16):
                if popcount(row) != popcount(col):
                    assert h[row, col] == 0.0

    @pytest.mark.parametrize("seed", range(4))
    def test_commutes_with_number_operator(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        couplings = rng.uniform(-2.0, 2.0, size=n - 1)
        h = xy_chain_hamiltonian(couplings).matrix
        n_op = number_operator(n).matrix
        assert max_abs(h @ n_op - n_op @ h) <= 1e-12


class TestBitArithmeticBuild:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_chain_equals_kronecker_build(self, n):
        couplings = np.random.default_rng(200 + n).uniform(-2.0, 2.0, size=n - 1)
        couplings[0] = -abs(couplings[0])
        if n > 2:
            couplings[-1] = 0.0
        expected = kronecker_xy_chain(couplings)
        assert np.array_equal(xy_chain_hamiltonian(couplings).matrix, expected)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_number_operator_equals_kronecker_sum(self, n):
        assert np.array_equal(number_operator(n).matrix, kronecker_number_operator(n))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_coupling_rejected(self, bad):
        with pytest.raises(NonHermitianInputError):
            xy_chain_hamiltonian([1.0, bad, 0.5])


class TestSectorMap:
    def test_indices_follow_big_endian_rule(self):
        assert sector_map(4).indices == (8, 4, 2, 1)

    @pytest.mark.parametrize("n", [1, 3, MAX_QUBITS])
    def test_indices_are_derived_from_n(self, n):
        assert SectorMap(n=n).indices == tuple(1 << (n - 1 - k) for k in range(n))
        assert sector_map(n) == SectorMap(n=n)

    @pytest.mark.parametrize("n", [0, -2, 2.5])
    def test_rejects_n_outside_the_register_rule(self, n):
        with pytest.raises(InvalidConfigError):
            SectorMap(n=n)

    def test_rejects_n_above_the_register_cap(self):
        with pytest.raises(RegisterTooLargeError):
            SectorMap(n=MAX_QUBITS + 1)


class TestSectorReduction:
    def test_identity_reduces_to_identity(self):
        block = single_excitation_sector(identity(8), sector_map(3))
        assert np.array_equal(block.matrix, np.eye(3))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            single_excitation_sector(identity(8), sector_map(4))

    @pytest.mark.parametrize("n", range(2, 7))
    def test_uniform_chain_reduces_to_line_model(self, n):
        A = 1.0
        block = single_excitation_sector(xy_chain_hamiltonian([A] * (n - 1)), sector_map(n))
        line = build_hamiltonian(uniform_chain(n, LINE, 0.0, A)).matrix
        # hopping signs differ by the alternating gauge; magnitudes agree
        assert np.allclose(np.abs(block.matrix), np.abs(line), atol=1e-12)
        gauge = np.diag((-1.0) ** np.arange(n))
        assert np.allclose(block.matrix, gauge @ line @ gauge, atol=1e-12)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_transfer_profile_reduces_to_transfer_hamiltonian(self, n):
        A = 0.8
        full = xy_chain_hamiltonian(pst_couplings(n, A))
        block = single_excitation_sector(full, sector_map(n))
        assert np.allclose(block.matrix, pst_hamiltonian(n, A).matrix, atol=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_random_couplings_reduce_to_hopping_matrix(self, seed):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(2, 9))
        couplings = rng.uniform(-2.0, 2.0, size=n - 1)
        block = single_excitation_sector(xy_chain_hamiltonian(couplings), sector_map(n))
        expected = np.zeros((n, n), dtype=complex)
        idx = np.arange(n - 1)
        expected[idx, idx + 1] = couplings
        expected[idx + 1, idx] = couplings
        assert np.allclose(block.matrix, expected, atol=1e-12)

    def test_full_and_reduced_dynamics_agree(self):
        n = 4
        rng = np.random.default_rng(7)
        couplings = rng.uniform(0.2, 1.5, size=n - 1)
        full = xy_chain_hamiltonian(couplings)
        block = single_excitation_sector(full, sector_map(n))
        indices = np.array(sector_map(n).indices)

        w_full, v_full = np.linalg.eigh(full.matrix)
        w_red, v_red = np.linalg.eigh(block.matrix)
        start_full = np.zeros(2**n, dtype=complex)
        start_full[indices[0]] = 1.0
        start_red = np.zeros(n, dtype=complex)
        start_red[0] = 1.0
        for t in rng.uniform(0.0, 10.0, size=20):
            big = (v_full * np.exp(-1j * w_full * t)) @ (v_full.conj().T @ start_full)
            small = (v_red * np.exp(-1j * w_red * t)) @ (v_red.conj().T @ start_red)
            assert max_abs(big[indices] - small) <= 1e-9


class TestClassicalityGap:
    def test_single_system_has_no_gap(self):
        assert classicality_gap(1) == ClassicalityGap(2, 2, 0)

    def test_eight_qubits(self):
        assert classicality_gap(8) == ClassicalityGap(256, 16, 240)

    def test_ten_qubits(self):
        assert classicality_gap(10) == ClassicalityGap(1024, 20, 1004)

    def test_results_are_exact_integers(self):
        result = classicality_gap(62)
        assert result.quantum == 2**62
        assert result.gap == 2**62 - 124

    def test_bounds(self):
        with pytest.raises(ValueError):
            classicality_gap(0)
        with pytest.raises(RegisterTooLargeError, match="^N = 63 exceeds the cap of 62$"):
            classicality_gap(63)
