import math

import numpy as np
import pytest

from qwire.errors import (
    BadCouplingCountError,
    DimensionTooSmallError,
    NotNormalizedError,
)
from qwire.lattice import (
    LINE,
    RING,
    ChainSpec,
    build_hamiltonian,
    dispersion,
    dispersion_check,
    ring_position_spread,
    uniform_chain,
    wave_numbers,
)
from qwire.numerics import Operator, StateVector, apply, basis_state, hermitian_eig, max_abs
from qwire.weyl import momentum_basis


class TestChainSpec:
    def test_coupling_count_line(self):
        with pytest.raises(BadCouplingCountError):
            ChainSpec(d=4, topology=LINE, E0=0.0, couplings=(1.0, 1.0))

    def test_coupling_count_ring(self):
        with pytest.raises(BadCouplingCountError):
            ChainSpec(d=4, topology=RING, E0=0.0, couplings=(1.0, 1.0, 1.0))

    def test_rejects_small_d(self):
        with pytest.raises(DimensionTooSmallError):
            ChainSpec(d=1, topology=LINE, E0=0.0, couplings=())

    def test_rejects_unknown_topology(self):
        with pytest.raises(ValueError):
            ChainSpec(d=2, topology="tree", E0=0.0, couplings=(1.0,))

    def test_uniform_constructor(self):
        spec = uniform_chain(5, RING, E0=1.0, A=0.5)
        assert spec.couplings == (0.5,) * 5
        assert spec.is_uniform

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_values(self, bad):
        with pytest.raises(ValueError, match="couplings must be finite"):
            ChainSpec(d=3, topology=LINE, E0=0.0, couplings=(1.0, bad))
        with pytest.raises(ValueError, match="E0 must be finite"):
            ChainSpec(d=3, topology=LINE, E0=bad, couplings=(1.0, 1.0))


class TestBuildHamiltonian:
    def test_single_bond(self):
        h = build_hamiltonian(uniform_chain(2, LINE)).matrix
        assert np.array_equal(h, np.array([[0.0, -1.0], [-1.0, 0.0]]))

    def test_decoupled_ring(self):
        h = build_hamiltonian(uniform_chain(3, RING, E0=5.0, A=0.0)).matrix
        assert np.array_equal(h, 5.0 * np.eye(3))

    def test_ring_d4_spectrum(self):
        # closed-form oracle at k_j b = 2 pi j / 4: {-2, 0, 0, 2}
        system = hermitian_eig(build_hamiltonian(uniform_chain(4, RING)))
        assert np.allclose(system.values, [-2.0, 0.0, 0.0, 2.0], atol=1e-12)

    def test_line_is_tridiagonal(self):
        h = build_hamiltonian(uniform_chain(6, LINE)).matrix
        assert h[0, 5] == 0 and h[5, 0] == 0
        assert np.count_nonzero(h) == 10

    def test_ring_has_corners(self):
        h = build_hamiltonian(uniform_chain(6, RING)).matrix
        assert h[0, 5] == -1.0 and h[5, 0] == -1.0


def _bond_loop_hamiltonian(spec):
    """The chain Hamiltonian one bond at a time: E0 on the diagonal, then
    -A_l added to both entries of bond l (a d=2 ring adds twice)."""
    h = np.zeros((spec.d, spec.d), dtype=complex)
    np.fill_diagonal(h, spec.E0)
    for bond, amplitude in enumerate(spec.couplings):
        i, j = bond, (bond + 1) % spec.d
        h[i, j] += -amplitude
        h[j, i] += -amplitude
    return h


class TestBuildMatchesBondLoop:
    """The strided build gives exactly the matrix of the per-bond loop."""

    @pytest.mark.parametrize("topology", [LINE, RING])
    @pytest.mark.parametrize("d", range(2, 10))
    def test_signed_couplings(self, topology, d):
        rng = np.random.default_rng(300 + d)
        n_bonds = d if topology == RING else d - 1
        couplings = rng.uniform(-2.0, 2.0, n_bonds)
        couplings[rng.integers(n_bonds)] = 0.0  # a cut bond
        spec = ChainSpec(d=d, topology=topology, E0=float(rng.normal()),
                         couplings=tuple(couplings))
        built = build_hamiltonian(spec).matrix
        oracle = _bond_loop_hamiltonian(spec)
        assert np.array_equal(built, oracle)
        assert built.tobytes() == oracle.tobytes()  # signed zeros included

    def test_two_site_ring_accumulates_both_bonds(self):
        spec = ChainSpec(d=2, topology=RING, E0=0.25, couplings=(0.5, 1.75))
        built = build_hamiltonian(spec).matrix
        assert np.array_equal(built, _bond_loop_hamiltonian(spec))
        assert built[0, 1] == built[1, 0] == -2.25


class TestDispersion:
    def test_ring_d6_band(self):
        assert np.allclose(dispersion(RING, 6, 0.0, 1.0), [-2, -1, 1, 2, 1, -1], atol=1e-12)

    def test_line_d2_band(self):
        expected = [-2 * math.cos(math.pi / 3), -2 * math.cos(2 * math.pi / 3)]
        assert np.allclose(dispersion(LINE, 2, 0.0, 1.0), expected, atol=1e-12)
        assert np.allclose(dispersion(LINE, 2, 0.0, 1.0), [-1.0, 1.0], atol=1e-12)

    def test_flat_band(self):
        for topology in (RING, LINE):
            assert np.allclose(dispersion(topology, 9, 3.5, 0.0), 3.5)

    def test_rejects_small_d(self):
        with pytest.raises(DimensionTooSmallError):
            dispersion(RING, 1, 0.0, 1.0)


class TestWaveNumbers:
    def test_ring(self):
        j, kb = wave_numbers(RING, 4)
        assert j.tolist() == [0, 1, 2, 3]
        assert np.allclose(kb, [0.0, math.pi / 2, math.pi, 3 * math.pi / 2], atol=1e-15)

    def test_line(self):
        j, kb = wave_numbers(LINE, 3)
        assert j.tolist() == [1, 2, 3]
        assert np.allclose(kb, [math.pi / 4, math.pi / 2, 3 * math.pi / 4], atol=1e-15)

    @pytest.mark.parametrize("topology", [RING, LINE])
    def test_dispersion_uses_them(self, topology):
        _, kb = wave_numbers(topology, 7)
        assert np.array_equal(dispersion(topology, 7, 0.5, 1.5), 0.5 - 2 * 1.5 * np.cos(kb))

    def test_rejects_bad_input(self):
        with pytest.raises(DimensionTooSmallError):
            wave_numbers(LINE, 1)
        with pytest.raises(ValueError):
            wave_numbers("star", 4)


class TestDispersionCheck:
    @pytest.mark.parametrize(
        "topology,d,E0,A",
        [(RING, 8, 0.0, 1.0), (LINE, 13, 2.0, 0.5), (RING, 2, -1.0, 0.7), (LINE, 64, 0.3, 2.0)],
    )
    def test_eigensolver_matches_closed_form(self, topology, d, E0, A):
        assert dispersion_check(uniform_chain(d, topology, E0, A)) <= 1e-10

    def test_zero_coupling_is_exact(self):
        assert dispersion_check(uniform_chain(7, LINE, E0=4.0, A=0.0)) == 0.0

    def test_requires_uniform_couplings(self):
        spec = ChainSpec(d=3, topology=LINE, E0=0.0, couplings=(1.0, 2.0))
        with pytest.raises(ValueError):
            dispersion_check(spec)


class TestSpectralSymmetries:
    def test_ring_spectrum_invariant_under_relabeling(self):
        rng = np.random.default_rng(17)
        couplings = tuple(rng.uniform(0.2, 2.0, size=6))
        base = ChainSpec(d=6, topology=RING, E0=0.4, couplings=couplings)
        rolled = ChainSpec(d=6, topology=RING, E0=0.4,
                           couplings=tuple(np.roll(couplings, 1)))
        values_a = hermitian_eig(build_hamiltonian(base)).values
        values_b = hermitian_eig(build_hamiltonian(rolled)).values
        assert np.allclose(values_a, values_b, atol=1e-10)

    @pytest.mark.parametrize("d", [2, 5, 8, 13])
    def test_line_spectrum_symmetric_about_zero(self, d):
        values = hermitian_eig(build_hamiltonian(uniform_chain(d, LINE))).values
        assert np.allclose(values, -values[::-1], atol=1e-10)

    @pytest.mark.parametrize("d", [3, 6, 11])
    def test_momentum_columns_diagonalize_uniform_ring(self, d):
        E0, A = 0.7, 1.3
        h = build_hamiltonian(uniform_chain(d, RING, E0, A)).matrix
        f = momentum_basis(d).matrix
        for j in range(d):
            energy = E0 - 2 * A * math.cos(2 * math.pi * j / d)
            assert max_abs(h @ f[:, j] - energy * f[:, j]) <= 1e-10


class TestRingPositionSpread:
    def test_point_distribution(self):
        assert ring_position_spread(basis_state(12, 3)) == 0.0

    def test_uniform_large_ring_near_limit(self):
        d = 201
        state = StateVector(np.ones(d) / math.sqrt(d))
        assert abs(ring_position_spread(state) - math.pi / math.sqrt(3)) <= 1e-3

    @pytest.mark.parametrize("d", [3, 10, 47, 301])
    def test_finite_size_closed_form(self, d):
        # discrete-uniform variance oracle: (2 pi / d)^2 (d^2 - 1) / 12
        oracle = math.sqrt((2 * math.pi / d) ** 2 * (d * d - 1) / 12)
        closed_form = (math.pi / math.sqrt(3)) * math.sqrt(1 - 1 / d**2)
        assert abs(oracle - closed_form) <= 1e-12
        state = StateVector(np.ones(d) / math.sqrt(d))
        assert abs(ring_position_spread(state) - closed_form) <= 1e-12

    def test_monotone_in_d(self):
        spreads = [
            ring_position_spread(StateVector(np.ones(d) / math.sqrt(d)))
            for d in range(3, 302)
        ]
        assert all(a < b for a, b in zip(spreads, spreads[1:]))

    @pytest.mark.parametrize(
        "bad",
        [StateVector(np.ones(4), check_norm=False)]
        + [StateVector(amps, check_norm=False)
           for value in (math.nan, math.inf, -math.inf)
           for amps in ([0.5, value, 0.5, 0.5], [value] * 4)]
        + [apply(Operator(np.full((3, 3), np.nan)), basis_state(3, 0))],
        ids=["norm-4"]
        + [f"{value}-{where}" for value in ("nan", "inf", "-inf") for where in ("one", "every")]
        + ["apply-nan-operator"],
    )
    def test_rejects_unnormalized(self, bad):
        with pytest.raises(NotNormalizedError):
            ring_position_spread(bad)
