import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import expm_series, random_hermitian
from qwire.errors import (
    DimensionMismatchError,
    NonHermitianInputError,
    NotNormalizedError,
)
from qwire.lattice import LINE, RING, ChainSpec, build_hamiltonian
from qwire.numerics import (
    GENERAL,
    HERMITIAN,
    UNITARY,
    EigenSystem,
    Operator,
    StateVector,
    _canonical_phases,
    apply,
    basis_state,
    evolution_phases,
    evolve,
    hermitian_eig,
    identity,
    max_abs,
)
from qwire.pst import pst_hamiltonian
from qwire.weyl import clock_matrix, equidistant_hamiltonian, shift_matrix

X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


class TestOperator:
    def test_rejects_non_square(self):
        with pytest.raises(DimensionMismatchError):
            Operator(np.zeros((2, 3)))

    def test_hermitian_tag_enforced(self):
        with pytest.raises(NonHermitianInputError):
            Operator(np.array([[0.0, 1.0], [0.0, 0.0]]), tag=HERMITIAN)

    def test_unitary_tag_enforced(self):
        with pytest.raises(ValueError):
            Operator(2 * np.eye(2), tag=UNITARY)

    def test_matrix_is_immutable(self):
        op = identity(3)
        with pytest.raises(ValueError):
            op.matrix[0, 0] = 5.0


NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf, complex(0.0, math.nan)])


class TestNonFiniteRejected:
    """A NaN or inf entry must fail every structural check, whether it
    fills the whole input or sits in one place."""

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 10_000), d=st.integers(1, 8), bad=NON_FINITE,
           where=st.integers(0, 63), whole=st.booleans())
    def test_hermitian_tag(self, seed, d, bad, where, whole):
        m = random_hermitian(np.random.default_rng(seed), d).matrix.copy()
        i, j = divmod(where % (d * d), d)
        m[i, j] = bad
        m[j, i] = np.conj(bad)  # keep the input symmetric under the dagger
        if whole:
            m[:] = bad
        with pytest.raises(NonHermitianInputError):
            Operator(m, tag=HERMITIAN)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 10_000), d=st.integers(1, 8), bad=NON_FINITE,
           where=st.integers(0, 63), whole=st.booleans())
    def test_unitary_tag(self, seed, d, bad, where, whole):
        m = evolve(random_hermitian(np.random.default_rng(seed), d), 0.7).matrix.copy()
        m[divmod(where % (d * d), d)] = bad
        if whole:
            m[:] = bad
        with pytest.raises(ValueError):
            Operator(m, tag=UNITARY)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 10_000), d=st.integers(1, 8), bad=NON_FINITE,
           where=st.integers(0, 63), whole=st.booleans())
    def test_state_vector(self, seed, d, bad, where, whole):
        rng = np.random.default_rng(seed)
        amps = rng.normal(size=d) + 1j * rng.normal(size=d)
        amps /= np.linalg.norm(amps)
        amps[where % d] = bad
        if whole:
            amps[:] = bad
        with pytest.raises(NotNormalizedError):
            StateVector(amps)


class TestHermitianRule:
    """`Operator(m, HERMITIAN)` accepts exactly the matrices the rule
    written out here accepts: finite entries and
    max |M - M^dag| <= 1e-12 * max |M|."""

    @staticmethod
    def _reference(m):
        if not np.isfinite(m).all():
            return False
        return np.max(np.abs(m - m.conj().T)) <= 1e-12 * np.max(np.abs(m))

    @staticmethod
    def _accepted(m):
        try:
            Operator(m, tag=HERMITIAN)
        except NonHermitianInputError:
            return False
        return True

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 10_000), d=st.integers(1, 8), where=st.integers(0, 63),
           kind=st.sampled_from(["exact", "bound", "zero", "bad"]),
           factor=st.sampled_from([0.5, 0.999999, 1.0, 1.000001, 2.0]),
           imaginary=st.booleans(), mirror=st.booleans(),
           bad=st.sampled_from([math.nan, math.inf, -math.inf, complex(0.0, math.inf),
                                complex(0.0, -math.inf), complex(math.nan, 0.0)]))
    def test_accepts_exactly_the_rule(self, seed, d, where, kind, factor, imaginary,
                                      mirror, bad):
        m = random_hermitian(np.random.default_rng(seed), d).matrix.copy()
        i, j = divmod(where % (d * d), d)
        if kind == "zero":
            m[:] = 0.0
        elif kind == "bound":
            # a perturbation just inside, at and just outside the bound
            step = factor * 1e-12 * np.max(np.abs(m))
            m[i, j] += 1j * step if imaginary else step
        elif kind == "bad":
            m[i, j] = bad
            if mirror:
                m[j, i] = np.conj(bad)
        assert self._accepted(m) == self._reference(m)

    @pytest.mark.parametrize("m", [
        [[0.0, math.inf], [0.0, 0.0]],
        [[0.0, math.inf], [-math.inf, 0.0]],
        [[math.inf * 1j, 0.0], [0.0, 0.0]],
        [[complex(0.0, math.inf), 0.0], [0.0, 0.0]],
    ])
    def test_infinite_entries_rejected(self, m):
        with pytest.raises(NonHermitianInputError):
            Operator(np.array(m, dtype=complex), tag=HERMITIAN)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 10_000), d=st.integers(2, 8), where=st.integers(0, 63),
           sign=st.sampled_from([1.0, -1.0]))
    def test_unmirrored_inf_rejected(self, seed, d, where, sign):
        m = random_hermitian(np.random.default_rng(seed), d).matrix.copy()
        i, j = divmod(where % (d * (d - 1)), d - 1)
        m[i, j + (j >= i)] = sign * math.inf  # off the diagonal, partner left finite
        with pytest.raises(NonHermitianInputError):
            Operator(m, tag=HERMITIAN)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 10_000), d=st.integers(1, 8), where=st.integers(0, 63),
           sign=st.sampled_from([1.0, -1.0]))
    def test_imaginary_inf_on_diagonal_rejected(self, seed, d, where, sign):
        m = random_hermitian(np.random.default_rng(seed), d).matrix.copy()
        k = where % d
        m[k, k] = complex(0.0, sign * math.inf)
        with pytest.raises(NonHermitianInputError):
            Operator(m, tag=HERMITIAN)


class TestStateVector:
    def test_norm_enforced(self):
        with pytest.raises(NotNormalizedError):
            StateVector([1.0, 1.0])

    def test_basis_state(self):
        e1 = basis_state(4, 1)
        assert e1.amplitudes[1] == 1.0
        assert e1.norm == 1.0


class TestHermitianEig:
    def test_already_diagonal(self):
        system = hermitian_eig(Operator(np.diag([3.0, 1.0, 2.0]), tag=HERMITIAN))
        assert np.allclose(system.values, [1.0, 2.0, 3.0])
        # eigenvectors of a diagonal matrix are identity columns, reordered
        perm = np.abs(system.vectors.matrix)
        assert np.allclose(np.sort(perm, axis=0)[-1], 1.0)
        assert np.allclose(perm @ perm.T, np.eye(3))

    def test_pauli_x_spectrum(self):
        system = hermitian_eig(Operator(X, tag=HERMITIAN))
        assert np.allclose(system.values, [-1.0, 1.0])

    def test_ring_spectrum_matches_closed_form(self):
        # closed-form oracle evaluated here with math.cos, nothing shared
        d = 6
        h = np.zeros((d, d), dtype=complex)
        for l in range(d):
            h[l, (l + 1) % d] = h[(l + 1) % d, l] = -1.0
        system = hermitian_eig(Operator(h, tag=HERMITIAN))
        expected = sorted(-2 * math.cos(2 * math.pi * j / d) for j in range(d))
        assert np.allclose(system.values, expected, atol=1e-12)

    def test_requires_hermitian_tag(self):
        with pytest.raises(NonHermitianInputError):
            hermitian_eig(Operator(np.eye(2), tag=GENERAL))

    def test_phase_canonicalization(self):
        rng = np.random.default_rng(11)
        system = hermitian_eig(random_hermitian(rng, 7))
        v = system.vectors.matrix
        for k in range(7):
            pivot = v[np.argmax(np.abs(v[:, k])), k]
            assert pivot.real > 0
            assert abs(pivot.imag) <= 1e-12

    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 10_000), d=st.integers(2, 64))
    def test_reconstruction_residual(self, seed, d):
        h = random_hermitian(np.random.default_rng(seed), d)
        system = hermitian_eig(h)
        v = system.vectors.matrix
        residual = max_abs(h.matrix - (v * system.values) @ v.conj().T)
        assert residual <= 1e-10 * max(1.0, max_abs(h.matrix))
        assert max_abs(v.conj().T @ v - np.eye(d)) <= 1e-10

    def test_eigensystem_requires_sorted_values(self):
        with pytest.raises(ValueError):
            EigenSystem(values=np.array([2.0, 1.0]), vectors=identity(2))


class TestEvolve:
    def test_zero_time_is_identity(self):
        rng = np.random.default_rng(5)
        u = evolve(random_hermitian(rng, 9), 0.0)
        assert max_abs(u.matrix - np.eye(9)) <= 1e-14

    def test_pauli_x_quarter_turn(self):
        u = evolve(Operator(X, tag=HERMITIAN), math.pi / 2)
        assert max_abs(u.matrix - (-1j) * X) <= 1e-12
        # independent power-series oracle
        assert max_abs(u.matrix - expm_series(-1j * X * math.pi / 2)) <= 1e-12

    def test_hbar_scales_time(self):
        h = Operator(X, tag=HERMITIAN)
        assert np.allclose(evolve(h, 1.0, hbar=2.0).matrix, evolve(h, 0.5).matrix)

    def test_rejects_general_tag(self):
        with pytest.raises(NonHermitianInputError):
            evolve(Operator(np.eye(2), tag=GENERAL), 1.0)

    def test_rejects_non_finite_time(self):
        with pytest.raises(ValueError):
            evolve(Operator(X, tag=HERMITIAN), math.inf)

    @pytest.mark.parametrize("t", [0.7, -2, 0, np.float64(1.25)])
    def test_one_time_matches_the_array_route(self, t):
        # a scalar time takes the Python-float checks; the phases are the same
        h = random_hermitian(np.random.default_rng(8), 5)
        vectors, phases = evolution_phases(h, t)
        array_vectors, array_phases = evolution_phases(h, np.array([t]))
        assert phases.shape == (5,)
        assert np.array_equal(vectors, array_vectors)
        assert phases.tobytes() == array_phases[0].tobytes()

    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 10_000),
        d=st.integers(2, 16),
        s=st.floats(-5, 5),
        t=st.floats(-5, 5),
    )
    def test_group_property(self, seed, d, s, t):
        h = random_hermitian(np.random.default_rng(seed), d)
        lhs = evolve(h, s).matrix @ evolve(h, t).matrix
        assert max_abs(lhs - evolve(h, s + t).matrix) <= 1e-9

    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 10_000), d=st.integers(2, 16), t=st.floats(-10, 10))
    def test_inverse_property(self, seed, d, t):
        h = random_hermitian(np.random.default_rng(seed), d)
        product = evolve(h, t).matrix @ evolve(h, -t).matrix
        assert max_abs(product - np.eye(d)) <= 1e-10


class TestApply:
    def test_identity_fixes_state(self):
        v = StateVector(np.ones(4) / 2)
        assert np.allclose(apply(identity(4), v).amplitudes, v.amplitudes)

    def test_shift_moves_basis_state(self):
        out = apply(shift_matrix(4), basis_state(4, 0))
        assert np.allclose(out.amplitudes, basis_state(4, 1).amplitudes)

    def test_clock_phases_basis_state(self):
        out = apply(clock_matrix(4), basis_state(4, 1))
        assert np.allclose(out.amplitudes, 1j * basis_state(4, 1).amplitudes)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            apply(identity(3), basis_state(4, 0))

    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 10_000), d=st.integers(2, 16))
    def test_unitary_preserves_norm(self, seed, d):
        rng = np.random.default_rng(seed)
        u = evolve(random_hermitian(rng, d), 1.3)
        amps = rng.normal(size=d) + 1j * rng.normal(size=d)
        v = StateVector(amps / np.linalg.norm(amps))
        assert abs(apply(u, v).norm - 1.0) <= 1e-12

    def test_non_unitary_output_keeps_raw_norm(self):
        shrink = Operator(0.5 * np.eye(2))
        out = apply(shrink, basis_state(2, 0))
        assert abs(out.norm - 0.5) <= 1e-15


def _random_chain(topology: str, d: int) -> Operator:
    rng = np.random.default_rng(d)
    bonds = d if topology == RING else d - 1
    spec = ChainSpec(d=d, topology=topology, E0=float(rng.normal()),
                     couplings=tuple(rng.normal(size=bonds)))
    return build_hamiltonian(spec)


class TestRealArithmeticRoute:
    """A hermitian matrix with no nonzero imaginary part is diagonalized in
    real arithmetic.  On tridiagonal input the real and complex drivers
    agree bit for bit; d = 2..64 straddles the size at which LAPACK's
    tridiagonal solver switches to divide and conquer."""

    CASES = {
        "line": lambda: _random_chain(LINE, 7),
        "ring": lambda: _random_chain(RING, 7),
        "pst": lambda: pst_hamiltonian(6, 0.8),
        "real diagonal": lambda: Operator(np.diag([2.0, -1.0, 0.5]), tag=HERMITIAN),
        "equidistant": lambda: equidistant_hamiltonian(5, 0.7),
        "random complex": lambda: random_hermitian(np.random.default_rng(3), 6),
    }
    REAL = {"line", "ring", "pst", "real diagonal"}

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_driver_follows_the_imaginary_part(self, case, monkeypatch):
        h = self.CASES[case]()
        seen = []
        eigh = np.linalg.eigh

        def recording_eigh(a):
            seen.append(a.dtype)
            return eigh(a)

        monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
        hermitian_eig(h)
        evolution_phases(h, 1.0)
        expected = np.dtype(float) if case in self.REAL else np.dtype(complex)
        assert seen == [expected, expected]

    @pytest.mark.parametrize("d", range(2, 65))
    @pytest.mark.parametrize("chain", ["line", "pst"])
    def test_chain_eigenpairs_bit_identical_to_complex_driver(self, chain, d):
        h = _random_chain(LINE, d) if chain == "line" else pst_hamiltonian(d, 0.8)
        ref_values, ref_vectors = np.linalg.eigh(h.matrix)
        assert ref_vectors.dtype == complex and not ref_vectors.imag.any()
        vectors, phases = evolution_phases(h, 1.3)
        assert vectors.tobytes() == ref_vectors.real.tobytes()
        assert phases.tobytes() == np.exp(-1j * np.multiply.outer(1.3, ref_values)).tobytes()
        system = hermitian_eig(h)
        assert system.values.tobytes() == ref_values.tobytes()
        # real columns are canonicalized by exact sign flips
        assert np.array_equal(system.vectors.matrix, _canonical_phases(ref_vectors.real))

    @pytest.mark.parametrize("d", [2, 3, 4, 9, 26, 40])
    def test_ring_eigenvalues_match_complex_driver(self, d):
        h = _random_chain(RING, d)
        ref_values = np.linalg.eigh(h.matrix)[0]
        assert max_abs(hermitian_eig(h).values - ref_values) <= 1e-12
        if d <= 9:
            assert max_abs(evolve(h, 0.8).matrix - expm_series(-0.8j * h.matrix)) <= 1e-12

    @pytest.mark.parametrize("case", ["equidistant", "random complex"])
    def test_complex_hermitian_still_matches_series(self, case):
        h = self.CASES[case]()
        assert h.matrix.imag.any()
        assert max_abs(evolve(h, 0.9).matrix - expm_series(-0.9j * h.matrix)) <= 1e-10
        ref_values = np.linalg.eigh(h.matrix)[0]
        assert hermitian_eig(h).values.tobytes() == ref_values.tobytes()

    @pytest.mark.parametrize("case", sorted(REAL))
    def test_real_route_vectors_stay_a_complex_unitary_operator(self, case):
        vectors = hermitian_eig(self.CASES[case]()).vectors
        assert vectors.tag == UNITARY
        assert vectors.matrix.dtype == complex and not vectors.matrix.flags.writeable
        assert max_abs(vectors.matrix.conj().T @ vectors.matrix - np.eye(vectors.dim)) <= 1e-12
