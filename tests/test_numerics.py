import importlib.util
import math
import sys
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import expm_series, random_hermitian
from qwire import numerics
from qwire.errors import (
    DimensionMismatchError,
    InvalidConfigError,
    NonHermitianInputError,
    NotNormalizedError,
    ZeroThetaError,
)
from qwire.lattice import LINE, RING, ChainSpec, build_hamiltonian, dispersion_check, uniform_chain
from qwire.numerics import (
    GENERAL,
    HERMITIAN,
    UNITARY,
    EigenSystem,
    Operator,
    StateVector,
    basis_state,
    evolution_phases,
    evolve,
    hermitian_eig,
    identity,
    max_abs,
)
from qwire.pst import fidelity_curve, pst_hamiltonian, transfer_fidelity, transfer_time
from qwire.spinchain import lowering_operator, xy_chain_hamiltonian
from qwire.weyl import clock_matrix, equidistant_hamiltonian, shift_matrix, time_step

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
        # complex storage, so that a complex bad value can be written (d = 1 is real)
        m = random_hermitian(np.random.default_rng(seed), d).matrix.astype(complex)
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
        # complex storage, so that a complex step or bad value can be written (d = 1 is real)
        m = random_hermitian(np.random.default_rng(seed), d).matrix.astype(complex)
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
        # complex storage, so that an imaginary inf can be written (d = 1 is real)
        m = random_hermitian(np.random.default_rng(seed), d).matrix.astype(complex)
        k = where % d
        m[k, k] = complex(0.0, sign * math.inf)
        with pytest.raises(NonHermitianInputError):
            Operator(m, tag=HERMITIAN)


class TestStorageRule:
    """An Operator stores float64 when every imaginary part is exactly
    zero and complex128 otherwise; a NaN or inf imaginary part is not
    zero, so it stays complex and reaches the tag check."""

    @pytest.mark.parametrize("tag", [GENERAL, HERMITIAN, UNITARY])
    @pytest.mark.parametrize("imag_zero", [0.0, -0.0])
    def test_zero_imaginary_parts_stored_real(self, tag, imag_zero):
        real = np.array([[-0.0, 1.0, 0.0], [1.0, -0.0, 0.0], [0.0, 0.0, -1.0]])  # each tag holds
        m = real.astype(complex)
        m.imag = imag_zero
        op = Operator(m, tag=tag)
        assert op.matrix.dtype == np.float64 and not op.matrix.flags.writeable
        assert op.matrix.tobytes() == real.tobytes()  # signed zeros kept

    def test_nonzero_imaginary_part_stored_complex(self):
        m = np.array([[1.0, 1e-300j], [-1e-300j, 1.0]])
        op = Operator(m, tag=HERMITIAN)
        assert op.matrix.dtype == np.complex128
        assert op.matrix.tobytes() == m.tobytes()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("k", [0, 2])
    def test_non_finite_imaginary_part_stays_complex_and_refused(self, bad, k):
        m = np.diag([1.0, 2.0, 3.0]).astype(complex)
        m[k, k] = complex(m[k, k].real, bad)
        assert Operator(m).matrix.dtype == np.complex128
        with pytest.raises(NonHermitianInputError):
            Operator(m, tag=HERMITIAN)

    @pytest.mark.parametrize("build, dtype", [
        pytest.param(lambda: identity(3), np.float64, id="identity"),
        pytest.param(lambda: shift_matrix(4), np.float64, id="shift"),
        pytest.param(lambda: lowering_operator(3, 1), np.float64, id="lowering"),
        pytest.param(lambda: clock_matrix(4), np.complex128, id="clock"),
        pytest.param(lambda: equidistant_hamiltonian(4, 1.0), np.complex128, id="equidistant"),
    ])
    def test_library_operators(self, build, dtype):
        assert build().matrix.dtype == dtype

    @pytest.mark.parametrize("times", [0.0, 1.3, np.zeros(3), np.array([0.0, 1.3])])
    @pytest.mark.parametrize("case", ["real", "complex"])
    def test_evolution_vectors_have_the_hamiltonian_dtype(self, case, times):
        h = pst_hamiltonian(5, 0.8) if case == "real" else equidistant_hamiltonian(5, 0.7)
        vectors, phases = evolution_phases(h, times)
        assert vectors.dtype == h.matrix.dtype
        assert phases.dtype == np.complex128


class TestStateVector:
    def test_norm_enforced(self):
        with pytest.raises(NotNormalizedError):
            StateVector([1.0, 1.0])

    def test_basis_state(self):
        e1 = basis_state(4, 1)
        assert e1.amplitudes[1] == 1.0
        assert e1.norm == 1.0

    def test_repr_names_the_dimension(self):
        assert repr(basis_state(3, 0)) == "StateVector(dim=3)"


class TestHermitianEig:
    def test_already_diagonal(self):
        h = Operator(np.diag([3.0, 1.0, 2.0]), tag=HERMITIAN)
        system = hermitian_eig(h)
        assert np.allclose(system.values, [1.0, 2.0, 3.0])
        # eigenvectors of a diagonal matrix are identity columns, reordered
        perm = np.abs(evolution_phases(h, 1.0)[0])
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

    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 10_000), d=st.integers(2, 64))
    def test_reconstruction_residual(self, seed, d):
        h = random_hermitian(np.random.default_rng(seed), d)
        system = hermitian_eig(h)
        assert 0 <= system.residual <= 1e-10 * max(1.0, max_abs(h.matrix))
        # the residual is that of the eigenvectors evolution_phases gets from the same solver
        v = evolution_phases(h, 1.0)[0]
        assert system.residual == max_abs(h.matrix - (v * system.values) @ v.conj().T)
        assert max_abs(v.conj().T @ v - np.eye(d)) <= 1e-10

    @pytest.mark.parametrize("vectors", [
        pytest.param([[1.0, 1.0], [0.0, 0.0]], id="duplicated-column"),
        pytest.param([[math.nan, 0.0], [0.0, 1.0]], id="nan-column"),
    ])
    def test_non_orthonormal_vectors_refused(self, vectors, monkeypatch):
        # for diag(2, 0), values (1, 1) with both columns e_1 rebuild H exactly,
        # so only the orthonormality check can refuse them
        h = Operator(np.diag([2.0, 0.0]), tag=HERMITIAN)
        monkeypatch.setattr(numerics, "_eigh",
                            lambda a: (np.array([1.0, 1.0]), np.array(vectors)))
        with pytest.raises(ArithmeticError):
            hermitian_eig(h)

    def test_overflowing_eigenvalue_refused_without_warning(self):
        # the eigenvalue 2e308 overflows to inf, and 0 * inf in the
        # reconstruction is NaN; pytest would turn a RuntimeWarning into an error
        m = np.zeros((3, 3))
        m[:2, :2] = 1e308
        m[2, 2] = 1.0
        with pytest.raises(ArithmeticError, match="residual nan"):
            hermitian_eig(Operator(m, tag=HERMITIAN))

    def test_eigensystem_requires_sorted_values(self):
        with pytest.raises(ValueError):
            EigenSystem(values=np.array([2.0, 1.0]), residual=0.0)

    @pytest.mark.parametrize("values, residual", [
        pytest.param([math.nan, 1.0], 0.0, id="nan-first"),
        pytest.param([1.0, math.nan], 0.0, id="nan-last"),
        pytest.param([1.0, math.inf], 0.0, id="inf"),
        pytest.param([-math.inf, 1.0], 0.0, id="minus-inf"),
        pytest.param([1.0, 2.0], math.nan, id="nan-residual"),
        pytest.param([1.0, 2.0], -1e-300, id="negative-residual"),
        pytest.param([1.0, 2.0], math.inf, id="inf-residual"),
    ])
    def test_eigensystem_refuses_non_finite(self, values, residual):
        with pytest.raises(ValueError):
            EigenSystem(values=np.array(values), residual=residual)

    def test_extreme_but_finite_spectrum_accepted(self):
        # neighbouring eigenvalues 3.2e308 apart: an ascending check that
        # subtracts them overflows, which pytest turns into an error
        system = hermitian_eig(build_hamiltonian(uniform_chain(3, RING, 0.0, 8e307)))
        assert np.allclose(system.values, [-1.6e308, 8e307, 8e307], rtol=1e-12, atol=0)


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

    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 10_000),
        d=st.integers(2, 16),
        c=st.floats(0.1, 10),
        t=st.floats(-5, 5),
    )
    def test_energy_and_time_enter_as_product(self, seed, d, c, t):
        # hbar = 1: scaling every energy by c is running c times as long
        h = random_hermitian(np.random.default_rng(seed), d)
        scaled = Operator(c * h.matrix, tag=HERMITIAN)
        assert max_abs(evolve(scaled, t).matrix - evolve(h, c * t).matrix) <= 1e-9

    def test_rejects_general_tag(self):
        with pytest.raises(NonHermitianInputError):
            evolve(Operator(np.eye(2), tag=GENERAL), 1.0)

    def test_rejects_non_finite_time(self):
        with pytest.raises(ValueError):
            evolve(Operator(X, tag=HERMITIAN), math.inf)

    def test_all_zero_grid_phases_are_those_of_a_zero_time(self):
        # a positive spectrum: every angle 0 * lambda is +0, as in the all-zero grid
        h = build_hamiltonian(uniform_chain(5, LINE, 3.0, 1.0))
        zero_row = evolution_phases(h, [0.0, 1.0])[1][0]
        for row in evolution_phases(h, [0.0, 0.0])[1]:
            assert row.tobytes() == zero_row.tobytes()

    @pytest.mark.parametrize("t", [0.7, -2, 0, np.float64(1.25)])
    def test_one_time_matches_the_array_route(self, t):
        # one time and a one-element grid take the same path and give the same phases
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

    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 10_000), d=st.integers(2, 16))
    def test_preserves_norm(self, seed, d):
        rng = np.random.default_rng(seed)
        u = evolve(random_hermitian(rng, d), 1.3)
        amps = rng.normal(size=d) + 1j * rng.normal(size=d)
        v = StateVector(amps / np.linalg.norm(amps))
        assert abs(StateVector(u.matrix @ v.amplitudes).norm - 1.0) <= 1e-12


def _degenerate_hermitian(rng: np.random.Generator, d: int, dtype) -> np.ndarray:
    """Q diag(values) Q^dag with every eigenvalue repeated (d >= 2), made
    exactly hermitian; Q is real orthogonal or unitary after dtype."""
    m = rng.normal(size=(d, d)).astype(dtype)
    if dtype == complex:
        m += 1j * rng.normal(size=(d, d))
    q = np.linalg.qr(m)[0]
    values = np.repeat(rng.normal(size=(d + 1) // 2), 2)[:d]
    h = (q * values) @ q.conj().T
    return (h + h.conj().T) / 2


class TestEigh:
    """`_eigh` calls numpy's private eigh gufunc directly; these pin it to
    the public `np.linalg.eigh` byte for byte, so a numpy release that
    changes the gufunc fails here first."""

    @pytest.mark.parametrize("spectrum, d", [("generic", d) for d in range(1, 65)]
                             + [("degenerate", d) for d in range(2, 65)])
    @pytest.mark.parametrize("dtype", [float, complex], ids=["real", "complex"])
    def test_byte_equal_to_numpy_eigh(self, dtype, spectrum, d):
        rng = np.random.default_rng(1000 * d + (dtype == complex))
        if spectrum == "degenerate":
            h = _degenerate_hermitian(rng, d, dtype)
        else:
            h = rng.normal(size=(d, d)).astype(dtype)
            if dtype == complex:
                h += 1j * rng.normal(size=(d, d))
            h = (h + h.conj().T) / 2
        values, vectors = numerics._eigh(h)
        ref_values, ref_vectors = np.linalg.eigh(h)
        assert (values.dtype, vectors.dtype) == (ref_values.dtype, ref_vectors.dtype)
        assert values.tobytes() == ref_values.tobytes()
        assert vectors.tobytes() == ref_vectors.tobytes()

    def test_unconverged_gufunc_raises(self, monkeypatch):
        # the gufunc reports a LAPACK failure by filling its outputs with NaN
        def unconverged(a, signature):
            return np.full(3, math.nan), np.full((3, 3), math.nan)

        monkeypatch.setattr(numerics, "_umath_linalg", SimpleNamespace(eigh_lo=unconverged))
        with pytest.raises(np.linalg.LinAlgError):
            numerics._eigh(np.eye(3))

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_nan_input_raises(self, dtype):
        # the real gufunc: it flags invalid (a RuntimeWarning unless ignored), NaN-fills
        with np.errstate(invalid="ignore"), pytest.raises(np.linalg.LinAlgError):
            numerics._eigh(np.full((3, 3), math.nan, dtype=dtype))

    @pytest.mark.parametrize("dtype", [float, complex], ids=["real", "complex"])
    def test_without_the_gufunc_calls_numpy_eigh(self, dtype, monkeypatch):
        # a numpy release without the private gufunc: `_eigh` solves through
        # np.linalg.eigh (which needs the name back to run here)
        copy = _reloaded_numerics(monkeypatch, "eigh_lo")
        assert copy._umath_linalg is None
        rng = np.random.default_rng(7)
        h = rng.normal(size=(6, 6)).astype(dtype)
        if dtype == complex:
            h += 1j * rng.normal(size=(6, 6))
        h = (h + h.conj().T) / 2
        for values, reference in zip(copy._eigh(h), np.linalg.eigh(h)):
            assert (values.dtype, values.tobytes()) == (reference.dtype, reference.tobytes())
        with pytest.raises(np.linalg.LinAlgError):
            copy._eigh(np.full((3, 3), math.nan, dtype=dtype))
        # and the same NaN rule when the wrapper returns an unconverged result
        monkeypatch.setattr(np.linalg, "eigh",
                            lambda a: (np.full(3, math.nan), np.full((3, 3), math.nan)))
        with pytest.raises(np.linalg.LinAlgError):
            copy._eigh(np.eye(3, dtype=dtype))

    @pytest.mark.parametrize("d", [128, 257])
    def test_without_the_eigvalsh_gufunc_eigh_keeps_its_own(self, monkeypatch, d):
        # `eigh_lo` is the only private name the module reads: the values-only
        # route calls np.linalg.eigvalsh, so a numpy release without the
        # private eigvalsh gufunc changes neither `_eigh` nor the end rows
        copy = _reloaded_numerics(monkeypatch, "eigvalsh_lo")
        assert copy._umath_linalg is numerics._umath_linalg
        h = pst_hamiltonian(d, 0.9).matrix
        for rows in ((0, d - 1), (d - 1, 0)):
            got, reference = copy._hermitian_solve(h, rows), numerics._hermitian_solve(h, rows)
            assert [a.tobytes() for a in got] == [a.tobytes() for a in reference]
        got, reference = copy._eigh(h[:64, :64]), np.linalg.eigh(h[:64, :64])
        assert [a.tobytes() for a in got] == [a.tobytes() for a in reference]


def _reloaded_numerics(monkeypatch, hidden: str):
    """A fresh copy of `numerics`, loaded while numpy's private
    `_umath_linalg.<hidden>` is missing, as on a numpy release that has
    moved it; the name is back once this returns."""
    spec = importlib.util.spec_from_file_location("qwire._numerics_copy", numerics.__file__)
    copy = importlib.util.module_from_spec(spec)
    with monkeypatch.context() as patch:
        patch.delattr(numerics._umath_linalg, hidden)
        patch.setitem(sys.modules, spec.name, copy)  # dataclasses look it up
        spec.loader.exec_module(copy)
    return copy


def _random_chain(topology: str, d: int) -> Operator:
    rng = np.random.default_rng(d)
    bonds = d if topology == RING else d - 1
    spec = ChainSpec(d=d, topology=topology, E0=float(rng.normal()),
                     couplings=tuple(rng.normal(size=bonds)))
    return build_hamiltonian(spec)


class TestRealArithmeticRoute:
    """A hermitian matrix with no nonzero imaginary part is stored as
    float64 and so diagonalized in real arithmetic.  On tridiagonal input
    the real and complex drivers agree bit for bit; d = 2..64 straddles the
    size at which LAPACK's tridiagonal solver switches to divide and
    conquer."""

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
        eigh = numerics._eigh

        def recording_eigh(a):
            seen.append(a.dtype)
            return eigh(a)

        monkeypatch.setattr(numerics, "_eigh", recording_eigh)
        hermitian_eig(h)
        evolution_phases(h, 1.0)
        expected = np.dtype(float) if case in self.REAL else np.dtype(complex)
        assert seen == [expected, expected]

    @pytest.mark.parametrize("d", range(2, 65))
    @pytest.mark.parametrize("chain", ["line", "pst"])
    def test_chain_eigenpairs_bit_identical_to_complex_driver(self, chain, d):
        h = _random_chain(LINE, d) if chain == "line" else pst_hamiltonian(d, 0.8)
        ref_values, ref_vectors = np.linalg.eigh(h.matrix.astype(complex))
        assert ref_vectors.dtype == complex and not ref_vectors.imag.any()
        vectors, phases = evolution_phases(h, 1.3)
        assert vectors.tobytes() == ref_vectors.real.tobytes()
        assert phases.tobytes() == np.exp(-1j * np.multiply.outer(1.3, ref_values)).tobytes()
        assert max_abs(vectors.T @ vectors - np.eye(d)) <= 1e-12
        assert hermitian_eig(h).values.tobytes() == ref_values.tobytes()

    @pytest.mark.parametrize("d", [2, 3, 4, 9, 26, 40])
    def test_ring_eigenvalues_match_complex_driver(self, d):
        h = _random_chain(RING, d)
        ref_values = np.linalg.eigh(h.matrix.astype(complex))[0]
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


EPS = float(np.finfo(float).eps)


@st.composite
def persymmetric_hermitian(draw, low=128, high=300):
    """A random hermitian H with H == H[::-1, ::-1] exactly, real or complex,
    odd or even d, with entries scaled by 1e-3 ... 1e3."""
    d = draw(st.integers(low, high))
    dtype = draw(st.sampled_from([float, complex]))
    return _persymmetric(d, dtype, draw(st.integers(0, 2**32 - 1)), draw(st.floats(-3.0, 3.0)))


def _persymmetric(d, dtype, seed, exponent):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(d, d)).astype(dtype)
    if dtype == complex:
        x += 1j * rng.normal(size=(d, d))
    x *= 10.0 ** exponent
    h = x + x.conj().T  # exactly hermitian: each pair of entries adds the same two terms
    h = h + h[::-1, ::-1]  # and exactly mirror-symmetric, for the same reason
    assert np.array_equal(h, h[::-1, ::-1]) and np.array_equal(h, h.conj().T)
    return h


def _recorded_block_solves(monkeypatch, call):
    """(("eigh" or "eigvalsh", shape) for each `numerics._eigh` and
    `numpy.linalg.eigvalsh` call that `call` makes, in order, and what
    `call` returns)."""
    calls = []
    for owner, name in ((numerics, "_eigh"), (np.linalg, "eigvalsh")):
        def recording(a, name=name.lstrip("_"), solve=getattr(owner, name)):
            calls.append((name, a.shape))
            return solve(a)
        monkeypatch.setattr(owner, name, recording)
    return calls, call()


def _recorded_eigh_shapes(monkeypatch, call):
    calls, _ = _recorded_block_solves(monkeypatch, call)
    return [shape for name, shape in calls if name == "eigh"]


def _recorded_solve(monkeypatch, h, rows):
    """(shapes `_eigh` was called on, eigenvalues, rows of V) of
    `_hermitian_solve(h, rows)`."""
    solved = []
    shapes = _recorded_eigh_shapes(
        monkeypatch, lambda: solved.append(numerics._hermitian_solve(h, rows)))
    return (shapes, *solved[0])


def _disordered_chain() -> np.ndarray:
    """The 512-site mirror-symmetric line chain with normal random bonds
    (seed 2) and every on-site energy 0, whose end rows are uncertified."""
    bonds = np.random.default_rng(2).normal(size=511)
    spec = ChainSpec(d=512, topology=LINE, E0=0.0, couplings=bonds + bonds[::-1])
    return build_hamiltonian(spec).matrix


def _mirror_line(d: int, seed: int) -> Operator:
    """A d-site mirror-symmetric line chain whose bonds and on-site
    energies are exact palindromes, made from U(0.5, 1.5) and 0.1 N(0, 1)
    draws."""
    rng = np.random.default_rng(seed)
    bonds, energies = rng.uniform(0.5, 1.5, d - 1), 0.1 * rng.normal(size=d)
    bonds, energies = bonds + bonds[::-1], energies + energies[::-1]
    return Operator(np.diag(energies) + np.diag(bonds, 1) + np.diag(bonds, -1), tag=HERMITIAN)


def _bipartite_mirror(d, kind, centre, seed, exponent, disorder=1.0, dtype=float):
    """A hermitian H == H[::-1, ::-1] exactly, with `centre` on the diagonal
    and no entry joining two sites i != j with i + j even: a dense matrix,
    a line chain with bonds |J| of 1 +- disorder and signs +-1, or that
    chain closed into a ring (at even d), all scaled by 10**exponent."""
    rng = np.random.default_rng(seed)
    if kind == "dense":
        x = rng.normal(size=(d, d)).astype(dtype)
        if dtype == complex:
            x += 1j * rng.normal(size=(d, d))
        x = x + x.conj().T
        x = x + x[::-1, ::-1]  # each sum is the same two terms either way
        i = np.arange(d)
        x[(i[:, None] + i) % 2 == 0] = 0.0  # a mirror-symmetric mask
    else:
        sizes = 1.0 + disorder * rng.uniform(-0.45, 0.45, d - 1)
        signs = rng.choice([-1.0, 1.0], d - 1)
        bonds = (sizes + sizes[::-1]) * (signs * signs[::-1])
        x = np.diag(bonds, 1) + np.diag(bonds, -1)
        if kind == "ring":
            x[0, d - 1] = x[d - 1, 0] = 1.0 + disorder * rng.uniform(-0.45, 0.45)
    x[np.diag_indices(d)] = centre
    h = x * 10.0 ** exponent
    assert np.array_equal(h, h[::-1, ::-1]) and np.array_equal(h, h.conj().T)
    return h


DISORDER = st.sampled_from([0.0, 1e-3, 0.1, 1.0])


@st.composite
def mirror_chain(draw):
    """(H, uniform): a real mirror-symmetric tridiagonal H with nonzero
    bonds |J| of 1 +- disorder and signs +-1, on-site energies of the
    drawn size, all scaled by 1e-3 ... 1e3; uniform when both are 0."""
    d = draw(st.sampled_from([128, 129, 200, 256, 257, 512, 513]))
    disorder, onsite = draw(DISORDER), draw(DISORDER)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sizes = 1.0 + disorder * rng.uniform(-0.45, 0.45, d - 1)
    signs = rng.choice([-1.0, 1.0], d - 1)
    # each sum and product is the same two terms either way, so exact palindromes
    bonds = (sizes + sizes[::-1]) * (signs * signs[::-1])
    energies = onsite * rng.normal(size=d)
    energies = energies + energies[::-1]
    h = (np.diag(energies) + np.diag(bonds, 1) + np.diag(bonds, -1)) * 10.0 ** draw(
        st.floats(-3.0, 3.0))
    assert np.array_equal(h, h[::-1, ::-1])
    return h, disorder == onsite == 0.0


class TestParitySolve:
    """From d = 128 up, a mirror-symmetric H is diagonalized in its two
    parity blocks and V is rebuilt from them; every other matrix keeps the
    single solve, byte for byte."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(h=persymmetric_hermitian())
    def test_blocks_match_the_full_solve(self, h):
        d = h.shape[0]
        values, vectors = numerics._hermitian_solve(h)
        assert (values.dtype, vectors.dtype) == (np.dtype(float), h.dtype)
        order = np.argsort(values, kind="stable")  # the pairs come in block order
        values, vectors = values[order], vectors[:, order]
        scale = max_abs(h)
        # both solvers are backward stable: eigenvalues within O(eps ||H||)
        ref_values, ref_vectors = np.linalg.eigh(h)
        assert max_abs(values - ref_values) <= 4 * EPS * d * scale
        assert max_abs(h - (vectors * values) @ vectors.conj().T) <= 1e-10 * max(1.0, scale)
        assert max_abs(vectors.conj().T @ vectors - np.eye(d)) <= 1e-10
        # rows 0 and d-1, up to each column's phase; an eigenvector moves by
        # at most the residual over its gap (Davis-Kahan)
        phases = np.einsum("ij,ij->j", ref_vectors.conj(), vectors)
        phases /= np.abs(phases)
        rows = [0, d - 1]
        row_error = np.abs(vectors[rows] - ref_vectors[rows] * phases).max(axis=0)
        gaps = np.minimum(np.diff(ref_values, prepend=-np.inf), np.diff(ref_values, append=np.inf))
        assert (row_error * gaps <= 4 * EPS * d * scale).all()

    @pytest.mark.parametrize("d, shapes", [
        (127, [(127, 127)]), (128, [(64, 64)]), (129, [(65, 65), (64, 64)]),
    ])
    def test_split_from_128_up(self, monkeypatch, d, shapes):
        h = pst_hamiltonian(d, 0.8)
        assert _recorded_eigh_shapes(monkeypatch, lambda: hermitian_eig(h)) == shapes

    def test_non_mirror_matrix_is_not_split(self, monkeypatch):
        h = _random_chain(LINE, 200)
        assert _recorded_eigh_shapes(monkeypatch, lambda: hermitian_eig(h)) == [(200, 200)]

    @pytest.mark.parametrize("case", ["pst d=127", "line d=127", "line d=200",
                                      "complex d=130", "ring d=128"])
    def test_byte_equal_to_numpy_where_not_split(self, case):
        rng = np.random.default_rng(7)
        h = {
            "pst d=127": lambda: pst_hamiltonian(127, 0.8),  # mirror-symmetric, below 128
            "line d=127": lambda: _random_chain(LINE, 127),
            "line d=200": lambda: _random_chain(LINE, 200),
            "complex d=130": lambda: random_hermitian(rng, 130),
            "ring d=128": lambda: _random_chain(RING, 128),
        }[case]()
        assert h.dim < 128 or not np.array_equal(h.matrix, h.matrix[::-1, ::-1])
        ref_values, ref_vectors = np.linalg.eigh(h.matrix)
        assert hermitian_eig(h).values.tobytes() == ref_values.tobytes()
        vectors, phases = evolution_phases(h, [0.3, 1.3])
        assert vectors.tobytes() == ref_vectors.tobytes()
        expected = np.exp(-1j * np.multiply.outer(np.array([0.3, 1.3]), ref_values))
        assert phases.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("d", [128, 129, 256])
    @pytest.mark.parametrize("topology", [LINE, RING])
    def test_uniform_chains_match_their_dispersion(self, topology, d):
        # the ring's levels come in degenerate pairs, split across the two blocks
        spec = uniform_chain(d, topology, 0.25, 1.1)
        assert hermitian_eig(build_hamiltonian(spec)).residual <= 1e-12
        assert dispersion_check(spec) <= 1e-12

    @pytest.mark.parametrize("d", [128, 129, 255, 256, 513])
    def test_transfer_time_stays_perfect(self, d):
        assert transfer_time(d, 0.9).peak_fidelity >= 1 - 1e-12

    @pytest.mark.parametrize("case", ["chiral chain", "generic even chain", "odd d", "ring"])
    def test_only_hermitian_eig_sorts(self, case):
        h = {
            "chiral chain": lambda: pst_hamiltonian(256, 0.8),  # the reflected route
            "generic even chain": lambda: _mirror_line(256, 11),  # two blocks
            "odd d": lambda: _mirror_line(257, 12),
            "ring": lambda: build_hamiltonian(uniform_chain(256, RING, -0.4, 0.9)),
        }[case]()
        values = hermitian_eig(h).values
        assert (values[1:] >= values[:-1]).all()
        block_values = numerics._hermitian_solve(h.matrix)[0]
        assert values.tobytes() == np.sort(block_values, kind="stable").tobytes()

    def test_phase_overflow_reads_every_level(self):
        # block order puts -123 and 131 at the ends, and max |lambda| = 133 at
        # index 64; a guard reading only the ends would pass this time
        h = Operator(pst_hamiltonian(129, 1.0).matrix + 5.0 * np.eye(129), tag=HERMITIAN)
        values = numerics._hermitian_solve(h.matrix)[0]
        assert np.allclose(values[[0, -1, 64]], [-123.0, 131.0, 133.0], rtol=0.0, atol=1e-9)
        assert np.argmax(abs(values)) == 64
        with pytest.raises(InvalidConfigError, match="evolution phases overflow"):
            evolution_phases(h, 1.7976931348623157e308 / 132.5)

    @pytest.mark.parametrize("d", [512, 513])
    def test_whole_v_needs_no_second_array(self, d):
        # a gathered copy of V would add a d x d array to the peak
        matrix = pst_hamiltonian(d, 0.9).matrix
        tracemalloc.start()
        try:
            numerics._hermitian_solve(matrix)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * matrix.nbytes

    @pytest.mark.parametrize("d", [512, 513])
    def test_transfer_time_builds_no_full_v(self, d):
        # only rows 0 and d-1 of V are built; the whole V would add a d x d
        # array to the Hamiltonian's (3.03 x H.nbytes with it)
        nbytes = pst_hamiltonian(d, 0.9).matrix.nbytes
        tracemalloc.start()
        try:
            transfer_time(d, 0.9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * nbytes

    @settings(max_examples=3, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), exponent=st.floats(-3.0, 3.0))
    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("d", [127, 128, 129, 200, 255, 256, 512, 513])
    def test_rows_are_those_of_the_full_v(self, d, dtype, seed, exponent):
        h = _persymmetric(d, dtype, seed, exponent)
        values, vectors = numerics._hermitian_solve(h)
        pairs = [(0, d - 1), (d - 1, 0), (1, d - 2), (0, 0), (1, 3)]
        if d % 2:
            pairs.append((d // 2, 0))
        for rows in pairs:
            row_values, picked = numerics._hermitian_solve(h, rows)
            assert row_values.tobytes() == values.tobytes()
            assert picked.tobytes() == vectors[list(rows)].tobytes()
        if d % 2 and d > 128:  # split: the middle row is +0.0, never -0.0, in odd columns
            middle = numerics._hermitian_solve(h, (d // 2,))[1][0]
            zeros = middle[middle == 0]
            assert zeros.size == d // 2
            assert not (np.signbit(zeros.real) | np.signbit(zeros.imag)).any()

    def test_rows_of_a_matrix_that_is_not_mirror_symmetric(self):
        h = _random_chain(LINE, 200).matrix
        values, vectors = numerics._hermitian_solve(h)
        row_values, picked = numerics._hermitian_solve(h, (199, 0))
        assert row_values.tobytes() == values.tobytes()
        assert picked.tobytes() == vectors[[199, 0]].tobytes()

    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_zero_time_rows_are_the_identity_rows(self, kind, monkeypatch):
        h = pst_hamiltonian(129, 0.9) if kind == "real" else random_hermitian(
            np.random.default_rng(3), 129)
        identity_v, values, _ = numerics._evolution_factors(h, [0.0, 0.0])
        monkeypatch.setattr(numerics, "_eigh", None)  # no eigensolve is made
        for rows in [(0, 128), (128, 0), (64, 64)]:
            picked, row_values, _ = numerics._evolution_factors(h, [0.0, 0.0], rows)
            assert picked.tobytes() == identity_v[list(rows)].tobytes()
            assert picked.dtype == h.matrix.dtype
            assert row_values.tobytes() == values.tobytes()

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(chain=mirror_chain())
    def test_end_rows_from_the_spectrum(self, chain):
        # rows 0 and d-1 alone come from the eigenvalues, up to each column's
        # sign; an uncertified chain takes the eigenvector route
        h, uniform = chain
        d = h.shape[0]
        scale = max_abs(h)
        ref_values, ref_vectors = np.linalg.eigh(h)
        gaps = np.minimum(np.diff(ref_values, prepend=-np.inf), np.diff(ref_values, append=np.inf))
        for rows in [(0, d - 1), (d - 1, 0), (0, 0)]:
            with pytest.MonkeyPatch.context() as patch:
                shapes, values, picked = _recorded_solve(patch, h, rows)
            if shapes:
                assert not uniform
                full_values, vectors = numerics._hermitian_solve(h)
                assert values.tobytes() == full_values.tobytes()
                assert picked.tobytes() == vectors[list(rows)].tobytes()
                continue
            assert (values.dtype, picked.dtype, picked.shape) == (h.dtype, h.dtype, (2, d))
            order = np.argsort(values, kind="stable")  # the pairs come in block order
            values, picked = values[order], picked[:, order]
            assert max_abs(values - ref_values) <= 4 * EPS * d * scale
            j = rows.index(0)
            top, partner = picked[j], picked[1 - j]
            # Davis-Kahan, as in test_blocks_match_the_full_solve
            for got, ref in ((top * partner, ref_vectors[0] * ref_vectors[rows[1 - j]]),
                             (top**2, ref_vectors[0] ** 2)):
                assert (np.abs(got - ref) * gaps <= 4 * EPS * d * scale).all()

    @pytest.mark.parametrize("call", [
        lambda: transfer_time(512, 0.9),
        lambda: fidelity_curve(build_hamiltonian(uniform_chain(300, LINE, 0.0, 1.1)),
                               np.linspace(0.0, 40.0, 200), 0, 299),
    ], ids=["transfer_time", "uniform_line_curve"])
    def test_transfer_rows_need_no_eigenvectors(self, monkeypatch, call):
        assert _recorded_eigh_shapes(monkeypatch, call) == []

    @pytest.mark.parametrize("vartheta", [0.5, 0.9, 1.3, 2.0])
    @pytest.mark.parametrize("d", [128, 129, 200, 256, 257, 300, 511, 512, 513])
    @pytest.mark.parametrize("chain", ["transfer", "uniform"])
    def test_smooth_chains_never_fall_back(self, monkeypatch, chain, d, vartheta):
        # the fallback solves a block a second time (eigvalsh, then eigh),
        # but the transfer chain and the uniform line are certified at every
        # split size, so their end rows never pay for it
        h = (pst_hamiltonian(d, vartheta) if chain == "transfer"
             else build_hamiltonian(uniform_chain(d, LINE, 0.0, vartheta)))
        call = lambda: transfer_fidelity(h, 1.0, 0, d - 1)
        assert _recorded_eigh_shapes(monkeypatch, call) == []

    @pytest.mark.parametrize("rows", [(0, 511), (511, 0), (0, 0)])
    def test_uncertified_chain_falls_back_byte_for_byte(self, monkeypatch, rows):
        # disordered bonds put pairs of end-localized levels within rounding
        # of each other, which the logs of differences cannot resolve; the
        # on-site energies vary, so both blocks are solved
        energies = 0.1 * np.random.default_rng(0).normal(size=512)
        h = _disordered_chain() + np.diag(energies + energies[::-1])
        values, vectors = numerics._hermitian_solve(h)
        shapes, row_values, picked = _recorded_solve(monkeypatch, h, rows)
        assert shapes == [(256, 256), (256, 256)]
        assert row_values.tobytes() == values.tobytes()
        assert picked.tobytes() == vectors[list(rows)].tobytes()

    @pytest.mark.parametrize("rows", [(0, 511), (511, 0), (0, 0)])
    def test_uncertified_chiral_chain_falls_back_to_one_block(self, monkeypatch, rows):
        # the same bonds with every on-site energy 0: the odd block is reflected
        h = _disordered_chain()
        values, vectors = numerics._hermitian_solve(h)
        calls, (row_values, picked) = _recorded_block_solves(
            monkeypatch, lambda: numerics._hermitian_solve(h, rows))
        assert calls == [("eigvalsh", (256, 256)), ("eigh", (256, 256))]
        assert row_values.tobytes() == values.tobytes()
        assert picked.tobytes() == vectors[list(rows)].tobytes()

    @pytest.mark.parametrize("vartheta", [1e-300, 1e-150, 1.0, 1e150])
    @pytest.mark.parametrize("d", [128, 513])
    def test_end_rows_keep_transfer_perfect_at_any_scale(self, monkeypatch, d, vartheta):
        # the differences are scaled before their logs; a RuntimeWarning fails the test
        report = []
        shapes = _recorded_eigh_shapes(monkeypatch,
                                       lambda: report.append(transfer_time(d, vartheta)))
        assert shapes == []
        assert report[0].peak_fidelity >= 1 - 1e-12

    @pytest.mark.parametrize("d", [256, 257])
    def test_end_rows_without_the_gufunc(self, monkeypatch, d):
        h = pst_hamiltonian(d, 0.9).matrix
        values, rows = numerics._hermitian_solve(h, (0, d - 1))
        monkeypatch.setattr(numerics, "_umath_linalg", None)
        shapes, wrapper_values, wrapper_rows = _recorded_solve(monkeypatch, h, (0, d - 1))
        assert shapes == []
        assert wrapper_values.tobytes() == values.tobytes()
        assert wrapper_rows.tobytes() == rows.tobytes()


class TestReflectedBlock:
    """At even d, a real mirror-symmetric H with one on-site energy c and no
    bond inside a sublattice has its odd block c - S(even - c)S, S the
    sublattice sign, so only the even block is solved."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(d=st.integers(64, 150).map(lambda h: 2 * h),
           kind=st.sampled_from(["dense", "chain", "ring"]),
           centre=st.sampled_from([0.0, 0.37, -2.5, 9.0]), disorder=DISORDER,
           seed=st.integers(0, 2**32 - 1), exponent=st.floats(-3.0, 3.0))
    def test_matches_numpy(self, d, kind, centre, disorder, seed, exponent):
        h = _bipartite_mirror(d, kind, centre, seed, exponent, disorder)
        block = (d // 2, d // 2)
        scale = max_abs(h)
        bound = 4 * EPS * d * scale  # as in TestParitySolve
        ref_values, ref_vectors = np.linalg.eigh(h)
        gaps = np.minimum(np.diff(ref_values, prepend=-np.inf), np.diff(ref_values, append=np.inf))
        with pytest.MonkeyPatch.context() as patch:
            calls, (values, vectors) = _recorded_block_solves(
                patch, lambda: numerics._hermitian_solve(h))
        assert calls == [("eigh", block)]
        order = np.argsort(values, kind="stable")  # the pairs come in block order
        values, vectors = values[order], vectors[:, order]
        assert max_abs(values - ref_values) <= bound
        assert max_abs(h - (vectors * values) @ vectors.T) <= 1e-10 * max(1.0, scale)
        assert max_abs(vectors.T @ vectors - np.eye(d)) <= 1e-10
        # every row, up to each column's sign (Davis-Kahan)
        signs = np.sign(np.einsum("ij,ij->j", ref_vectors, vectors))
        assert (np.abs(vectors - ref_vectors * signs).max(axis=0) * gaps <= bound).all()
        with pytest.MonkeyPatch.context() as patch:
            calls, (values, ends) = _recorded_block_solves(
                patch, lambda: numerics._hermitian_solve(h, (0, d - 1)))
        routes = ([[("eigvalsh", block)], [("eigvalsh", block), ("eigh", block)]]
                  if kind == "chain" else [[("eigh", block)]])
        assert calls in routes
        order = np.argsort(values, kind="stable")
        values, ends = values[order], ends[:, order]
        assert max_abs(values - ref_values) <= bound
        for got, ref in ((ends[0] * ends[1], ref_vectors[0] * ref_vectors[d - 1]),
                         (ends[0] ** 2, ref_vectors[0] ** 2)):
            assert (np.abs(got - ref) * gaps <= bound).all()

    @pytest.mark.parametrize("case, blocks", [
        ("pst chain", 1), ("line c=0.37", 1), ("ring c=-0.4", 1), ("dense", 1),
        ("odd d", 2), ("one on-site energy moved", 2), ("one bond inside a sublattice", 2),
        ("complex", 2),
    ])
    def test_one_block_solve_exactly_when_chiral(self, monkeypatch, case, blocks):
        def line(*entries, value=0.0):  # the uniform line, each entry and its mirror set
            h = build_hamiltonian(uniform_chain(256, LINE, 0.37, 1.1)).matrix.copy()
            for i, j in entries:
                h[i, j] = h[255 - i, 255 - j] = value
            return h

        h = {
            "pst chain": lambda: pst_hamiltonian(256, 0.8).matrix,
            "line c=0.37": line,
            "ring c=-0.4": lambda: build_hamiltonian(uniform_chain(256, RING, -0.4, 0.9)).matrix,
            "dense": lambda: _bipartite_mirror(256, "dense", 0.0, 5, 0.0),
            "odd d": lambda: pst_hamiltonian(257, 0.8).matrix,
            "one on-site energy moved": lambda: line((100, 100), value=0.5),
            "one bond inside a sublattice": lambda: line((0, 2), (2, 0), value=0.5),
            "complex": lambda: _bipartite_mirror(256, "dense", 0.0, 5, 0.0, dtype=complex),
        }[case]()
        assert np.array_equal(h, h[::-1, ::-1])
        d = h.shape[0]
        calls, _ = _recorded_block_solves(monkeypatch, lambda: numerics._hermitian_solve(h))
        assert [name for name, _ in calls] == ["eigh"] * blocks
        calls.clear()
        numerics._hermitian_solve(h, (0, d - 1))  # certified wherever it is a chain
        route = "eigvalsh" if numerics._is_chain(h) else "eigh"
        assert [name for name, _ in calls] == [route] * blocks
        assert (route == "eigvalsh") == (case in ("pst chain", "line c=0.37", "odd d",
                                                  "one on-site energy moved"))

    def test_reflected_values_overflow_only_where_the_spectrum_does(self):
        # each value is reflected in place, in the order it came
        values = np.array([-1.0, 0.5, 1.7e308])
        assert numerics._reflected(values, 0.0).tobytes() == (-values).tobytes()
        # 2c would overflow; c - (value - c) does not
        values = np.array([0.5e308, 1e308, 1.7e308])
        assert numerics._reflected(values, 1e308).tolist() == [
            1e308 - (0.5e308 - 1e308), 1e308, 1e308 - (1.7e308 - 1e308)]
        # 2c - value is beyond the float range: -inf, without a warning
        assert numerics._reflected(np.array([-1.0, 1.7e308]), -1e308).tolist() == [
            -1e308 - (-1.0 - -1e308), -math.inf]


HUGE = 10**400  # a Python int with no float value


class TestIntBeyondFloatRange:
    """A Python int beyond the float range is refused with the error each
    entry point raises for a non-finite value, not a bare OverflowError."""

    @pytest.mark.parametrize("call, error", [
        pytest.param(lambda: pst_hamiltonian(4, HUGE), ZeroThetaError, id="pst_hamiltonian"),
        pytest.param(lambda: transfer_time(4, HUGE), ZeroThetaError, id="transfer_time"),
        pytest.param(lambda: equidistant_hamiltonian(4, HUGE), ZeroThetaError,
                     id="equidistant"),
        pytest.param(lambda: equidistant_hamiltonian(4, -HUGE), ZeroThetaError,
                     id="equidistant-negative"),
        pytest.param(lambda: equidistant_hamiltonian(4, 10**308), ZeroThetaError,
                     id="equidistant-top-level"),
        pytest.param(lambda: time_step(4, HUGE), ZeroThetaError, id="time_step"),
        pytest.param(lambda: time_step(4, 10**308), ZeroThetaError, id="time_step-product"),
        pytest.param(lambda: ChainSpec(d=3, topology=LINE, E0=HUGE, couplings=(1.0, 1.0)),
                     ValueError, id="ChainSpec-E0"),
        pytest.param(lambda: ChainSpec(d=3, topology=LINE, E0=0.0, couplings=(HUGE, 1.0)),
                     ValueError, id="ChainSpec-coupling"),
        pytest.param(lambda: ChainSpec(d=3, topology=LINE, E0=0.0, couplings=(1.0, -HUGE)),
                     ValueError, id="ChainSpec-negative-coupling"),
        pytest.param(lambda: xy_chain_hamiltonian([HUGE]), NonHermitianInputError,
                     id="xy_chain_hamiltonian"),
        pytest.param(lambda: evolve(pst_hamiltonian(4, 1.0), HUGE), ValueError, id="evolve"),
        pytest.param(lambda: evolve(pst_hamiltonian(4, 1.0), -HUGE), ValueError,
                     id="evolve-negative"),
        pytest.param(lambda: transfer_fidelity(pst_hamiltonian(4, 1.0), HUGE, 0, 3), ValueError,
                     id="transfer_fidelity"),
        pytest.param(lambda: fidelity_curve(pst_hamiltonian(4, 1.0), [0.0, HUGE], 0, 3),
                     ValueError, id="fidelity_curve"),
    ])
    def test_refused_as_non_finite(self, call, error):
        with pytest.raises(error):
            call()

    def test_int_in_float_range_is_accepted(self):
        assert np.array_equal(pst_hamiltonian(4, 3).matrix, pst_hamiltonian(4, 3.0).matrix)
        assert time_step(4, 2) == time_step(4, 2.0)
