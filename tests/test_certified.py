"""The builders that skip Operator's hermitian check.

`build_hamiltonian`, `pst_hamiltonian`, `xy_chain_hamiltonian` and
`number_operator` freeze their matrices through the private
`Operator._certified`.  Each output must be a read-only float64 matrix,
exactly symmetric and finite, and the public, checked constructor must
accept it with equal bytes; each input the check used to catch must be
rejected up front.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qwire.errors import NonHermitianInputError, ZeroThetaError
from qwire.lattice import LINE, RING, ChainSpec, build_hamiltonian
from qwire.numerics import HERMITIAN, Operator
from qwire.pst import pst_couplings, pst_hamiltonian
from qwire.spinchain import number_operator, xy_chain_hamiltonian

# every finite double, with both zeros drawn often
FINITE = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(allow_nan=False, allow_infinity=False))
MODERATE = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1e3, 1e3))


def assert_certifiable(op: Operator) -> None:
    m = op.matrix
    assert op.tag == HERMITIAN
    assert m.dtype == np.float64 and not m.flags.writeable
    assert np.array_equal(m, m.conj().T)
    assert np.isfinite(m).all()
    checked = Operator(m, tag=HERMITIAN)
    assert checked.matrix.tobytes() == m.tobytes()


@st.composite
def chains(draw, couplings=MODERATE):
    d = draw(st.integers(2, 12))
    topology = draw(st.sampled_from([LINE, RING]))
    n_bonds = d if topology == RING else d - 1
    values = draw(st.lists(couplings, min_size=n_bonds, max_size=n_bonds))
    return ChainSpec(d=d, topology=topology, E0=draw(FINITE), couplings=tuple(values))


class TestChainHamiltonian:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(spec=chains())
    def test_signed_and_zero_couplings(self, spec):
        assert_certifiable(build_hamiltonian(spec))

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(spec=chains(FINITE))
    def test_full_range_rejected_only_where_a_ring_corner_overflows(self, spec):
        # only a d=2 ring sums two bonds into one entry
        corner = -spec.couplings[0] - spec.couplings[-1]
        if spec.d == 2 and spec.topology == RING and not math.isfinite(corner):
            with pytest.raises(NonHermitianInputError, match="non-finite corner"):
                build_hamiltonian(spec)
        else:
            assert_certifiable(build_hamiltonian(spec))

    @pytest.mark.parametrize("couplings", [(1.7e308, 1.7e308), (-1.7e308, -1.7e308),
                                           (1.7976931348623157e308, 1e292)])
    def test_two_site_ring_overflow_rejected(self, couplings):
        spec = ChainSpec(d=2, topology=RING, E0=0.0, couplings=couplings)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonHermitianInputError, match="non-finite corner"):
                build_hamiltonian(spec)

    def test_two_site_ring_cancelling_bonds_accepted(self):
        spec = ChainSpec(d=2, topology=RING, E0=0.0, couplings=(1.7e308, -1.7e308))
        op = build_hamiltonian(spec)
        assert_certifiable(op)
        assert op.matrix[0, 1] == 0.0


class TestPstHamiltonian:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(d=st.integers(2, 12), vartheta=st.floats(0.0, 1e308, exclude_min=True))
    @example(d=12, vartheta=1e308)  # overflows
    @example(d=12, vartheta=5e-324)  # the smallest accepted
    def test_certified_or_rejected_by_overflow(self, d, vartheta):
        with np.errstate(over="ignore"):
            entries = vartheta * pst_couplings(d, 1.0)
        if np.isfinite(entries).all():
            op = pst_hamiltonian(d, vartheta)
            assert_certifiable(op)
            assert np.array_equal(np.diag(op.matrix, 1), entries)
        else:
            with pytest.raises(ZeroThetaError, match="vartheta=.* at d="):
                pst_hamiltonian(d, vartheta)


class TestExchangeChain:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(data=st.data(), n=st.integers(2, 8))
    def test_signed_and_zero_couplings(self, data, n):
        couplings = data.draw(st.lists(FINITE, min_size=n - 1, max_size=n - 1))
        assert_certifiable(xy_chain_hamiltonian(couplings))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_non_finite_coupling_rejected(self, bad, position):
        couplings = [1.0, -0.5, 0.25]
        couplings[position] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonHermitianInputError, match="must be finite"):
                xy_chain_hamiltonian(couplings)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_number_operator(self, n):
        assert_certifiable(number_operator(n))


class TestComplexInputRejected:
    """A complex value written to both triangles would not be hermitian."""

    def test_on_site_energy(self):
        with pytest.raises(ValueError, match="E0 must be real"):
            ChainSpec(d=3, topology=LINE, E0=np.complex128(1 + 1j), couplings=(1.0, 1.0))

    @pytest.mark.parametrize("topology,position", [(LINE, 0), (LINE, 1), (LINE, 2),
                                                   (RING, 0), (RING, 3)])
    def test_coupling_scalar(self, topology, position):
        couplings = [1.0] * (4 if topology == RING else 3)
        couplings[position] = np.complex128(1 + 2j)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no ComplexWarning either
            with pytest.raises(ValueError, match="couplings must be real"):
                ChainSpec(d=4, topology=topology, E0=0.0, couplings=tuple(couplings))

    @pytest.mark.parametrize("couplings", [np.array([1.0, 1 + 2j, 1.0]), np.ones(3, dtype=complex)])
    def test_coupling_array(self, couplings):
        with pytest.raises(ValueError, match="couplings must be real"):
            ChainSpec(d=4, topology=LINE, E0=0.0, couplings=couplings)

    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_exchange_coupling_scalar(self, position):
        couplings = [1.0, 1.0, 1.0]
        couplings[position] = np.complex128(1 + 2j)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonHermitianInputError, match="must be real"):
                xy_chain_hamiltonian(couplings)

    @pytest.mark.parametrize("couplings", [np.array([1.0, 1 + 2j, 1.0]), np.ones(3, dtype=complex)])
    def test_exchange_coupling_array(self, couplings):
        with pytest.raises(NonHermitianInputError, match="must be real"):
            xy_chain_hamiltonian(couplings)

    @pytest.mark.parametrize("vartheta", [1j, np.complex128(1 + 1j), np.complex128(1 + 0j)])
    def test_pst_scale(self, vartheta):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ZeroThetaError, match="must be real"):
                pst_hamiltonian(4, vartheta)
