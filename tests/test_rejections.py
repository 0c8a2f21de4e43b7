"""Rejection table: every public entry point refuses an argument outside
its domain with a `QwireError`, never a bare ValueError, a NaN result or a
numpy warning (pytest turns RuntimeWarning into an error).  Where the
entry point raised ValueError before the library's rejections became
`InvalidConfigError`, it still does, so `except ValueError` keeps working.
"""

import argparse
import math
import warnings

import numpy as np
import pytest

from qwire import cli, numerics
from qwire.errors import (
    DimensionMismatchError,
    DimensionTooSmallError,
    IndexOutOfRangeError,
    InvalidConfigError,
    NonHermitianInputError,
    QwireError,
    ZeroThetaError,
    require_dim,
    require_real,
    require_reals,
)
from qwire.lattice import (
    LINE,
    RING,
    ChainSpec,
    dispersion,
    dispersion_check,
    uniform_chain,
    wave_numbers,
)
from qwire.numerics import (
    HERMITIAN,
    UNITARY,
    EigenSystem,
    Operator,
    StateVector,
    basis_state,
    evolution_phases,
    evolve,
    identity,
)
from qwire.optimizer import OptimizeConfig, OptimizeResult, objective, optimize_couplings
from qwire.pst import (
    FidelityCurve,
    TransferReport,
    fidelity_curve,
    pst_couplings,
    pst_hamiltonian,
    transfer_fidelity,
    transfer_time,
)
from qwire.spinchain import (
    QubitRegister,
    classicality_gap,
    ladder_algebra_check,
    lowering_operator,
    number_operator,
    sector_map,
    xy_chain_hamiltonian,
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

H4 = pst_hamiltonian(4, 1.0)  # spectrum -3, -1, 1, 3

NON_FINITE = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf}
NOT_REAL = {**NON_FINITE, "complex": 1j, "str": "1", "none": None}

# name -> (call taking the bad value, whether it raised ValueError before)
REAL_ARGUMENTS = {
    "ChainSpec-E0": (lambda x: ChainSpec(d=3, topology=LINE, E0=x, couplings=(1.0, 1.0)), True),
    "ChainSpec-coupling": (
        lambda x: ChainSpec(d=3, topology=LINE, E0=0.0, couplings=(1.0, x)), True),
    "uniform_chain": (lambda x: uniform_chain(3, RING, 0.0, x), True),
    "dispersion-E0": (lambda x: dispersion(LINE, 4, x, 1.0), False),
    "dispersion-A": (lambda x: dispersion(RING, 4, 0.0, x), False),
    "pst_couplings": (lambda x: pst_couplings(4, x), False),
    "pst_hamiltonian": (lambda x: pst_hamiltonian(4, x), False),
    "transfer_time": (lambda x: transfer_time(4, x), False),
    "equidistant_hamiltonian": (lambda x: equidistant_hamiltonian(4, x), False),
    "time_step": (lambda x: time_step(4, x), False),
    "verify_shift_identity": (lambda x: verify_shift_identity(4, x), False),
    "xy_chain_hamiltonian": (lambda x: xy_chain_hamiltonian([1.0, x]), False),
    "evolve": (lambda x: evolve(H4, x), True),
    "evolution_phases": (lambda x: evolution_phases(H4, [0.0, x]), True),
    "transfer_fidelity": (lambda x: transfer_fidelity(H4, x, 0, 3), True),
    "fidelity_curve": (lambda x: fidelity_curve(H4, [0.0, x], 0, 3), True),
    "objective-coupling": (lambda x: objective([1.0, x, 1.0], 1.0, 4), True),
    "objective-time": (lambda x: objective([1.0, 1.0, 1.0], x, 4), True),
    "OptimizeConfig-t_target": (lambda x: OptimizeConfig(d=4, t_target=x), True),
    "OptimizeConfig-tol": (lambda x: OptimizeConfig(d=4, t_target=1.0, tol=x), True),
    "optimize_couplings": (
        lambda x: optimize_couplings(OptimizeConfig(d=3, t_target=1.0), [1.0, x]), True),
}

# entries of a matrix or state, where a complex value is in the domain
ENTRY_ARGUMENTS = {
    "Operator-hermitian": (lambda x: Operator([[x, 0.0], [0.0, 1.0]], tag=HERMITIAN), False),
    "Operator-unitary": (lambda x: Operator([[x, 0.0], [0.0, 1.0]], tag=UNITARY), True),
    "StateVector": (lambda x: StateVector([x, 0.0]), False),
}

# entry point taking d -> (call, whether d < 2 raised ValueError before)
DIMENSION_ARGUMENTS = {
    "ChainSpec": (lambda d: ChainSpec(d=d, topology=LINE, E0=0.0, couplings=()), False),
    "uniform_chain": (lambda d: uniform_chain(d, RING), False),
    "wave_numbers": (lambda d: wave_numbers(LINE, d), False),
    "dispersion": (lambda d: dispersion(RING, d, 0.0, 1.0), False),
    "objective": (lambda d: objective([], 1.0, d), False),
    "pst_couplings": (lambda d: pst_couplings(d, 1.0), False),
    "pst_hamiltonian": (lambda d: pst_hamiltonian(d, 1.0), False),
    "transfer_time": (lambda d: transfer_time(d, 1.0), False),
    "shift_matrix": (shift_matrix, False),
    "clock_matrix": (clock_matrix, False),
    "momentum_basis": (momentum_basis, False),
    "weyl_pair": (weyl_pair, False),
    "equidistant_hamiltonian": (lambda d: equidistant_hamiltonian(d, 1.0), False),
    "time_step": (lambda d: time_step(d, 1.0), False),
    "verify_shift_identity": (lambda d: verify_shift_identity(d, 1.0), False),
    "OptimizeConfig": (lambda d: OptimizeConfig(d=d, t_target=1.0), True),
}

# entry point taking a qubit count n -> call; n < 1 raised ValueError before
QUBIT_ARGUMENTS = {
    "QubitRegister": QubitRegister,
    "sector_map": sector_map,
    "number_operator": number_operator,
    "lowering_operator": lambda n: lowering_operator(n, 0),
    "ladder_algebra_check": lambda n: ladder_algebra_check(n, 0),
    "classicality_gap": classicality_gap,
}

# index (or size) argument -> (call taking it, the name its error gives);
# a non-integer one raised a bare IndexError or TypeError, or was used
QUBIT_NAMES = {"classicality_gap": "N"}
SITE_ARGUMENTS = {
    "transfer_fidelity-source": (lambda s: transfer_fidelity(H4, 1.0, s, 3), "source"),
    "transfer_fidelity-target": (lambda s: transfer_fidelity(H4, 1.0, 0, s), "target"),
    "fidelity_curve-source": (lambda s: fidelity_curve(H4, [0.0, 1.0], s, 3), "source"),
    "fidelity_curve-target": (lambda s: fidelity_curve(H4, [0.0, 1.0], 0, s), "target"),
    "basis_state-index": (lambda s: basis_state(4, s), "index"),
    "basis_state-dim": (lambda s: basis_state(s, 0), "dim"),
    "lowering_operator": (lambda s: lowering_operator(3, s), "site"),
    "ladder_algebra_check": (lambda s: ladder_algebra_check(3, s), "site"),
}

NOT_UNIFORM = ChainSpec(d=3, topology=LINE, E0=0.0, couplings=(1.0, 2.0))


def _optimize_result(**fields):
    """An OptimizeResult from valid fields, some replaced."""
    return OptimizeResult(**{"couplings": (1.0,), "fidelity": 0.5, "iterations": 1,
                             "stop_reason": "plateau", "restarts": 0, "gradient_norm": 0.0,
                             "decrement": math.inf, **fields})


# (id, call, whether it raised ValueError before)
SINGLE_CASES = [
    # unknown topology or tag
    ("ChainSpec-topology",
     lambda: ChainSpec(d=3, topology="star", E0=0.0, couplings=(1.0, 1.0)), True),
    ("uniform_chain-topology", lambda: uniform_chain(3, "star"), True),
    ("wave_numbers-topology", lambda: wave_numbers("star", 4), True),
    ("dispersion-topology", lambda: dispersion("star", 4, 0.0, 1.0), True),
    ("dispersion_check-not-uniform", lambda: dispersion_check(NOT_UNIFORM), True),
    ("Operator-tag", lambda: Operator(np.eye(2), tag="orthogonal"), True),
    ("commutation_phase-tag", lambda: commutation_phase(Operator(np.eye(2)), shift_matrix(2)),
     True),
    # a NaN count was accepted before, and gave a NaN dimension or count
    ("QubitRegister-nan", lambda: QubitRegister(math.nan), False),
    ("classicality_gap-nan", lambda: classicality_gap(math.nan), False),
    # time grids that are not increasing
    ("fidelity_curve-decreasing", lambda: fidelity_curve(H4, [1.0, 0.5], 0, 3), True),
    ("fidelity_curve-repeated", lambda: fidelity_curve(H4, [0.0, 1.0, 1.0], 0, 3), True),
    # no sample at all: the curve's peak had nothing to take the maximum of
    ("fidelity_curve-empty", lambda: fidelity_curve(H4, [], 0, 3), False),
    # finite times whose phases overflow: max |lambda| * max |t| >= 3e308
    ("evolve-overflow", lambda: evolve(H4, 1e308), True),
    ("evolution_phases-overflow", lambda: evolution_phases(H4, 1e308), False),
    ("evolution_phases-overflow-negative",
     lambda: evolution_phases(H4, [0.0, -1e308]), False),
    ("evolution_phases-overflow-lowest-level",
     lambda: evolution_phases(Operator(np.diag([-4.0, 1.0]), tag=HERMITIAN), 5e307), False),
    ("transfer_fidelity-overflow", lambda: transfer_fidelity(H4, 1e308, 0, 3), False),
    ("transfer_fidelity-overflow-d8",
     lambda: transfer_fidelity(pst_hamiltonian(8, 1.0), 1e308, 0, 7), False),
    ("fidelity_curve-overflow", lambda: fidelity_curve(H4, [0.0, 1e308], 0, 3), True),
    ("objective-overflow", lambda: objective([2.0, 2.0, 2.0], 1e308, 4), False),
    # a vartheta so small that the period pi/vartheta overflows is refused as
    # ZeroThetaError, like every other bad vartheta (not a ValueError): before,
    # t* = inf was refused as an evolution time (InvalidConfigError), and a
    # finite t* gave a report whose period was inf
    ("transfer_time-crossing-overflow", lambda: transfer_time(4, 5e-324), False),
    ("transfer_time-period-overflow", lambda: transfer_time(4, 1e-308), False),
    # a band edge |E0| + 2|A| beyond the float range: the energies would be inf
    ("dispersion-band-overflow-ring", lambda: dispersion(RING, 6, 0.0, 1e308), False),
    ("dispersion-band-overflow-line", lambda: dispersion(LINE, 5, -1e308, 5e307), False),
    ("dispersion-band-overflow-two-site-ring", lambda: dispersion(RING, 2, 0.0, 1e308), False),
    ("dispersion_check-band-overflow",
     lambda: dispersion_check(uniform_chain(6, RING, 0.0, -1e308)), False),
    # a bare number where a coupling sequence belongs is not one coupling
    ("ChainSpec-bare-coupling", lambda: ChainSpec(d=3, topology=LINE, E0=0.0, couplings=5), True),
    ("xy_chain_hamiltonian-bare-coupling", lambda: xy_chain_hamiltonian(5), False),
    # empty or mismatched shapes
    ("Operator-empty", lambda: Operator(np.zeros((0, 0))), False),
    ("StateVector-empty", lambda: StateVector([]), False),
    ("basis_state-index-past-end", lambda: basis_state(3, 3), False),
    ("EigenSystem-2d-values", lambda: EigenSystem([[1.0]], 0.0), False),
    ("commutation_phase-dims", lambda: commutation_phase(shift_matrix(3), clock_matrix(4)),
     False),
    # an amplitude A*sqrt(j(d-j)) beyond the float range (at d = 3 it stays finite)
    ("pst_couplings-overflow", lambda: pst_couplings(5, 1e308), True),
    # pairs that fail certification raised a bare ValueError before
    ("WeylPair-shift-not-order-d",
     lambda: WeylPair(shift=Operator(2 * np.eye(4)), clock=clock_matrix(4)), True),
    ("WeylPair-identity-pair", lambda: WeylPair(shift=identity(4), clock=identity(4)), True),
    ("WeylPair-phase-not-primitive",
     lambda: WeylPair(shift=shift_matrix(4),
                      clock=Operator(np.diag([1.0, -1.0, 1.0, -1.0]), tag=UNITARY)), True),
    # a result type's field that is not real, or not an integer: a complex
    # value was cast to its real part with a ComplexWarning, a string raised
    # numpy's ValueError or a TypeError, and a string d or negative count
    # was accepted
    ("EigenSystem-complex-values", lambda: EigenSystem(np.array([1 + 1j]), 0.0), False),
    ("EigenSystem-str-values", lambda: EigenSystem(["x"], 0.0), True),
    ("EigenSystem-complex-residual", lambda: EigenSystem([1.0], 1j), False),
    ("FidelityCurve-complex-times",
     lambda: FidelityCurve(np.array([0, 1 + 1j]), [0.5, 0.5], 0, 1), False),
    ("FidelityCurve-complex-fidelities",
     lambda: FidelityCurve([0.0, 1.0], np.array([0.5, 0.5 + 1j]), 0, 1), False),
    ("FidelityCurve-str-times", lambda: FidelityCurve(["a"], [0.5], 0, 1), True),
    ("FidelityCurve-negative-source", lambda: FidelityCurve([0.0], [0.5], -1, 1), False),
    ("FidelityCurve-float-target", lambda: FidelityCurve([0.0], [0.5], 0, 1.0), False),
    ("TransferReport-complex-t_star", lambda: TransferReport(4, 1.0, 1 + 1j, 1.0), False),
    ("TransferReport-str-d", lambda: TransferReport("x", 1.0, 1.0, 1.0), False),
    ("TransferReport-small-d", lambda: TransferReport(1, 1.0, 1.0, 1.0), False),
    ("OptimizeResult-complex-coupling", lambda: _optimize_result(couplings=(1 + 1j,)), False),
    ("OptimizeResult-complex-fidelity", lambda: _optimize_result(fidelity=0.5 + 0j), False),
    ("OptimizeResult-negative-iterations", lambda: _optimize_result(iterations=-3), False),
    ("OptimizeResult-negative-restarts", lambda: _optimize_result(restarts=-1), False),
    ("OptimizeResult-float-restarts", lambda: _optimize_result(restarts=1.0), False),
    # 2^63 is an exact Python int: the cap of 62 is a size rule, not an
    # overflow (a bare OverflowError before)
    ("classicality_gap-above-cap", lambda: classicality_gap(63), False),
    # entries that are not numbers, or a ragged nesting: numpy's ValueError before
    ("Operator-str-entry", lambda: Operator([["a"]]), True),
    ("Operator-ragged", lambda: Operator([[1.0], [1.0, 2.0]]), True),
    ("Operator-none", lambda: Operator(None), False),
    ("StateVector-str-entry", lambda: StateVector(["a"]), True),
    ("StateVector-ragged", lambda: StateVector([[1.0], [0.0, 1.0]]), True),
    # a decrement that is not a real number: a bare TypeError before
    ("OptimizeResult-complex-decrement", lambda: _optimize_result(decrement=1j), False),
    ("OptimizeResult-str-decrement", lambda: _optimize_result(decrement="x"), False),
    ("OptimizeResult-none-decrement", lambda: _optimize_result(decrement=None), False),
    # a negative dimension: numpy's ValueError before, the class of identity(0) now
    ("identity-negative", lambda: identity(-1), False),
]

# a dimension, count or index that is not an integer was refused by numpy,
# or not at all
NON_INTEGER_DIMS = {"2.5": 2.5, "4.0": 4.0, "nan": math.nan, "inf": math.inf, "str": "4"}


def _cases():
    for name, (call, was_value_error) in REAL_ARGUMENTS.items():
        for label, x in NOT_REAL.items():
            yield pytest.param(call, (x,), was_value_error, id=f"{name}-{label}")
    for name, (call, was_value_error) in ENTRY_ARGUMENTS.items():
        for label, x in NON_FINITE.items():
            yield pytest.param(call, (x,), was_value_error, id=f"{name}-{label}")
    for name, (call, was_value_error) in DIMENSION_ARGUMENTS.items():
        for d in (1, 0, -1):
            yield pytest.param(call, (d,), was_value_error, id=f"{name}-d{d}")
        for label, d in NON_INTEGER_DIMS.items():
            yield pytest.param(call, (d,), True, id=f"{name}-d{label}")
    for name, call in QUBIT_ARGUMENTS.items():
        for n in (0, -3):
            yield pytest.param(call, (n,), True, id=f"{name}-n{n}")
        for label, n in NON_INTEGER_DIMS.items():
            yield pytest.param(call, (n,), True, id=f"{name}-n{label}")
    for name, (call, _) in SITE_ARGUMENTS.items():
        for label, site in NON_INTEGER_DIMS.items():
            yield pytest.param(call, (site,), True, id=f"{name}-{label}")
    for name, call, was_value_error in SINGLE_CASES:
        yield pytest.param(call, (), was_value_error, id=name)


@pytest.mark.parametrize("call, args, was_value_error", list(_cases()))
def test_refused_with_a_qwire_error(call, args, was_value_error):
    with pytest.raises(QwireError) as excinfo:
        call(*args)
    if was_value_error:
        assert isinstance(excinfo.value, ValueError)


@pytest.mark.parametrize("d", list(NON_INTEGER_DIMS.values()), ids=list(NON_INTEGER_DIMS))
@pytest.mark.parametrize("name", sorted(DIMENSION_ARGUMENTS))
def test_non_integer_dimension_named(name, d):
    with pytest.raises(InvalidConfigError, match="d must be an integer, got "):
        DIMENSION_ARGUMENTS[name][0](d)


@pytest.mark.parametrize("value", list(NON_INTEGER_DIMS.values()), ids=list(NON_INTEGER_DIMS))
@pytest.mark.parametrize("name", sorted(QUBIT_ARGUMENTS) + sorted(SITE_ARGUMENTS))
def test_non_integer_count_or_index_named(name, value):
    if name in SITE_ARGUMENTS:
        call, argument = SITE_ARGUMENTS[name]
    else:
        call, argument = QUBIT_ARGUMENTS[name], QUBIT_NAMES.get(name, "n")
    with pytest.raises(InvalidConfigError, match=f"^{argument} must be an integer, got "):
        call(value)


def test_numpy_integer_count_and_index_accepted():
    three, one = np.int64(3), np.uint8(1)
    assert QubitRegister(three).dim == 8 and classicality_gap(three) == (8, 6, 2)
    assert sector_map(three).indices == (4, 2, 1)
    assert basis_state(three, one).amplitudes.tolist() == [0, 1, 0]
    assert ladder_algebra_check(three, one)
    assert transfer_fidelity(H4, 1.0, np.int32(0), three) == transfer_fidelity(H4, 1.0, 0, 3)


@pytest.mark.parametrize("d", [np.int64(4), np.int32(3), np.uint8(5)])
def test_numpy_integer_dimension_accepted(d):
    assert shift_matrix(d).dim == d
    assert wave_numbers(RING, d)[0].shape == (d,)
    assert ChainSpec(d=d, topology=LINE, E0=0.0, couplings=(1.0,) * (d - 1)).d == d


def test_line_band_reaches_only_its_own_edge():
    # a line's levels reach |E0| + 2|A| cos(pi/(d+1)); the ring's |E0| + 2|A|
    # overflows here
    assert np.isfinite(dispersion(LINE, 4, 0.0, 1e308)).all()
    assert dispersion_check(uniform_chain(4, LINE, 0.0, 1e308)) <= 1e-10 * 1.7e308


def test_largest_finite_band_accepted():
    # |E0| + 2|A| just below the float limit: finite energies, no warning
    energies = dispersion(RING, 4, 1.7e308 - 2 * 5e306, 5e306)
    assert np.isfinite(energies).all()


@pytest.mark.parametrize("call", [
    pytest.param(lambda: transfer_fidelity(H4, [0.5, 1.0], 0, 3), id="transfer_fidelity-pair"),
    pytest.param(lambda: transfer_fidelity(H4, [[1.0]], 0, 3), id="transfer_fidelity-nested"),
    pytest.param(lambda: transfer_fidelity(H4, np.array([1.0]), 0, 3), id="transfer_fidelity-1d"),
    pytest.param(lambda: evolve(H4, [0.5, 1.0]), id="evolve-pair"),
    pytest.param(lambda: evolve(H4, [[1.0]]), id="evolve-nested"),
])
def test_time_that_is_not_one_number_refused_before_the_eigensolve(call, monkeypatch):
    monkeypatch.setattr(numerics, "_eigh", None)  # an eigensolve would raise TypeError
    with pytest.raises(InvalidConfigError, match="^evolution times must be one real number, got "):
        call()


class TestPhaseOverflow:
    """evolution_phases refuses a finite time whose phases would be NaN and
    keeps the bits of every phase it can compute."""

    def test_transfer_fidelity_refused(self):
        with pytest.raises(InvalidConfigError, match="evolution phases overflow"):
            transfer_fidelity(pst_hamiltonian(8, 1.0), 1e308, 0, 7)

    @pytest.mark.parametrize("times", [1e308 / 3, [0.0, -5e307, 5.9e307], 1.7e308 / 3])
    def test_largest_finite_products_keep_their_bits(self, times):
        _, phases = evolution_phases(H4, times)
        values = np.linalg.eigh(H4.matrix)[0]
        expected = np.exp(-1j * np.multiply.outer(np.asarray(times, dtype=float), values))
        assert np.isfinite(phases).all()
        assert phases.tobytes() == expected.tobytes()

    def test_zero_times_need_no_eigensolve(self):
        # an all-zero grid is the identity even for a spectrum near the float limit
        h = Operator(np.diag([1e308, -1e308]), tag=HERMITIAN)
        vectors, phases = evolution_phases(h, [0.0, 0.0])
        assert np.array_equal(vectors, np.eye(2)) and np.array_equal(phases, np.ones((2, 2)))


class TestRealRule:
    """`require_reals` and its one-number wrapper `require_real`: the rule
    every real argument goes through, under the caller's error class."""

    @pytest.mark.parametrize("value", [3, -2.5, True, np.float32(0.1), np.int64(7),
                                       np.uint8(200), np.array(1.5), 2**64 + 1])
    def test_real_number_accepted_as_its_float(self, value):
        real = require_real(value, "x")
        assert type(real) is float and real == float(value)

    @pytest.mark.parametrize("value", [10**400, np.complex128(1 + 0j), 1j, "1", None,
                                       np.array([1.0, 2.0]), [1.0], math.nan])
    @pytest.mark.parametrize("error", [InvalidConfigError, ZeroThetaError])
    def test_bad_number_refused_by_name(self, value, error):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no ComplexWarning or RuntimeWarning
            with pytest.raises(error, match="^rate must be ") as excinfo:
                require_real(value, "rate", error)
        assert type(excinfo.value) is error

    @pytest.mark.parametrize("value", [0.0, -0.0, -1.0, math.inf, math.nan])
    def test_positive_refuses_zero_negative_and_non_finite(self, value):
        with pytest.raises(ZeroThetaError, match="^rate must be positive and finite, got "):
            require_real(value, "rate", ZeroThetaError, positive=True)

    def test_sequence_cast_once(self):
        reals = require_reals([1, 2.5, True, np.float32(0.5)], "couplings", ndim=1)
        assert reals.dtype == np.float64 and reals.tolist() == [1.0, 2.5, 1.0, 0.5]

    @pytest.mark.parametrize("values", [[1.0, "1"], [1.0, None], np.array([1.0, "1"], dtype=object),
                                        [1.0, np.complex128(1.0)], [1.0, [1.0, 2.0]]])
    def test_sequence_with_a_non_real_entry_refused(self, values):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonHermitianInputError, match="^couplings must be real, got "):
                require_reals(values, "couplings", NonHermitianInputError)

    def test_sequence_beyond_the_float_range_refused(self):
        with pytest.raises(InvalidConfigError, match="^couplings must be finite$"):
            require_reals([1.0, -(10**400)], "couplings")

    def test_bare_coupling_refused_with_the_entry_points_class(self):
        with pytest.raises(InvalidConfigError, match="^couplings must be a sequence"):
            ChainSpec(d=2, topology=LINE, E0=0.0, couplings=5)
        with pytest.raises(NonHermitianInputError, match="^exchange couplings must be a sequence"):
            xy_chain_hamiltonian(5)


# every bounded integer of the library and the CLI -> (call taking it, the
# least value accepted, the first value refused above or None, the error
# class a value out of bounds raises)
BOUNDED_INTEGERS = {
    "require_dim": (require_dim, 2, None, DimensionTooSmallError),
    "identity": (identity, 1, None, DimensionMismatchError),
    "basis_state-index": (lambda i: basis_state(4, i), 0, 4, DimensionMismatchError),
    "transfer_fidelity-source": (lambda s: transfer_fidelity(H4, 1.0, s, 3), 0, 4,
                                 IndexOutOfRangeError),
    "transfer_fidelity-target": (lambda s: transfer_fidelity(H4, 1.0, 0, s), 0, 4,
                                 IndexOutOfRangeError),
    "FidelityCurve-source": (lambda s: FidelityCurve([0.0], [0.5], s, 1), 0, None,
                             InvalidConfigError),
    "FidelityCurve-target": (lambda s: FidelityCurve([0.0], [0.5], 0, s), 0, None,
                             InvalidConfigError),
    "OptimizeConfig-d": (lambda d: OptimizeConfig(d=d, t_target=1.0), 2, None,
                         InvalidConfigError),
    "OptimizeConfig-max_iters": (lambda n: OptimizeConfig(d=3, t_target=1.0, max_iters=n), 1,
                                 None, InvalidConfigError),
    "OptimizeConfig-seed": (lambda n: OptimizeConfig(d=3, t_target=1.0, seed=n), 0, None,
                            InvalidConfigError),
    "OptimizeResult-iterations": (lambda n: _optimize_result(iterations=n), 0, None,
                                  InvalidConfigError),
    "OptimizeResult-restarts": (lambda n: _optimize_result(restarts=n), 0, None,
                                InvalidConfigError),
    "OptimizeResult-newton_steps": (lambda n: _optimize_result(newton_steps=n), 0, None,
                                    InvalidConfigError),
    "QubitRegister": (QubitRegister, 1, None, InvalidConfigError),
    "lowering_operator-site": (lambda s: lowering_operator(3, s), 0, 3, IndexOutOfRangeError),
    "classicality_gap": (classicality_gap, 1, None, InvalidConfigError),
    "cli-samples": (lambda n: cli.cmd_pst(argparse.Namespace(
        d=4, vartheta=1.0, t_max=None, samples=n, uniform=False)), 2, None, QwireError),
}


class TestBoundedIntegers:
    """`require_integer`'s bounds at every site that holds one: the value
    just past each bound raises the site's own class with the rule's one
    wording, the bound itself passes, a numpy integer passes and a float
    is no integer."""

    @pytest.mark.parametrize("name", sorted(BOUNDED_INTEGERS))
    def test_values_past_the_bounds_refused(self, name):
        call, low, high, error = BOUNDED_INTEGERS[name]
        cases = [(low - 1, ">=", low)] + ([(high, "<", high)] if high is not None else [])
        for value, relation, bound in cases:
            message = f" must be {relation} {bound}, got {value}$"
            with pytest.raises(QwireError, match=message) as excinfo:
                call(value)
            assert type(excinfo.value) is error

    @pytest.mark.parametrize("name", sorted(BOUNDED_INTEGERS))
    def test_values_at_the_bounds_accepted(self, name):
        call, low, high, _ = BOUNDED_INTEGERS[name]
        call(low)
        call(np.int64(low))
        if high is not None:
            call(high - 1)

    @pytest.mark.parametrize("name", sorted(BOUNDED_INTEGERS))
    def test_float_refused_as_no_integer(self, name):
        with pytest.raises(InvalidConfigError, match=" must be an integer, got 2.5$") as excinfo:
            BOUNDED_INTEGERS[name][0](2.5)
        assert type(excinfo.value) is InvalidConfigError
