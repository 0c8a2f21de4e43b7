"""qwire: quantum wire simulator.

Dense-matrix models of signal transfer in nano-scale chains: shift/clock
operator algebra, tight-binding rings and lines, perfect-state-transfer
couplings, the multi-qubit exchange chain they embed into, and a
derivative-free optimizer that rediscovers the perfect-transfer profile.
"""

from .errors import (
    BadCouplingCountError,
    DimensionMismatchError,
    DimensionTooSmallError,
    IndexOutOfRangeError,
    InvalidConfigError,
    NonHermitianInputError,
    NotNormalizedError,
    NotProportionalError,
    QwireError,
    RegisterTooLargeError,
    ZeroThetaError,
)
from .lattice import (
    ChainSpec,
    build_hamiltonian,
    dispersion,
    dispersion_check,
    ring_position_spread,
    uniform_chain,
)
from .numerics import (
    EigenSystem,
    Operator,
    StateVector,
    basis_state,
    evolve,
    hermitian_eig,
    identity,
)
from .optimizer import OptimizeConfig, OptimizeResult, objective, optimize_couplings
from .pst import (
    FidelityCurve,
    TransferReport,
    fidelity_curve,
    mirror_check,
    pst_couplings,
    pst_hamiltonian,
    transfer_fidelity,
    transfer_time,
)
from .spinchain import (
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
from .weyl import (
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

__version__ = "0.1.0"
