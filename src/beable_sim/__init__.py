"""Deterministic pilot-wave trajectories for discrete-spectrum observables.

A set of commuting Hermitian operators is promoted to always-valued
"beables"; each gets a continuous lambda coordinate whose unit cells map to
its eigenvalues. Trajectories follow the velocity field J/P built from
projector currents, and ensembles of them reproduce the quantum cell
distribution at all times when sampled from it at one time.

The field (dynamics) evaluates P and J in the beables' joint eigenbasis;
verification holds the oracles, the dense-operator references among them.
"""

__version__ = "0.1.0"

from .beables import (
    BeableOperator,
    BeableSet,
    LambdaConfig,
    cell_index,
    eigenvalue_at,
    from_hermitian,
    validate_commuting_set,
)
from .dynamics import (
    Symmetrization,
    Trajectory,
    TrajectoryStatus,
    VelocityField,
    all_cell_tuples,
    integrate_trajectory,
    quantum_distribution,
)
from .errors import BeableSimError, ConfigError, InputError, NodeError, NumericError
from .linalg import (
    Operator,
    Propagator,
    QuantumState,
    commutator,
    diagonalize,
    evolve,
    expectation,
    identity,
)
from .presets import PRESET_NAMES, preset_config
from .verification import (
    EnsembleReport,
    TwoStateOracle,
    average_consistency,
    cell_weights,
    continuity_residual,
    current_operator,
    ensemble_equivariance,
    level_expectation,
    lower_projector,
    quantum_probability,
    sample_initial,
    single_beable_levelset,
    symmetrized_current,
    two_state_solution,
)

__all__ = [
    "__version__",
    "BeableOperator", "BeableSet", "LambdaConfig", "cell_index",
    "current_operator", "eigenvalue_at", "from_hermitian", "lower_projector",
    "validate_commuting_set",
    "Symmetrization", "Trajectory", "TrajectoryStatus", "VelocityField",
    "all_cell_tuples", "integrate_trajectory", "quantum_distribution",
    "quantum_probability", "symmetrized_current",
    "BeableSimError", "ConfigError", "InputError", "NodeError", "NumericError",
    "Operator", "Propagator", "QuantumState", "commutator", "diagonalize",
    "evolve", "expectation", "identity",
    "PRESET_NAMES", "preset_config",
    "EnsembleReport", "TwoStateOracle", "average_consistency", "cell_weights",
    "continuity_residual", "ensemble_equivariance", "level_expectation",
    "sample_initial", "single_beable_levelset", "two_state_solution",
]
