"""American ESO valuation on a stock with a hidden drift change point.

Two agents value the same American call under the physical measure: an
insider who observes the drift regime, and an outsider who filters it from
prices.  The package prices both on a regime-switching CRR lattice, solves
the insider's perpetual problem in closed form, and replays both optimal
policies through Monte Carlo simulation.
"""

from .filtering import (
    FilterGrid,
    build_grid,
    likelihood_ratio_quadrature,
    predict_return_prob,
    simulate_continuous_filter,
    update_belief,
)
from .full_info import FullInfoResult, price_european_reference, price_full
from .lattice import (
    AdmissibilityError,
    Lattice,
    NonFiniteResultError,
    QMatrix,
    RegimeReturnProbs,
    build_lattice,
    joint_full_info_transitions,
    regime_return_probs,
    transition_matrix,
)
from .model import DerivedConstants, ModelParams, ParameterError, Regime, derived, load_params, validate
from .partial_info import PartialInfoResult, price_partial, price_partial_exact
from .perpetual import NoFiniteBoundary, PerpetualSolution, solve_perpetual, verify_odes
from .simulate import ExerciseOutcome, SimPath, aggregate_stats, replay_policies, simulate_joint_path

__all__ = [
    "AdmissibilityError",
    "DerivedConstants",
    "ExerciseOutcome",
    "FilterGrid",
    "FullInfoResult",
    "Lattice",
    "ModelParams",
    "NoFiniteBoundary",
    "NonFiniteResultError",
    "ParameterError",
    "PartialInfoResult",
    "PerpetualSolution",
    "QMatrix",
    "Regime",
    "RegimeReturnProbs",
    "SimPath",
    "aggregate_stats",
    "build_grid",
    "build_lattice",
    "derived",
    "joint_full_info_transitions",
    "likelihood_ratio_quadrature",
    "load_params",
    "predict_return_prob",
    "price_european_reference",
    "price_full",
    "price_partial",
    "price_partial_exact",
    "regime_return_probs",
    "replay_policies",
    "simulate_continuous_filter",
    "simulate_joint_path",
    "solve_perpetual",
    "transition_matrix",
    "update_belief",
    "validate",
    "verify_odes",
]

__version__ = "0.1.0"
