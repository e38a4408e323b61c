"""Monte Carlo toolkit for supercritical branching Markov processes with
absorption: an exact array-native population engine, spine-based moment
oracles, Malthusian-martingale statistics, quasi-stationary distribution
fits, and extinction fixed-point diagnostics."""

__version__ = "0.1.0"

from .branching import BranchingLaw, binary_law
from .eigen import EigenData, martingale_weight
from .engine import (
    Observables,
    PopulationSnapshot,
    ReplicaArrays,
    SimulationConfig,
    SnapshotSummary,
    run_replica,
    run_replicas,
    survival_indicator,
)
from .errors import ConfigurationError, DiagnosticError
from .fixedpoint import eta_curve, pgf_extinction, sigma_estimate
from .motions import (
    ContactProcessModT,
    ErgodicCTMC,
    GaltonWatson,
    KilledDriftBM,
    KilledOU,
    MotionModel,
    TransientOU,
    contact_event_rates,
)
from .spine import (
    TwoSpinePath,
    doob_weighted_expectation,
    many_to_one,
    many_to_two,
    sample_two_spine,
)
from .states import ABSORBED, canonicalize, is_absorbed
from .stats import (
    EstimateWithError,
    MartingaleCurve,
    PhiResult,
    W_ratio,
    ks_distance,
    malthusian_D,
    martingale_curve,
    min_h_statistic,
    nu_ratio,
    phi_quadrature,
)
from .testsets import FiniteSet, Interval, Predicate, count_in

__all__ = [
    "ABSORBED",
    "BranchingLaw",
    "ConfigurationError",
    "ContactProcessModT",
    "DiagnosticError",
    "EigenData",
    "ErgodicCTMC",
    "EstimateWithError",
    "FiniteSet",
    "GaltonWatson",
    "Interval",
    "KilledDriftBM",
    "KilledOU",
    "MartingaleCurve",
    "MotionModel",
    "Observables",
    "PhiResult",
    "PopulationSnapshot",
    "Predicate",
    "ReplicaArrays",
    "SimulationConfig",
    "SnapshotSummary",
    "TransientOU",
    "TwoSpinePath",
    "W_ratio",
    "binary_law",
    "canonicalize",
    "contact_event_rates",
    "count_in",
    "doob_weighted_expectation",
    "eta_curve",
    "is_absorbed",
    "ks_distance",
    "malthusian_D",
    "many_to_one",
    "many_to_two",
    "martingale_curve",
    "martingale_weight",
    "min_h_statistic",
    "nu_ratio",
    "pgf_extinction",
    "phi_quadrature",
    "run_replica",
    "run_replicas",
    "sample_two_spine",
    "sigma_estimate",
    "survival_indicator",
]
