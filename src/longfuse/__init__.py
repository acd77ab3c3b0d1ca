"""longfuse: treatment effects on long-term outcomes from fused samples.

Combines an experimental sample (treatment and a short-term outcome) with an
observational sample (treatment, short-term, and long-term outcomes) to
estimate the average treatment effect on the long-term outcome, with
imputation, weighting, and control-function estimators, specification
diagnostics, and simulation oracles for verification.
"""

from .base import BaseEstimator, check_is_fitted
from .binary import (
    BinaryCellMeans,
    BinaryImputation,
    BinaryWeighting,
    binary_cell_means,
    tau_naive_observational,
    tau_secondary_experimental,
)
from .diagnostics import (
    DiagnosticReport,
    SecondaryEffectComparison,
    compare_secondary_effects,
    surrogacy_check,
    group_balance_test,
)
from .exceptions import (
    EstimationError,
    LongfuseError,
    NotFittedError,
    PositivityError,
    RankError,
    ValidationError,
    WarningRecord,
)
from .inference import NaiveObservational, bootstrap_estimates, estimate_with_bootstrap
from .linear import (
    ControlFunctionFit,
    LinearControlFunction,
    LinearImputation,
    SecondaryModelFit,
    fit_secondary_experimental,
    residual_balance_diagnostic,
    residuals_observational,
)
from .nonparam import (
    ControlFunction,
    GeneralImputation,
    GeneralWeighting,
    estimate_control_function,
    estimate_imputation,
    estimate_weighting,
)
from .nuisance import (
    NuisanceFit,
    fit_density_ratio,
    fit_primary_outcome_model,
    fit_propensity,
    fit_rank_outcome_model,
    fit_secondary_rank,
    fit_selection_odds,
)
from .ols import OlsFit, design_matrix, ols
from .oracle import DiscreteDgpTable, OracleResult, identification_oracle, potential_outcome_truth
from .sample import (
    CombinedSample,
    EstimateReport,
    bootstrap_resample,
    load_sample,
    write_sample,
)
from .schema import CovariateSpec, SampleSchema, load_schema, schema_from_mapping
from .simulate import (
    SimConfig,
    SimTruth,
    latent_selection_gap,
    replicate_seeds,
    simulate_discrete,
    simulate_linear,
    true_tau,
)

__version__ = "0.1.0"
