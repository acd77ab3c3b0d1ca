"""General (nonparametric) estimators of the long-term treatment effect.

Three routes, all targeting the effect in the observational-sample
population and all self-normalized (Hájek) where weights appear:

* imputation — impute the missing primary outcome of experimental units
  from the observational outcome model, reweighting by selection odds to
  land on the observational covariate distribution;
* weighting — reweight observational units by the density ratio of
  (treatment, secondary) given covariates between the samples, optionally
  adjusting for a covariate-conditional experimental design;
* control function — condition on the within-(treatment, covariate) rank
  of the secondary outcome under the experimental distribution.
"""

import numpy as np

from .base import BaseEstimator
from .exceptions import EstimationError, ValidationError
from .nuisance import (
    BINNING,
    FREQUENCY,
    KNN,
    covariate_method,
    fit_density_ratio,
    fit_primary_outcome_model,
    fit_propensity,
    fit_rank_outcome_model,
    fit_secondary_rank,
    fit_selection_odds,
)
from .sample import CombinedSample

RANDOMIZED = "randomized"
UNCONFOUNDED = "unconfounded"


def _hajek(values, weights, label) -> float:
    total = float(np.sum(weights))
    if total <= 0.0:
        raise EstimationError(f"zero total weight in {label}")
    return float(np.sum(values * weights)) / total


class GeneralImputation(BaseEstimator):
    """Selection-odds-weighted difference of imputed primary outcomes across
    experimental arms."""

    def __init__(self, nuisance: str = FREQUENCY, k: int | None = None, trim: float = 0.01):
        self.nuisance = nuisance
        self.k = k
        self.trim = trim

    def fit(self, sample: CombinedSample):
        if self.nuisance not in (FREQUENCY, KNN):
            raise ValidationError(
                f"imputation supports nuisance methods 'frequency' and 'knn', "
                f"got {self.nuisance!r}")
        outcome_model = fit_primary_outcome_model(sample, method=self.nuisance, k=self.k)
        selection = fit_selection_odds(sample, method=covariate_method(sample),
                                       trim=self.trim, k=self.k)
        mask = sample.mask(group="E")
        w = sample.treatment[mask]
        imputed = outcome_model.evaluate(
            w, np.column_stack([sample.covariates[mask], sample.secondary[mask]]))
        p = selection.fitted_values[mask]
        odds = p / (1.0 - p)
        treated = _hajek(imputed[w == 1], odds[w == 1], "treated experimental arm")
        control = _hajek(imputed[w == 0], odds[w == 0], "control experimental arm")
        self.tau_ = treated - control
        self.outcome_model_ = outcome_model
        self.selection_ = selection
        self.warnings_ = tuple(outcome_model.warnings) + tuple(selection.warnings)
        return self

    @property
    def name(self) -> str:
        return "imputation"


class GeneralWeighting(BaseEstimator):
    """Density-ratio-weighted difference of observational primary outcomes.

    Under a completely randomized experimental design the weights are the
    density ratio alone; under a covariate-conditional design each arm is
    additionally inverse-weighted by the experimental propensity score.
    """

    def __init__(self, nuisance: str = FREQUENCY, bins: int = 20,
                 experimental_design: str = RANDOMIZED, trim: float = 0.01):
        self.nuisance = nuisance
        self.bins = bins
        self.experimental_design = experimental_design
        self.trim = trim

    def fit(self, sample: CombinedSample):
        if self.nuisance not in (FREQUENCY, BINNING):
            raise ValidationError(
                f"weighting supports nuisance methods 'frequency' and 'binning', "
                f"got {self.nuisance!r}")
        if self.experimental_design not in (RANDOMIZED, UNCONFOUNDED):
            raise ValidationError(f"unknown experimental design {self.experimental_design!r}")
        density_ratio = fit_density_ratio(sample, method=self.nuisance, bins=self.bins)
        mask = sample.mask(group="O")
        w = sample.treatment[mask]
        lam = density_ratio.fitted_values[mask]
        y = sample.primary[mask]
        propensity = None
        if self.experimental_design == UNCONFOUNDED:
            propensity = fit_propensity(sample, group="E", method=covariate_method(sample),
                                        trim=self.trim)
            e = propensity.probability(sample.covariates[mask])
            a = 1.0 / e
            b = 1.0 / (1.0 - e)
        else:
            a = b = np.ones(len(w))
        treated = _hajek(y[w == 1], (lam * a)[w == 1], "treated observational arm")
        control = _hajek(y[w == 0], (lam * b)[w == 0], "control observational arm")
        self.tau_ = treated - control
        self.density_ratio_ = density_ratio
        self.propensity_ = propensity
        self.warnings_ = tuple(density_ratio.warnings) + (
            tuple(propensity.warnings) if propensity is not None else ())
        return self

    @property
    def name(self) -> str:
        return "weighting"


class ControlFunction(BaseEstimator):
    """Average, across experimental arms, of the observational outcome model
    evaluated at each experimental unit's secondary-outcome rank."""

    def __init__(self, nuisance: str = FREQUENCY, k: int | None = None):
        self.nuisance = nuisance
        self.k = k

    def fit(self, sample: CombinedSample):
        if self.nuisance not in (FREQUENCY, KNN):
            raise ValidationError(
                f"the control function supports nuisance methods 'frequency' and "
                f"'knn', got {self.nuisance!r}")
        rank_fit = fit_secondary_rank(sample, method=covariate_method(sample), k=self.k)
        mask_o = sample.mask(group="O")
        ranks_o = rank_fit.evaluate(sample.secondary[mask_o], sample.treatment[mask_o],
                                    sample.covariates[mask_o])
        rank_outcome = fit_rank_outcome_model(sample, ranks_o, method=self.nuisance, k=self.k)
        mask_e = sample.mask(group="E")
        w = sample.treatment[mask_e]
        ranks_e = rank_fit.evaluate(sample.secondary[mask_e], w, sample.covariates[mask_e])
        g = rank_outcome.evaluate(w, np.column_stack([sample.covariates[mask_e], ranks_e]))
        if not (w == 1).any() or not (w == 0).any():
            raise EstimationError("empty experimental arm")
        self.tau_ = float(np.mean(g[w == 1])) - float(np.mean(g[w == 0]))
        self.rank_fit_ = rank_fit
        self.rank_outcome_ = rank_outcome
        self.ranks_observational_ = ranks_o
        self.warnings_ = tuple(rank_fit.warnings) + tuple(rank_outcome.warnings)
        return self

    @property
    def name(self) -> str:
        return "control-function"


# Shorthand for the classes, returning the point estimate.


def estimate_imputation(sample: CombinedSample, method: str = FREQUENCY,
                        k: int | None = None, trim: float = 0.01) -> float:
    return GeneralImputation(nuisance=method, k=k, trim=trim).fit(sample).tau_


def estimate_weighting(sample: CombinedSample, method: str = FREQUENCY, bins: int = 20,
                       experimental_design: str = RANDOMIZED, trim: float = 0.01) -> float:
    return GeneralWeighting(nuisance=method, bins=bins, experimental_design=experimental_design,
                            trim=trim).fit(sample).tau_


def estimate_control_function(sample: CombinedSample, method: str = FREQUENCY,
                              k: int | None = None) -> float:
    return ControlFunction(nuisance=method, k=k).fit(sample).tau_
