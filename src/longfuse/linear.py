"""Linear-model estimators: secondary-outcome regression on the experimental
sample, residual construction on the observational sample, and the two
equivalent routes to the primary-outcome effect (control-function regression
and imputation regression).

An intercept is always included; fits without one would misattribute level
differences between the samples to the treatment.
"""

from dataclasses import dataclass

import numpy as np

from .base import BaseEstimator
from .ols import OlsFit, design_matrix, ols
from .sample import CombinedSample


@dataclass(frozen=True)
class SecondaryModelFit:
    """Experimental-sample regression of the secondary outcome on (1, W, X)."""

    tau_s_hat: float
    gamma_s_hat: np.ndarray
    intercept: float
    ols_fit: OlsFit


@dataclass(frozen=True)
class ControlFunctionFit:
    tau_p_hat: float
    gamma_p_hat: np.ndarray
    delta_hat: float
    residuals: np.ndarray  # secondary residuals over observational units
    ols_fit: OlsFit
    secondary_fit: SecondaryModelFit


@dataclass(frozen=True)
class ResidualBalance:
    mean_treated: float
    mean_control: float
    difference: float
    se: float


def fit_secondary_experimental(sample: CombinedSample) -> SecondaryModelFit:
    mask = sample.mask(group="E")
    X, names = design_matrix(sample, mask)
    fit = ols(sample.secondary[mask], X, names)
    return SecondaryModelFit(
        tau_s_hat=fit.coef("treatment"),
        gamma_s_hat=fit.coefficients[2:].copy(),
        intercept=fit.coef("intercept"),
        ols_fit=fit,
    )


def residuals_observational(sample: CombinedSample, fit: SecondaryModelFit) -> np.ndarray:
    """Secondary residuals of observational units against the experimental fit."""
    mask = sample.mask(group="O")
    X, _ = design_matrix(sample, mask)
    return sample.secondary[mask] - X @ fit.ols_fit.coefficients


def residual_balance_diagnostic(residuals, treatments) -> ResidualBalance:
    """Treated-vs-control mean residual with a Welch robust standard error."""
    r = np.asarray(residuals, dtype=np.float64)
    w = np.asarray(treatments)
    r1, r0 = r[w == 1], r[w == 0]
    if r1.size == 0 or r0.size == 0:
        raise ValueError("both treatment arms are required")
    m1, m0 = float(np.mean(r1)), float(np.mean(r0))
    v1 = float(np.var(r1, ddof=1)) if r1.size > 1 else 0.0
    v0 = float(np.var(r0, ddof=1)) if r0.size > 1 else 0.0
    se = float(np.sqrt(v1 / r1.size + v0 / r0.size))
    return ResidualBalance(mean_treated=m1, mean_control=m0, difference=m1 - m0, se=se)


class LinearControlFunction(BaseEstimator):
    """Two-step estimator: fit the secondary outcome on the experimental
    sample, then regress the primary outcome on (1, W, X, residual) in the
    observational sample. The residual coefficient measures how strongly the
    latent secondary-outcome component loads on the primary outcome."""

    def fit(self, sample: CombinedSample):
        secondary = fit_secondary_experimental(sample)
        resid = residuals_observational(sample, secondary)
        mask = sample.mask(group="O")
        X, names = design_matrix(sample, mask, extra={"secondary_residual": resid})
        fit = ols(sample.primary[mask], X, names)
        result = ControlFunctionFit(
            tau_p_hat=fit.coef("treatment"),
            gamma_p_hat=fit.coefficients[2:-1].copy(),
            delta_hat=fit.coef("secondary_residual"),
            residuals=resid,
            ols_fit=fit,
            secondary_fit=secondary,
        )
        self.tau_ = result.tau_p_hat
        self.delta_ = result.delta_hat
        self.result_ = result
        self.balance_ = residual_balance_diagnostic(resid, sample.treatment[mask])
        self.warnings_ = ()
        return self

    @property
    def name(self) -> str:
        return "linear-cf"


class LinearImputation(BaseEstimator):
    """Regress the primary outcome on (1, W, X, secondary) in the observational
    sample, predict a primary outcome for every experimental unit, and regress
    the prediction on (1, W, X) in the experimental sample."""

    def fit(self, sample: CombinedSample):
        mask_o = sample.mask(group="O")
        Xo, names_o = design_matrix(sample, mask_o, extra={"secondary": sample.secondary[mask_o]})
        fit_o = ols(sample.primary[mask_o], Xo, names_o)
        mask_e = sample.mask(group="E")
        Xe, names_e = design_matrix(sample, mask_e, extra={"secondary": sample.secondary[mask_e]})
        predicted = Xe @ fit_o.coefficients
        Xe_short, names_short = design_matrix(sample, mask_e)
        fit_e = ols(predicted, Xe_short, names_short)
        self.tau_ = fit_e.coef("treatment")
        self.delta_ = fit_o.coef("secondary")
        self.observational_fit_ = fit_o
        self.experimental_fit_ = fit_e
        self.warnings_ = ()
        return self

    @property
    def name(self) -> str:
        return "linear-imputation"

