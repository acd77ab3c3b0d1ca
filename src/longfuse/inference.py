"""Bootstrap inference and report assembly.

Standard errors come from a stratified bootstrap: resample within each
(group, treatment) stratum, refit the estimator — nuisances included — and
take the standard deviation of the replicate estimates. One uniform
procedure for every estimator keeps the reported uncertainties comparable
across methods.
"""

import hashlib
import json

import numpy as np

from .base import BaseEstimator
from .exceptions import EstimationError, LongfuseError, ValidationError, WarningRecord
from .sample import CombinedSample, EstimateReport, bootstrap_resample
from .simulate import replicate_seeds


class NaiveObservational(BaseEstimator):
    """Unadjusted treated-minus-control mean of the primary outcome in the
    observational sample; the benchmark every adjusted estimator is read
    against."""

    def fit(self, sample: CombinedSample):
        treated = sample.primary[sample.mask(group="O", treatment=1)]
        control = sample.primary[sample.mask(group="O", treatment=0)]
        self.tau_ = float(np.mean(treated)) - float(np.mean(control))
        self.warnings_ = ()
        return self

    @property
    def name(self) -> str:
        return "naive"


def config_fingerprint(payload: dict) -> str:
    canonical = json.dumps(payload, sort_keys=True, default=str).encode()
    return hashlib.sha256(canonical).hexdigest()[:16]


def bootstrap_estimates(estimators, sample: CombinedSample, n_bootstrap: int, seed: int):
    """Replicate estimates in replicate-index order plus the failure count,
    one ``(values, n_failed)`` pair per estimator, in order.

    Each replicate draws one stratified resample and refits a clone of every
    estimator on it, so replicate r is the same resample for all of them.
    Replicates where the resample breaks an estimator precondition (an
    emptied cell, a rank failure) are dropped and counted.
    """
    values = [[] for _ in estimators]
    for replicate_seed in replicate_seeds(seed, n_bootstrap):
        resample = bootstrap_resample(sample, replicate_seed)
        for estimator, kept in zip(estimators, values):
            try:
                kept.append(float(estimator.clone().fit(resample).tau_))
            except EstimationError:
                pass
        del resample  # freed before the next draw: one resample alive at a time
    return [(np.asarray(kept), n_bootstrap - len(kept)) for kept in values]


def _point_fit(estimator: BaseEstimator, sample: CombinedSample):
    """Fit on the whole sample; keep only what the report reads."""
    fitted = estimator.clone().fit(sample)
    details = {}
    if hasattr(fitted, "delta_"):
        details["delta_hat"] = float(fitted.delta_)
    if hasattr(fitted, "balance_"):
        b = fitted.balance_
        details["residual_balance"] = {
            "mean_treated": b.mean_treated,
            "mean_control": b.mean_control,
            "difference": b.difference,
            "se": b.se,
        }
    return fitted.name, float(fitted.tau_), list(getattr(fitted, "warnings_", ())), details


def estimate_with_bootstrap(estimators, sample: CombinedSample, n_bootstrap: int = 200,
                            seed: int = 0, fingerprint: str | None = None):
    """One :class:`EstimateReport` per estimator, in order, with bootstrap
    standard errors from one shared replicate loop.

    Errors surface as if each estimator were fitted and bootstrapped in turn:
    the point fits run in order up to the first that raises, the estimators
    before it are bootstrapped, and the first of their "too few successful
    replicates" errors is raised before that point fit's error.
    """
    if n_bootstrap < 0 or n_bootstrap == 1:
        # one replicate cannot form a standard error; refuse before any fit
        raise ValidationError(f"n_bootstrap must be 0 or at least 2, got {n_bootstrap}")
    points, point_error = [], None
    for estimator in estimators:
        try:
            points.append(_point_fit(estimator, sample))
        except LongfuseError as exc:
            point_error = exc
            break
    estimators = estimators[:len(points)]
    replicates = [None] * len(points)
    if n_bootstrap > 0 and points:
        replicates = bootstrap_estimates(estimators, sample, n_bootstrap, seed)
    reports = []
    for estimator, point, replicate in zip(estimators, points, replicates):
        name, tau, warnings, details = point
        se = None
        if replicate is not None:
            values, n_failed = replicate
            if len(values) < 2:
                raise EstimationError(
                    f"bootstrap produced {len(values)} successful replicates; cannot form a SE"
                )
            se = float(np.std(values, ddof=1))
            if n_failed:
                warnings.append(WarningRecord(
                    code="bootstrap_replicates_failed",
                    message=f"{n_failed} of {n_bootstrap} bootstrap replicates failed "
                            "and were dropped",
                    context={"n_failed": n_failed, "n_bootstrap": n_bootstrap},
                ))
        payload = {"estimator": name, "params": estimator.get_params(),
                   "n_bootstrap": n_bootstrap, "seed": seed}
        reports.append(EstimateReport(
            estimator=name,
            tau_hat=tau,
            bootstrap_se=se,
            n_bootstrap=n_bootstrap,
            config_fingerprint=fingerprint if fingerprint is not None
            else config_fingerprint(payload),
            warnings=tuple(warnings),
            details=details,
        ))
    if point_error is not None:
        raise point_error
    return reports
