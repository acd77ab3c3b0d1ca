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
from .exceptions import EstimationError, ValidationError, WarningRecord
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


def bootstrap_estimates(estimator: BaseEstimator, sample: CombinedSample,
                        n_bootstrap: int, seed: int):
    """Replicate estimates in replicate-index order plus the failure count.

    Replicates where the resample breaks an estimator precondition (an
    emptied cell, a rank failure) are dropped and counted.
    """
    def one(replicate_seed):
        resample = bootstrap_resample(sample, replicate_seed)
        try:
            return float(estimator.clone().fit(resample).tau_)
        except EstimationError:
            return None

    results = [one(s) for s in replicate_seeds(seed, n_bootstrap)]
    values = np.asarray([r for r in results if r is not None])
    return values, len(results) - len(values)


def estimate_with_bootstrap(estimator: BaseEstimator, sample: CombinedSample,
                            n_bootstrap: int = 200, seed: int = 0,
                            fingerprint: str | None = None,
                            details: dict | None = None) -> EstimateReport:
    if n_bootstrap < 0 or n_bootstrap == 1:
        # one replicate cannot form a standard error; refuse before any fit
        raise ValidationError(f"n_bootstrap must be 0 or at least 2, got {n_bootstrap}")
    fitted = estimator.clone().fit(sample)
    warnings = list(getattr(fitted, "warnings_", ()))
    se = None
    if n_bootstrap > 0:
        values, n_failed = bootstrap_estimates(estimator, sample, n_bootstrap, seed)
        if len(values) < 2:
            raise EstimationError(
                f"bootstrap produced {len(values)} successful replicates; cannot form a SE"
            )
        se = float(np.std(values, ddof=1))
        if n_failed:
            warnings.append(WarningRecord(
                code="bootstrap_replicates_failed",
                message=f"{n_failed} of {n_bootstrap} bootstrap replicates failed and were dropped",
                context={"n_failed": n_failed, "n_bootstrap": n_bootstrap},
            ))
    payload = {"estimator": fitted.name, "params": estimator.get_params(),
               "n_bootstrap": n_bootstrap, "seed": seed}
    report_details = dict(details or {})
    if hasattr(fitted, "delta_"):
        report_details.setdefault("delta_hat", float(fitted.delta_))
    if hasattr(fitted, "balance_"):
        b = fitted.balance_
        report_details.setdefault("residual_balance", {
            "mean_treated": b.mean_treated,
            "mean_control": b.mean_control,
            "difference": b.difference,
            "se": b.se,
        })
    return EstimateReport(
        estimator=fitted.name,
        tau_hat=float(fitted.tau_),
        bootstrap_se=se,
        n_bootstrap=n_bootstrap,
        config_fingerprint=fingerprint if fingerprint is not None else config_fingerprint(payload),
        warnings=tuple(warnings),
        details=report_details,
    )
