"""Shared least-squares kernel with rank diagnostics and robust standard errors."""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .exceptions import RankError, ValidationError
from .sample import CombinedSample
from .schema import CATEGORICAL


@dataclass(frozen=True)
class OlsFit:
    names: tuple[str, ...]
    coefficients: np.ndarray
    residuals: np.ndarray
    n: int
    r_squared: float
    design: np.ndarray  # the regressors, kept for the robust covariance

    @cached_property
    def covariance(self) -> np.ndarray:
        """Heteroskedasticity-robust (HC1) covariance, computed on first read."""
        X, resid = self.design, self.residuals
        n, k = X.shape
        xtx_inv = np.linalg.inv(X.T @ X)
        meat = (X * (resid**2)[:, None]).T @ X
        return xtx_inv @ meat @ xtx_inv * (n / (n - k))

    @cached_property
    def se(self) -> np.ndarray:
        """Robust (HC1) standard errors: the root of the covariance's diagonal."""
        return np.sqrt(np.clip(np.diag(self.covariance), 0.0, None))

    def coef(self, name: str) -> float:
        return float(self.coefficients[self.names.index(name)])

    def se_of(self, name: str) -> float:
        return float(self.se[self.names.index(name)])

    def predict(self, design: np.ndarray) -> np.ndarray:
        return np.asarray(design) @ self.coefficients


def ols(response, design, names) -> OlsFit:
    """Least squares via SVD-backed lstsq; errors name dependent columns.

    Robust (HC1) coefficient standard errors are computed when first read.
    """
    y = np.asarray(response, dtype=np.float64)
    X = np.asarray(design, dtype=np.float64)
    names = tuple(names)
    n, k = X.shape
    if len(names) != k:
        raise ValidationError("design names do not match column count")
    if n <= k:
        raise ValidationError(f"too few rows for regression: n={n}, columns={k}")
    # with rcond=None lstsq counts rank against matrix_rank's threshold
    # (eps * max(n, k) * s_max), so one SVD serves the fit and the rank check
    beta, _, rank, _ = np.linalg.lstsq(X, y, rcond=None)
    if rank < k:
        dependent = _dependent_columns(X, names)
        raise RankError(
            f"design is rank deficient (rank {rank} < {k}); dependent columns: "
            + ", ".join(dependent),
            columns=tuple(dependent),
        )
    resid = y - X @ beta
    sst = float(np.sum((y - y.mean()) ** 2))
    ssr = float(resid @ resid)
    r2 = 1.0 - ssr / sst if sst > 0 else 0.0
    return OlsFit(names=names, coefficients=beta, residuals=resid, n=n, r_squared=r2, design=X)


def _dependent_columns(X, names) -> list[str]:
    out = []
    rank = 0
    for j in range(X.shape[1]):
        r = np.linalg.matrix_rank(X[:, : j + 1])
        if r == rank:
            out.append(names[j])
        rank = r
    return out


def design_matrix(sample: CombinedSample, mask, extra: dict | None = None):
    """Build (X, names) for a regression on (1, W, covariates [, extras]).

    Categorical covariates expand to level dummies with the first (sorted)
    level as the base; continuous covariates enter as-is.
    """
    idx = np.flatnonzero(mask)
    cols = [np.ones(len(idx)), sample.treatment[idx].astype(np.float64)]
    names = ["intercept", "treatment"]
    cov_names = sample.schema.covariate_names
    for j, spec in enumerate(sample.schema.covariates):
        values = sample.covariates[idx, j]
        if spec.kind == CATEGORICAL:
            n_levels = len(spec.levels) if spec.levels else int(values.max()) + 1
            for level in range(1, n_levels):
                cols.append((values == level).astype(np.float64))
                label = spec.levels[level] if spec.levels else str(level)
                names.append(f"{cov_names[j]}={label}")
        else:
            cols.append(values)
            names.append(cov_names[j])
    for name, series in (extra or {}).items():
        cols.append(np.asarray(series, dtype=np.float64))
        names.append(name)
    return np.column_stack(cols), tuple(names)
