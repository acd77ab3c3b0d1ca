"""Exact estimators for the covariate-free binary-outcome case.

With a binary secondary outcome and no covariates, the imputation and
weighting estimators are algebraically identical; both are computed here
from exact cell frequencies. Continuous outcomes are refused rather than
discretized.
"""

from dataclasses import dataclass

import numpy as np

from .base import BaseEstimator
from .exceptions import EstimationError, PositivityError, ValidationError, WarningRecord
from .sample import CombinedSample


@dataclass(frozen=True)
class BinaryCellMeans:
    """The six defined cell means: secondary in both groups, primary in O."""

    secondary_experimental: tuple[float, float]  # (control, treated)
    secondary_observational: tuple[float, float]
    primary_observational: tuple[float, float]
    counts: dict

    def mean(self, outcome: str, group: str, treatment: int) -> float:
        if outcome == "P" and group == "E":
            raise ValidationError("primary cell means are undefined in the experimental group")
        table = {
            ("S", "E"): self.secondary_experimental,
            ("S", "O"): self.secondary_observational,
            ("P", "O"): self.primary_observational,
        }[(outcome, group)]
        return table[treatment]


def _require_binary_no_covariates(sample: CombinedSample) -> None:
    if sample.schema.n_covariates:
        raise ValidationError("binary estimators require a sample without covariates")
    if not np.isin(sample.secondary, (0.0, 1.0)).all():
        raise ValidationError("non-binary secondary outcome value")
    obs = sample.primary[sample.group_obs]
    if not np.isin(obs, (0.0, 1.0)).all():
        raise ValidationError("non-binary primary outcome value")


def binary_cell_means(sample: CombinedSample) -> BinaryCellMeans:
    _require_binary_no_covariates(sample)
    def cell_mean(values, g, w):
        m = sample.mask(group=g, treatment=w)
        if not m.any():
            raise PositivityError(f"empty cell: group {g}, treatment {w}")
        return float(np.mean(values[m]))

    return BinaryCellMeans(
        secondary_experimental=(cell_mean(sample.secondary, "E", 0),
                                cell_mean(sample.secondary, "E", 1)),
        secondary_observational=(cell_mean(sample.secondary, "O", 0),
                                 cell_mean(sample.secondary, "O", 1)),
        primary_observational=(cell_mean(sample.primary, "O", 0),
                               cell_mean(sample.primary, "O", 1)),
        counts=dict(sample.counts),
    )


def tau_secondary_experimental(means: BinaryCellMeans) -> float:
    return means.secondary_experimental[1] - means.secondary_experimental[0]


def tau_naive_observational(means: BinaryCellMeans, outcome: str = "P") -> float:
    if outcome not in ("S", "P"):
        raise ValidationError(f"outcome must be 'S' or 'P', got {outcome!r}")
    return means.mean(outcome, "O", 1) - means.mean(outcome, "O", 0)


def _cell_stats(sample: CombinedSample):
    """Exact per-(treatment, secondary) cell counts and outcome sums.

    Sums of 0/1 outcomes are integers, so every downstream ratio is computed
    from exactly representable values and no output depends on unit order.
    """
    n_e, n_o, sum_y = {}, {}, {}
    for w in (0, 1):
        for s in (0.0, 1.0):
            in_cell = (sample.secondary == s) & (sample.treatment == w)
            n_e[(w, s)] = int(np.sum(in_cell & ~sample.group_obs))
            mask_o = in_cell & sample.group_obs
            n_o[(w, s)] = int(np.sum(mask_o))
            sum_y[(w, s)] = float(np.sum(sample.primary[mask_o]))
    return n_e, n_o, sum_y


class BinaryImputation(BaseEstimator):
    """Impute the missing primary outcome of each experimental unit with the
    observational cell mean sharing its (treatment, secondary) values, then
    difference the imputed means by arm."""

    def fit(self, sample: CombinedSample):
        _require_binary_no_covariates(sample)
        n_e, n_o, sum_y = _cell_stats(sample)
        arm_means = []
        for w in (0, 1):
            total = 0.0
            arm_n = n_e[(w, 0.0)] + n_e[(w, 1.0)]
            for s in (0.0, 1.0):
                if n_e[(w, s)] == 0:
                    continue
                if n_o[(w, s)] == 0:
                    raise PositivityError(
                        f"no observational units in cell (treatment={w}, secondary={s:g}) "
                        "required for imputation"
                    )
                total += n_e[(w, s)] * (sum_y[(w, s)] / n_o[(w, s)])
            arm_means.append(total / arm_n)
        self.tau_ = arm_means[1] - arm_means[0]
        self.warnings_: tuple[WarningRecord, ...] = ()
        return self

    @property
    def name(self) -> str:
        return "binary-imputation"


class BinaryWeighting(BaseEstimator):
    """Reweight observational units so their (treatment, secondary) frequencies
    match the experimental sample, then difference the weighted primary means."""

    def fit(self, sample: CombinedSample):
        _require_binary_no_covariates(sample)
        warnings = []
        n_e, n_o, sum_y = _cell_stats(sample)
        arm_e = {w: n_e[(w, 0.0)] + n_e[(w, 1.0)] for w in (0, 1)}
        arm_o = {w: n_o[(w, 0.0)] + n_o[(w, 1.0)] for w in (0, 1)}
        lam = {}
        for w in (0, 1):
            p_e = n_e[(w, 1.0)] / arm_e[w]
            p_o = n_o[(w, 1.0)] / arm_o[w]
            for s in (0.0, 1.0):
                num = p_e if s == 1.0 else 1.0 - p_e
                den = p_o if s == 1.0 else 1.0 - p_o
                if den == 0.0:
                    if num == 0.0:
                        lam[(w, s)] = 0.0
                        warnings.append(WarningRecord(
                            code="zero_over_zero_weight",
                            message="weight cell with no units in either group set to 0",
                            context={"treatment": w, "secondary": s},
                        ))
                    else:
                        raise EstimationError(
                            f"weight denominator zero with nonzero numerator in cell "
                            f"(treatment={w}, secondary={s:g})"
                        )
                else:
                    lam[(w, s)] = num / den
        arm_means = []
        for w in (0, 1):
            numerator = lam[(w, 0.0)] * sum_y[(w, 0.0)] + lam[(w, 1.0)] * sum_y[(w, 1.0)]
            denominator = lam[(w, 0.0)] * n_o[(w, 0.0)] + lam[(w, 1.0)] * n_o[(w, 1.0)]
            if denominator == 0.0:
                raise EstimationError(f"all weights zero in observational arm treatment={w}")
            arm_means.append(numerator / denominator)
        self.tau_ = arm_means[1] - arm_means[0]
        self.weights_ = lam
        self.warnings_ = tuple(warnings)
        return self

    @property
    def name(self) -> str:
        return "binary-weighting"

