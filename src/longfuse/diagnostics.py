"""Specification diagnostics.

* group-balance: tests the observable implication of the identifying
  assumptions that group membership is independent of the secondary outcome
  given covariates and treatment; offered as a robust-Wald regression test
  and as a within-stratum permutation test.
* secondary-gap: compares the covariate-adjusted secondary-outcome effect
  across the two samples.
* surrogacy: checks whether the treatment moves the primary outcome beyond
  what the secondary outcome accounts for.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .exceptions import EstimationError, ValidationError, WarningRecord
from .nuisance import cell_codes
from .ols import design_matrix, ols
from .sample import CombinedSample
from .schema import CATEGORICAL

REGRESSION = "regression"
PERMUTATION = "permutation"

_JOINT_FAILURE_NOTE = (
    "rejection means the joint assumption set linking the samples fails; the data "
    "cannot attribute the failure to sample comparability or to observational "
    "treatment assignment"
)


@dataclass(frozen=True)
class DiagnosticReport:
    name: str
    statistic: float
    p_value: float
    method: str
    n_permutations: int
    decision_note: str
    details: dict = field(default_factory=dict)
    warnings: tuple[WarningRecord, ...] = ()

    def __post_init__(self):
        if not 0.0 <= self.p_value <= 1.0:
            raise ValidationError(f"p-value {self.p_value} outside [0, 1]")

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "statistic": self.statistic,
            "p_value": self.p_value,
            "method": self.method,
            "n_permutations": self.n_permutations,
            "decision_note": self.decision_note,
            "details": self.details,
            "warnings": [w.to_dict() for w in self.warnings],
        }


@dataclass(frozen=True)
class SecondaryEffectComparison:
    tau_s_experimental: float
    tau_s_observational: float
    difference: float
    se: float
    z: float

    def to_dict(self) -> dict:
        return {
            "tau_s_experimental": self.tau_s_experimental,
            "tau_s_observational": self.tau_s_observational,
            "difference": self.difference,
            "se": self.se,
            "z": self.z,
        }


def chi2_survival(x: float, df: int) -> float:
    """Upper tail of the chi-square distribution for integer df."""
    if x < 0:
        return 1.0
    y = x / 2.0
    if df % 2 == 0:
        term = math.exp(-y)
        total = term
        for j in range(1, df // 2):
            term *= y / j
            total += term
        return min(1.0, total)
    total = math.erfc(math.sqrt(y))
    a = 0.5
    term = math.sqrt(y) * math.exp(-y) / (math.sqrt(math.pi) / 2.0)
    for _ in range((df - 1) // 2):
        total += term
        a += 1.0
        term *= y / a
    return min(1.0, total)


def normal_two_sided_p(z: float) -> float:
    return math.erfc(abs(z) / math.sqrt(2.0))


def _stratum_labels(sample: CombinedSample, max_cells: int) -> np.ndarray:
    """Coarsen covariates into at most max_cells cells, crossed with treatment."""
    columns = [sample.treatment.astype(np.int64)]
    continuous = [j for j, c in enumerate(sample.schema.covariates) if c.kind != CATEGORICAL]
    n_cat_cells = 1
    for j, spec in enumerate(sample.schema.covariates):
        if spec.kind == CATEGORICAL:
            codes = sample.covariates[:, j].astype(np.int64)
            columns.append(codes)
            n_cat_cells *= max(1, len(np.unique(codes)))
    if continuous:
        per = max(2, int((max_cells / max(1, n_cat_cells)) ** (1.0 / len(continuous))))
        for j in continuous:
            v = sample.covariates[:, j]
            edges = np.quantile(v, np.arange(1, per) / per)
            columns.append(np.searchsorted(np.unique(edges), v, side="right"))
    return cell_codes(np.column_stack(columns))[0]


def group_balance_test(sample: CombinedSample, method: str = REGRESSION,
                       seed: int = 0, n_permutations: int = 999,
                       max_cells: int = 50) -> DiagnosticReport:
    """Test whether the secondary outcome distribution differs by group within
    (treatment, covariate) strata."""
    if method == REGRESSION:
        return _balance_regression(sample)
    if method == PERMUTATION:
        return _balance_permutation(sample, seed, n_permutations, max_cells)
    raise ValidationError(f"unknown diagnostic method {method!r}")


def _balance_regression(sample: CombinedSample) -> DiagnosticReport:
    mask = np.ones(sample.n, dtype=bool)
    group = sample.group_obs.astype(np.float64)
    X, names = design_matrix(sample, mask, extra={
        "group": group,
        "group_x_treatment": group * sample.treatment,
    })
    fit = ols(sample.secondary, X, names)
    idx = [names.index("group"), names.index("group_x_treatment")]
    b = fit.coefficients[idx]
    V = fit.covariance[np.ix_(idx, idx)]
    stat = float(b @ np.linalg.solve(V, b))
    p = chi2_survival(stat, df=2)
    return DiagnosticReport(
        name="group-balance",
        statistic=stat,
        p_value=p,
        method=REGRESSION,
        n_permutations=0,
        decision_note=_JOINT_FAILURE_NOTE,
        details={"group_coef": float(b[0]), "group_x_treatment_coef": float(b[1])},
    )


def _balance_permutation(sample: CombinedSample, seed: int, n_permutations: int,
                         max_cells: int) -> DiagnosticReport:
    if n_permutations < 1:
        raise ValidationError("n_permutations must be positive")
    labels = _stratum_labels(sample, max_cells)
    group = sample.group_obs
    sizes = np.bincount(labels)
    n_o = np.bincount(labels[group], minlength=len(sizes))
    mixed = (n_o > 0) & (n_o < sizes)
    warnings = []
    n_dropped = int(np.sum(~mixed))
    if n_dropped:
        warnings.append(WarningRecord(
            code="single_group_strata_dropped",
            message=f"{n_dropped} strata contained a single group and were dropped",
            context={"n_dropped": n_dropped},
        ))
    if not mixed.any():
        raise EstimationError("every stratum contains a single group; permutation test impossible")
    # number the kept strata by their first unit: a content-based order keeps
    # float accumulation independent of covariate category labels
    _, first = np.unique(labels, return_index=True)
    kept = np.flatnonzero(mixed)
    kept = kept[np.argsort(first[kept])]
    stratum = np.full(len(sizes), -1)
    stratum[kept] = np.arange(len(kept))
    rows = np.flatnonzero(mixed[labels])
    lab = stratum[labels[rows]]
    s = sample.secondary[rows]
    n_o, n_e = n_o[kept], sizes[kept] - n_o[kept]
    scale = 1.0 / n_o + 1.0 / n_e
    # sorted by (stratum, u), a stratum's first n_o rows draw the observational labels
    take = np.repeat(np.cumsum(sizes[kept]) - n_e, sizes[kept])

    def statistic(flags):
        mean_o = np.bincount(lab, weights=np.where(flags, s, 0.0), minlength=len(kept)) / n_o
        mean_e = np.bincount(lab, weights=np.where(flags, 0.0, s), minlength=len(kept)) / n_e
        d = mean_o - mean_e
        return float(np.sum(d * d / scale))

    observed = statistic(group[rows])
    rng = np.random.default_rng(seed)
    hits = 0
    for _ in range(n_permutations):
        u = rng.random(sample.n)
        permuted = np.empty(len(rows), dtype=bool)
        permuted[np.lexsort((u[rows], lab))] = np.arange(len(rows)) < take
        if statistic(permuted) >= observed:
            hits += 1
    p = (1.0 + hits) / (n_permutations + 1.0)
    return DiagnosticReport(
        name="group-balance",
        statistic=float(observed),
        p_value=p,
        method=PERMUTATION,
        n_permutations=n_permutations,
        decision_note=_JOINT_FAILURE_NOTE,
        details={"n_strata": len(kept)},
        warnings=tuple(warnings),
    )


def compare_secondary_effects(sample: CombinedSample) -> SecondaryEffectComparison:
    """Covariate-adjusted secondary-outcome effect per group, with the
    independent-sample difference and its robust standard error."""
    results = {}
    for g in ("E", "O"):
        mask = sample.mask(group=g)
        X, names = design_matrix(sample, mask)
        fit = ols(sample.secondary[mask], X, names)
        results[g] = (fit.coef("treatment"), fit.se_of("treatment"))
    tau_e, se_e = results["E"]
    tau_o, se_o = results["O"]
    diff = tau_e - tau_o
    se = math.sqrt(se_e**2 + se_o**2)
    z = diff / se if se > 0 else math.inf
    return SecondaryEffectComparison(
        tau_s_experimental=tau_e,
        tau_s_observational=tau_o,
        difference=diff,
        se=se,
        z=z,
    )


def surrogacy_check(sample: CombinedSample) -> DiagnosticReport:
    """Observational regression of the primary outcome on treatment, covariates
    and the secondary outcome; a treatment coefficient away from zero means
    the treatment reaches the primary outcome through channels the secondary
    outcome does not carry."""
    mask = sample.mask(group="O")
    X, names = design_matrix(sample, mask, extra={"secondary": sample.secondary[mask]})
    fit = ols(sample.primary[mask], X, names)
    coef = fit.coef("treatment")
    se = fit.se_of("treatment")
    z = coef / se if se > 0 else math.inf
    p = normal_two_sided_p(z)
    if p < 0.05:
        note = ("treatment moves the primary outcome beyond the secondary-outcome "
                "channel; the secondary outcome is not a valid surrogate on its own")
    else:
        note = "no evidence of a treatment channel bypassing the secondary outcome"
    return DiagnosticReport(
        name="surrogacy",
        statistic=coef,
        p_value=p,
        method=REGRESSION,
        n_permutations=0,
        decision_note=note,
        details={"se": se, "z": z},
    )
