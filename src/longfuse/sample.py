"""Domain types for the two-sample observation scheme plus CSV ingestion.

The combined sample holds an experimental group ("E": treatment and a
secondary outcome observed, primary outcome missing by design) and an
observational group ("O": treatment, secondary and primary all observed).
All estimators consume a validated, immutable :class:`CombinedSample`.
"""

import csv
import io
import math
from dataclasses import dataclass, field

import numpy as np

from .exceptions import PositivityError, ValidationError, WarningRecord
from .schema import CATEGORICAL, CONTINUOUS, SampleSchema


@dataclass(frozen=True)
class EstimateReport:
    estimator: str
    tau_hat: float
    bootstrap_se: float | None
    n_bootstrap: int
    config_fingerprint: str
    warnings: tuple[WarningRecord, ...] = ()
    details: dict = field(default_factory=dict)

    def __post_init__(self):
        if not math.isfinite(self.tau_hat):
            raise ValidationError(f"non-finite estimate for {self.estimator!r}")
        if (self.bootstrap_se is not None) != (self.n_bootstrap > 0):
            raise ValidationError("bootstrap_se must be present iff n_bootstrap > 0")

    def to_dict(self) -> dict:
        return {
            "estimator": self.estimator,
            "tau_hat": self.tau_hat,
            "bootstrap_se": self.bootstrap_se,
            "n_bootstrap": self.n_bootstrap,
            "config_fingerprint": self.config_fingerprint,
            "warnings": [w.to_dict() for w in self.warnings],
            "details": self.details,
        }


class CombinedSample:
    """Validated, column-oriented store of both groups' units.

    Arrays are locked after construction; every operation on a sample is a
    pure function of the sample plus explicit seeds, so instances are safe
    to share across threads.
    """

    def __init__(
        self,
        schema: SampleSchema,
        group_obs: np.ndarray,  # bool, True for observational units
        treatment: np.ndarray,  # int8 in {0,1}
        covariates: np.ndarray,  # float64, shape (n, k); categorical stored as codes
        secondary: np.ndarray,  # float64
        primary: np.ndarray,  # float64, NaN for experimental units
        load_warnings: tuple[WarningRecord, ...] = (),
    ):
        n = len(group_obs)
        if not (len(treatment) == len(secondary) == len(primary) == n):
            raise ValidationError("column arrays have inconsistent lengths")
        if covariates.shape != (n, schema.n_covariates):
            raise ValidationError(
                f"covariate matrix shape {covariates.shape} does not match schema "
                f"({n}, {schema.n_covariates})"
            )
        if not np.isin(treatment, (0, 1)).all():
            raise ValidationError("non-binary treatment value")
        obs = group_obs.astype(bool)
        if np.isnan(primary[obs]).any():
            raise ValidationError("primary missing in observational unit")
        if not np.isnan(primary[~obs]).all():
            raise ValidationError("experimental unit carries a primary outcome")
        if np.isnan(secondary).any():
            raise ValidationError("missing secondary outcome value")
        if np.isnan(covariates).any():
            raise ValidationError("missing covariate value")

        self._store(schema, obs, treatment.astype(np.int8),
                    np.asarray(covariates, dtype=np.float64),
                    np.asarray(secondary, dtype=np.float64),
                    np.asarray(primary, dtype=np.float64), tuple(load_warnings))

    def _store(self, schema, group_obs, treatment, covariates, secondary, primary,
               load_warnings):
        """Adopt columns of the stored dtypes that pass the value checks; count
        the strata, refuse an empty one, and lock the arrays."""
        self.schema = schema
        self.group_obs = group_obs
        self.treatment = treatment
        self.covariates = covariates
        self.secondary = secondary
        self.primary = primary
        self.load_warnings = load_warnings
        self.counts = {
            (g, w): int(np.sum((group_obs == (g == "O")) & (treatment == w)))
            for g in ("E", "O")
            for w in (0, 1)
        }
        for (g, w), c in self.counts.items():
            if c <= 0:
                raise PositivityError(f"empty cell: group {g}, treatment {w}")
        for arr in (self.group_obs, self.treatment, self.covariates, self.secondary, self.primary):
            arr.setflags(write=False)

    @property
    def n(self) -> int:
        return len(self.group_obs)

    def mask(self, group: str | None = None, treatment: int | None = None) -> np.ndarray:
        m = np.ones(self.n, dtype=bool)
        if group is not None:
            m &= self.group_obs == (group == "O")
        if treatment is not None:
            m &= self.treatment == treatment
        return m

    def take(self, indices: np.ndarray) -> "CombinedSample":
        """The sample of rows ``indices``. Rows of a valid sample pass every
        value check, so only the strata are counted again; an emptied stratum
        raises the constructor's PositivityError."""
        subset = object.__new__(CombinedSample)
        subset._store(self.schema, self.group_obs[indices], self.treatment[indices],
                      self.covariates[indices], self.secondary[indices],
                      self.primary[indices], ())
        return subset


# -- ingestion ---------------------------------------------------------------


def load_sample(source, mapping) -> CombinedSample:
    """Read a CSV stream/path into a validated CombinedSample.

    ``mapping`` is a :class:`SampleSchema` or a column->role dict. Group
    column must contain only "E"/"O"; missing primary is an empty field.
    A primary value on an experimental row is discarded with a warning.
    """
    from .schema import schema_from_mapping

    schema = mapping if isinstance(mapping, SampleSchema) else schema_from_mapping(mapping)
    if isinstance(source, (str, bytes)) or hasattr(source, "__fspath__"):
        with open(source, newline="", encoding="utf-8") as fh:
            return _load_rows(csv.reader(fh), schema)
    return _load_rows(csv.reader(source), schema)


def _load_rows(reader, schema: SampleSchema) -> CombinedSample:
    try:
        header = next(reader)
    except StopIteration:
        raise ValidationError("empty input: no header row") from None
    col = {name: i for i, name in enumerate(header)}
    required = [schema.group_column, schema.treatment_column, schema.secondary_column]
    required += list(schema.covariate_names)
    if schema.primary_column is not None:
        required.append(schema.primary_column)
    for name in required:
        if name not in col:
            raise ValidationError(f"missing required column {name!r}")

    groups, treatments, secondaries, primaries = [], [], [], []
    cov_labels = [[] for _ in schema.covariates]
    warnings: list[WarningRecord] = []
    for row_no, row in enumerate(reader, start=2):
        if not row:
            continue
        g = row[col[schema.group_column]].strip()
        if g not in ("E", "O"):
            raise ValidationError(f"row {row_no}: group must be 'E' or 'O', got {g!r}")
        w = _parse_number(row[col[schema.treatment_column]], schema.treatment_column, row_no)
        if w not in (0.0, 1.0):
            raise ValidationError(f"row {row_no}: non-binary treatment value {w!r}")
        s = _parse_number(row[col[schema.secondary_column]], schema.secondary_column, row_no)
        y = math.nan
        if schema.primary_column is not None:
            raw = row[col[schema.primary_column]].strip()
            if raw:
                y = _parse_number(raw, schema.primary_column, row_no)
        if g == "O" and math.isnan(y):
            raise ValidationError(f"row {row_no}: primary missing in observational unit")
        if g == "E" and not math.isnan(y):
            warnings.append(
                WarningRecord(
                    code="primary_discarded",
                    message="primary outcome on experimental row discarded",
                    context={"row": row_no},
                )
            )
            y = math.nan
        for j, spec in enumerate(schema.covariates):
            raw = row[col[spec.name]].strip()
            if not raw:
                raise ValidationError(f"row {row_no}: missing covariate {spec.name!r}")
            cov_labels[j].append(raw)
        groups.append(g == "O")
        treatments.append(int(w))
        secondaries.append(s)
        primaries.append(y)

    n = len(groups)
    if n == 0:
        raise ValidationError("no data rows")
    covariates = np.empty((n, schema.n_covariates), dtype=np.float64)
    levels_by_name: dict[str, tuple[str, ...]] = {}
    for j, spec in enumerate(schema.covariates):
        if spec.kind == CONTINUOUS:
            covariates[:, j] = [
                _parse_number(v, spec.name, i + 2) for i, v in enumerate(cov_labels[j])
            ]
        else:
            levels = tuple(sorted(set(cov_labels[j])))
            levels_by_name[spec.name] = levels
            index = {lab: k for k, lab in enumerate(levels)}
            covariates[:, j] = [index[v] for v in cov_labels[j]]
    schema = schema.with_levels(levels_by_name)
    return CombinedSample(
        schema,
        np.asarray(groups, dtype=bool),
        np.asarray(treatments, dtype=np.int8),
        covariates,
        np.asarray(secondaries, dtype=np.float64),
        np.asarray(primaries, dtype=np.float64),
        load_warnings=tuple(warnings),
    )


def _parse_number(raw, column, row_no) -> float:
    try:
        return float(raw)
    except (TypeError, ValueError):
        raise ValidationError(
            f"row {row_no}: unparseable numeric value {raw!r} in column {column!r}"
        ) from None


def write_sample(sample: CombinedSample, destination=None) -> str | None:
    """Write the sample as CSV; floats use repr so a reload is bit-exact."""
    schema = sample.schema
    buf = destination if destination is not None and hasattr(destination, "write") else io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    header = [schema.group_column, schema.treatment_column]
    header += list(schema.covariate_names)
    header += [schema.secondary_column, schema.primary_column or "primary"]
    writer.writerow(header)
    for i in range(sample.n):
        obs = bool(sample.group_obs[i])
        row = ["O" if obs else "E", int(sample.treatment[i])]
        for j, spec in enumerate(schema.covariates):
            v = sample.covariates[i, j]
            row.append(spec.levels[int(v)] if spec.kind == CATEGORICAL else repr(float(v)))
        row.append(repr(float(sample.secondary[i])))
        row.append(repr(float(sample.primary[i])) if obs else "")
        writer.writerow(row)
    if isinstance(buf, io.StringIO):
        if destination is None:
            return buf.getvalue()
        with open(destination, "w", newline="", encoding="utf-8") as fh:
            fh.write(buf.getvalue())
    return None


def bootstrap_resample(sample: CombinedSample, seed: int) -> CombinedSample:
    """Resample with replacement within each (group, treatment) stratum.

    Stratum sizes are preserved exactly, which keeps all four cells nonempty.
    Deterministic given the seed.
    """
    rng = np.random.default_rng(seed)
    pieces = []
    for g in ("E", "O"):
        for w in (0, 1):
            idx = np.flatnonzero(sample.mask(group=g, treatment=w))
            pieces.append(idx[rng.integers(0, len(idx), size=len(idx))])
    return sample.take(np.concatenate(pieces))
