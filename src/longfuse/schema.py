"""Column schema for combined samples.

A schema maps CSV columns to roles and types. It is declared in a small
JSON config file of ``column name -> role`` pairs::

    {
      "g": "group",
      "w": "treatment",
      "score3": "secondary",
      "score8": "primary",
      "lunch": "categorical",
      "income": "continuous"
    }

Roles: ``group``, ``treatment``, ``secondary`` (alias ``secondary:continuous``),
``secondary:discrete``, ``primary``, ``categorical``, ``continuous``.
Categorical levels are discovered at load time and interned to integer codes
in sorted label order, so codes are stable under row reordering.
"""

import json
from dataclasses import dataclass, replace

from .exceptions import ValidationError

CATEGORICAL = "categorical"
CONTINUOUS = "continuous"

_ROLES = {
    "group",
    "treatment",
    "primary",
    "secondary",
    "secondary:continuous",
    "secondary:discrete",
    CATEGORICAL,
    CONTINUOUS,
}


@dataclass(frozen=True)
class CovariateSpec:
    name: str
    kind: str  # "categorical" | "continuous"
    levels: tuple[str, ...] = ()  # label -> code by position; empty for continuous

    def __post_init__(self):
        if self.kind not in (CATEGORICAL, CONTINUOUS):
            raise ValidationError(f"covariate {self.name!r}: unknown kind {self.kind!r}")


@dataclass(frozen=True)
class SampleSchema:
    group_column: str
    treatment_column: str
    secondary_column: str
    primary_column: str | None
    covariates: tuple[CovariateSpec, ...] = ()
    secondary_discrete: bool = False

    @property
    def covariate_names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.covariates)

    @property
    def n_covariates(self) -> int:
        return len(self.covariates)

    def covariate(self, name: str) -> CovariateSpec:
        for c in self.covariates:
            if c.name == name:
                return c
        raise ValidationError(f"unknown covariate column {name!r}")

    def with_levels(self, levels_by_name: dict[str, tuple[str, ...]]) -> "SampleSchema":
        covs = tuple(
            replace(c, levels=levels_by_name.get(c.name, c.levels)) for c in self.covariates
        )
        return replace(self, covariates=covs)

    def all_covariates_categorical(self) -> bool:
        return all(c.kind == CATEGORICAL for c in self.covariates)


def schema_from_mapping(mapping: dict[str, str]) -> SampleSchema:
    """Build a schema from a column->role mapping (the config file contents)."""
    group = treatment = secondary = primary = None
    secondary_discrete = False
    covariates = []
    for column, role in mapping.items():
        role = role.strip().lower()
        if role not in _ROLES:
            raise ValidationError(f"column {column!r}: unknown role {role!r}")
        if role == "group":
            group = _single(group, column, "group")
        elif role == "treatment":
            treatment = _single(treatment, column, "treatment")
        elif role == "primary":
            primary = _single(primary, column, "primary")
        elif role.startswith("secondary"):
            secondary = _single(secondary, column, "secondary")
            secondary_discrete = role == "secondary:discrete"
        else:
            covariates.append(CovariateSpec(name=column, kind=role))
    if group is None:
        raise ValidationError("schema missing a 'group' column")
    if treatment is None:
        raise ValidationError("schema missing a 'treatment' column")
    if secondary is None:
        raise ValidationError("schema missing a 'secondary' column")
    return SampleSchema(
        group_column=group,
        treatment_column=treatment,
        secondary_column=secondary,
        primary_column=primary,
        covariates=tuple(covariates),
        secondary_discrete=secondary_discrete,
    )


def load_schema(path) -> SampleSchema:
    with open(path, encoding="utf-8") as fh:
        try:
            mapping = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"schema file {path}: invalid JSON ({exc})") from None
    if not isinstance(mapping, dict) or not all(
        isinstance(k, str) and isinstance(v, str) for k, v in mapping.items()
    ):
        raise ValidationError(f"schema file {path}: expected an object of column -> role strings")
    return schema_from_mapping(mapping)


def _single(current, column, role):
    if current is not None:
        raise ValidationError(f"duplicate {role!r} role: {current!r} and {column!r}")
    return column
