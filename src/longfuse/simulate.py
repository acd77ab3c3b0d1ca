"""Data-generating processes with analytically known ground truth.

These are the verification oracles for the estimators: a linear DGP whose
confounding runs through a latent component shared by both outcomes, and
random discrete tables satisfying the identifying assumptions by explicit
factorization.
"""

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .exceptions import ValidationError
from .oracle import DiscreteDgpTable, potential_outcome_truth
from .sample import CombinedSample
from .schema import CATEGORICAL, CONTINUOUS, CovariateSpec, SampleSchema

RANDOMIZED = "randomized"
UNCONFOUNDED = "unconfounded"


@dataclass(frozen=True)
class SimConfig:
    """Linear DGP parameters.

    The latent component is standard Gaussian; it enters the secondary
    outcome with loading 1 and the primary outcome with loading ``delta``.
    Observational treatment assignment is logistic in the latent component
    with strength ``confounding``, so the experimental sample stays
    randomized while the observational sample is confounded exactly through
    the channel the estimators are built to remove. ``group_shift`` moves
    the observational covariate means relative to the experimental ones.
    """

    n_experimental: int
    n_observational: int
    tau_p: float
    tau_s: float
    delta: float
    confounding: float = 0.0
    covariate_types: tuple[str, ...] = ()
    group_shift: tuple[float, ...] = ()
    gamma_s: tuple[float, ...] | None = None
    gamma_p: tuple[float, ...] | None = None
    noise_primary: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.n_experimental < 4 or self.n_observational < 4:
            raise ValidationError("both group sizes must be at least 4")
        if self.noise_primary <= 0:
            raise ValidationError("noise scales must be positive")
        k = len(self.covariate_types)
        for t in self.covariate_types:
            if t not in (CATEGORICAL, CONTINUOUS):
                raise ValidationError(f"unknown covariate type {t!r}")
        for name in ("group_shift", "gamma_s", "gamma_p"):
            v = getattr(self, name)
            if v is not None and len(v) not in (0, k):
                raise ValidationError(f"{name} length {len(v)} != covariate count {k}")

    @property
    def n_covariates(self) -> int:
        return len(self.covariate_types)

    def resolved_gamma(self, which: str) -> np.ndarray:
        v = getattr(self, which)
        if v is not None and len(v):
            return np.asarray(v, dtype=np.float64)
        base = 0.5 if which == "gamma_s" else 0.25
        return np.full(self.n_covariates, base)

    def resolved_shift(self) -> np.ndarray:
        if len(self.group_shift):
            return np.asarray(self.group_shift, dtype=np.float64)
        return np.zeros(self.n_covariates)

    def to_dict(self) -> dict:
        return {
            "n_experimental": self.n_experimental,
            "n_observational": self.n_observational,
            "tau_p": self.tau_p,
            "tau_s": self.tau_s,
            "delta": self.delta,
            "confounding": self.confounding,
            "covariate_types": list(self.covariate_types),
            "group_shift": list(self.group_shift),
            "gamma_s": None if self.gamma_s is None else list(self.gamma_s),
            "gamma_p": None if self.gamma_p is None else list(self.gamma_p),
            "noise_primary": self.noise_primary,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "SimConfig":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(d) - known
        if unknown:
            raise ValidationError(f"unknown simulation config keys: {sorted(unknown)}")
        d = dict(d)
        for key in ("covariate_types", "group_shift", "gamma_s", "gamma_p"):
            if key in d and d[key] is not None:
                d[key] = tuple(d[key])
        return cls(**d)


@dataclass(frozen=True)
class SimTruth:
    tau_p: float
    tau_s: float
    naive_bias_p: float
    naive_bias_s: float


@functools.lru_cache(maxsize=32)
def latent_selection_gap(confounding: float, intervals: int = 800_000) -> float:
    """E[latent | treated] - E[latent | control] in the observational sample,
    under logistic assignment in a standard Gaussian latent; dense trapezoid
    integration over the latent distribution.

    Memoized: it depends only on its arguments, and every draw of a Monte
    Carlo run shares one ``confounding``."""
    if confounding == 0.0:
        return 0.0
    a = np.linspace(-12.0, 12.0, intervals + 1)
    phi = np.exp(-0.5 * a * a) / math.sqrt(2.0 * math.pi)
    sel = 0.5 * (1.0 + np.tanh(0.5 * confounding * a))  # overflow-safe sigmoid
    moment = float(np.trapezoid(a * sel * phi, a))
    # P(treated) = 1/2 by symmetry, so each arm mean is +-2 * moment
    return 4.0 * moment


def true_tau(obj) -> SimTruth:
    """Exact truth: analytic for a linear config, enumerated for a table."""
    if isinstance(obj, SimConfig):
        gap = latent_selection_gap(obj.confounding)
        return SimTruth(
            tau_p=obj.tau_p,
            tau_s=obj.tau_s,
            naive_bias_p=obj.delta * gap,
            naive_bias_s=gap,
        )
    if isinstance(obj, DiscreteDgpTable):
        return _table_truth(obj)
    raise ValidationError(f"cannot compute truth for {type(obj).__name__}")


def _table_truth(dgp: DiscreteDgpTable) -> SimTruth:
    tau_p = potential_outcome_truth(dgp, group=1)
    pot = dgp.potential_counts[1].astype(np.float64)
    mass_xu = pot.sum(axis=(2, 3))
    sv = np.asarray(dgp.secondary_values, dtype=np.float64)
    tau_s = float((mass_xu * (sv[1] - sv[0])[None, :]).sum() / mass_xu.sum())

    obs = dgp.observed_probs(1)  # (w, x, u, p)
    yp = np.asarray(dgp.primary_values, dtype=np.float64)
    naive_p = naive_s = 0.0
    for w in (0, 1):
        mass = obs[w].sum()
        mean_p = float((obs[w] * yp[None, None, :]).sum() / mass)
        mean_s = float((obs[w].sum(axis=2) * sv[w][None, :]).sum() / mass)
        naive_p += mean_p if w == 1 else -mean_p
        naive_s += mean_s if w == 1 else -mean_s
    return SimTruth(tau_p=tau_p, tau_s=tau_s,
                    naive_bias_p=naive_p - tau_p, naive_bias_s=naive_s - tau_s)


def simulate_linear(config: SimConfig) -> tuple[CombinedSample, SimTruth]:
    """Draw a combined sample from the linear DGP. Deterministic given config."""
    rng = np.random.default_rng(config.seed)
    k = config.n_covariates
    gamma_s = config.resolved_gamma("gamma_s")
    gamma_p = config.resolved_gamma("gamma_p")
    shift = config.resolved_shift()

    def draw_covariates(n, shifted):
        X = np.empty((n, k))
        for j, t in enumerate(config.covariate_types):
            mu = shift[j] if shifted else 0.0
            if t == CONTINUOUS:
                X[:, j] = rng.normal(mu, 1.0, size=n)
            else:
                p = min(max(0.5 + mu, 0.05), 0.95)
                X[:, j] = rng.binomial(1, p, size=n).astype(np.float64)
        return X

    n_e, n_o = config.n_experimental, config.n_observational
    X_e = draw_covariates(n_e, shifted=False)
    alpha_e = rng.standard_normal(n_e)
    w_e = rng.binomial(1, 0.5, size=n_e).astype(np.int8)

    X_o = draw_covariates(n_o, shifted=True)
    alpha_o = rng.standard_normal(n_o)
    p_treat = 0.5 * (1.0 + np.tanh(0.5 * config.confounding * alpha_o))
    w_o = (rng.random(n_o) < p_treat).astype(np.int8)
    eps_o = rng.normal(0.0, config.noise_primary, size=n_o)

    s_e = config.tau_s * w_e + X_e @ gamma_s + alpha_e
    s_o = config.tau_s * w_o + X_o @ gamma_s + alpha_o
    y_o = config.tau_p * w_o + X_o @ gamma_p + config.delta * alpha_o + eps_o

    covariates = tuple(
        CovariateSpec(name=f"x{j + 1}", kind=t,
                      levels=("0", "1") if t == CATEGORICAL else ())
        for j, t in enumerate(config.covariate_types)
    )
    schema = SampleSchema(
        group_column="g", treatment_column="w", secondary_column="s",
        primary_column="y", covariates=covariates,
    )
    sample = CombinedSample(
        schema,
        np.concatenate([np.zeros(n_e, dtype=bool), np.ones(n_o, dtype=bool)]),
        np.concatenate([w_e, w_o]),
        np.vstack([X_e, X_o]),
        np.concatenate([s_e, s_o]),
        np.concatenate([np.full(n_e, np.nan), y_o]),
    )
    return sample, true_tau(config)


def simulate_discrete(
    seed: int,
    n_x: int = 2,
    n_secondary: int = 2,
    n_primary: int = 2,
    *,
    covariate_shift: bool = False,
    experimental_design: str = RANDOMIZED,
    deterministic_surrogate: bool = False,
    degenerate_latent: bool = False,
) -> DiscreteDgpTable:
    """Random discrete DGP satisfying the identifying assumptions by factorization.

    The latent index is shared across groups given the covariate (conditional
    external validity); experimental assignment ignores it (internal
    validity); both potential primary outcomes depend only on (latent,
    covariate) plus independent noise while observational assignment depends
    on the latent (latent unconfoundedness). All cell probabilities are small
    rationals so the implied finite population is exact.
    """
    for name, size in (("n_x", n_x), ("n_secondary", n_secondary), ("n_primary", n_primary)):
        if not 2 <= size <= 4:
            raise ValidationError(f"{name} must be between 2 and 4, got {size}")
    if experimental_design not in (RANDOMIZED, UNCONFOUNDED):
        raise ValidationError(f"unknown experimental design {experimental_design!r}")
    rng = np.random.default_rng(seed)
    n_u = 1 if degenerate_latent else n_secondary

    grid = np.arange(0, 41, dtype=np.float64) / 4.0
    sv = np.empty((2, n_u))
    for w in (0, 1):
        sv[w] = np.sort(rng.choice(grid, size=n_u, replace=False))
    if deterministic_surrogate:
        yp = np.unique(sv)
        den_p = 4
        m = np.zeros((2, n_x, n_u, len(yp)), dtype=np.int64)
        for w in (0, 1):
            for u in range(n_u):
                m[w, :, u, int(np.searchsorted(yp, sv[w, u]))] = den_p
    else:
        yp = np.sort(rng.choice(grid, size=n_primary, replace=False))
        den_p = 4
        m = rng.multinomial(den_p, np.full(n_primary, 1.0 / n_primary),
                            size=(2, n_x, n_u)).astype(np.int64)

    b_e = rng.integers(1, 4, size=n_x)
    b_o = rng.integers(1, 4, size=n_x) if covariate_shift else b_e.copy()
    latent_weight = rng.integers(1, 4, size=(n_x, n_u))
    den_w = 4
    if experimental_design == UNCONFOUNDED:
        w1_e = rng.integers(1, den_w, size=n_x)
        wgt_e1 = np.broadcast_to(w1_e[:, None], (n_x, n_u))
    else:
        wgt_e1 = np.full((n_x, n_u), int(rng.integers(1, den_w)))
    if degenerate_latent:
        # a single latent value cannot confound; make observational assignment
        # fully independent so the naive contrast is unbiased
        wgt_o1 = np.full((n_x, n_u), int(rng.integers(1, den_w)))
    else:
        wgt_o1 = rng.integers(1, den_w, size=(n_x, n_u))

    n_yp = m.shape[3]
    observed = np.zeros((2, 2, n_x, n_u, n_yp), dtype=np.int64)
    potential = np.zeros((2, n_x, n_u, n_yp, n_yp), dtype=np.int64)
    for g, b in ((0, b_e), (1, b_o)):
        w1 = wgt_e1 if g == 0 else wgt_o1
        for x in range(n_x):
            for u in range(n_u):
                base = int(b[x] * latent_weight[x, u])
                for w in (0, 1):
                    arm = int(w1[x, u]) if w == 1 else den_w - int(w1[x, u])
                    observed[g, w, x, u] = base * arm * m[w, x, u]
                potential[g, x, u] = base * np.outer(m[0, x, u], m[1, x, u])
    return DiscreteDgpTable(
        secondary_values=sv,
        primary_values=yp,
        observed_counts=observed,
        potential_counts=potential,
        assumptions_certified=True,
    )


def replicate_seeds(base_seed: int, n: int) -> list[int]:
    """Independent per-replicate seeds via a splittable spawning scheme, so
    parallel Monte Carlo is reproducible regardless of scheduling."""
    children = np.random.SeedSequence(base_seed).spawn(n)
    return [int(c.generate_state(1, dtype=np.uint64)[0]) for c in children]
