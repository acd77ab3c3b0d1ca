import numpy as np
import pytest

from longfuse import CombinedSample, SimConfig, simulate_linear
from longfuse.schema import SampleSchema


def binary_schema() -> SampleSchema:
    return SampleSchema(
        group_column="g",
        treatment_column="w",
        secondary_column="s",
        primary_column="y",
        covariates=(),
        secondary_discrete=True,
    )


def build_binary_sample(observational, experimental) -> CombinedSample:
    """observational: iterable of (w, s, y); experimental: iterable of (w, s)."""
    rows = [(1.0, w, s, y) for w, s, y in observational]
    rows += [(0.0, w, s, np.nan) for w, s in experimental]
    g, w, s, y = np.array(rows, dtype=np.float64).T
    return CombinedSample(binary_schema(), g == 1.0, w, np.empty((len(rows), 0)), s, y)


def linear_sample(covariate_types, n=300, shift=0.2, seed=41) -> CombinedSample:
    """A confounded linear draw with ``n`` units per group; each covariate's
    observational mean is shifted by ``shift``."""
    cfg = SimConfig(n_experimental=n, n_observational=n, tau_p=0.3, tau_s=0.5, delta=0.8,
                    confounding=1.0, covariate_types=tuple(covariate_types),
                    group_shift=(shift,) * len(covariate_types), noise_primary=0.5, seed=seed)
    return simulate_linear(cfg)[0]


@pytest.fixture
def hand_fixture() -> CombinedSample:
    """Four observational units where primary equals secondary, and four
    experimental units whose treated arm has an even secondary split."""
    return build_binary_sample(
        observational=[(1, 1, 1), (1, 0, 0), (0, 1, 1), (0, 0, 0)],
        experimental=[(1, 1), (1, 0), (0, 0), (0, 0)],
    )


def random_binary_sample(rng: np.random.Generator, max_cell: int = 50) -> CombinedSample:
    """Random valid binary sample: every observational (treatment, secondary)
    cell is nonempty so imputation preconditions always hold."""
    observational = []
    for w in (0, 1):
        for s in (0, 1):
            n = int(rng.integers(1, max_cell + 1))
            p = rng.random()
            for y in rng.binomial(1, p, size=n):
                observational.append((w, s, int(y)))
    experimental = []
    for w in (0, 1):
        n = int(rng.integers(1, max_cell + 1))
        p = rng.random()
        for s in rng.binomial(1, p, size=n):
            experimental.append((w, int(s)))
    return build_binary_sample(observational, experimental)
