import io

import numpy as np
import pytest

from longfuse import (
    CombinedSample,
    PositivityError,
    ValidationError,
    bootstrap_resample,
    load_sample,
    write_sample,
)
from longfuse.schema import schema_from_mapping

from conftest import binary_schema, build_binary_sample

MAPPING = {"g": "group", "w": "treatment", "x1": "continuous",
           "x2": "categorical", "s": "secondary", "y": "primary"}


def load_csv(text, mapping=None):
    return load_sample(io.StringIO(text), mapping or MAPPING)


MINIMAL = """g,w,x1,x2,s,y
E,0,0.1,a,1.5,
E,1,-0.2,b,2.5,
O,0,0.3,a,0.5,1.0
O,1,0.4,b,1.0,2.0
"""


def test_load_minimal_counts():
    sample = load_csv(MINIMAL)
    assert sample.counts == {("E", 0): 1, ("E", 1): 1, ("O", 0): 1, ("O", 1): 1}
    assert sample.schema.covariate("x2").levels == ("a", "b")


def test_load_missing_primary_in_observational():
    text = MINIMAL.replace("O,0,0.3,a,0.5,1.0", "O,0,0.3,a,0.5,")
    with pytest.raises(ValidationError, match="primary missing in observational"):
        load_csv(text)


def test_load_non_binary_treatment():
    text = MINIMAL.replace("O,1,0.4,b,1.0,2.0", "O,2,0.4,b,1.0,2.0")
    with pytest.raises(ValidationError, match="non-binary treatment"):
        load_csv(text)


def test_load_missing_required_column():
    with pytest.raises(ValidationError, match="missing required column 'y'"):
        load_csv("g,w,x1,x2,s\nE,0,0.1,a,1.5\n")


def test_load_unparseable_numeric():
    text = MINIMAL.replace("O,0,0.3,a,0.5,1.0", "O,0,zzz,a,0.5,1.0")
    with pytest.raises(ValidationError, match="unparseable numeric"):
        load_csv(text)


def test_load_bad_group_value():
    text = MINIMAL.replace("O,1,0.4,b,1.0,2.0", "X,1,0.4,b,1.0,2.0")
    with pytest.raises(ValidationError, match="group must be 'E' or 'O'"):
        load_csv(text)


def test_experimental_primary_discarded_with_warning():
    text = MINIMAL.replace("E,0,0.1,a,1.5,", "E,0,0.1,a,1.5,9.0")
    sample = load_csv(text)
    assert any(w.code == "primary_discarded" for w in sample.load_warnings)
    assert np.isnan(sample.primary[~sample.group_obs]).all()


def test_round_trip_is_bit_exact():
    rng = np.random.default_rng(5)
    rows = ["g,w,x1,x2,s,y"]
    for i in range(40):
        obs = i % 2 == 0
        g = "O" if obs else "E"
        w = int(rng.integers(0, 2))
        x1 = repr(float(rng.standard_normal()))
        x2 = rng.choice(["red", "green", "blue"])
        s = repr(float(rng.standard_normal()))
        y = repr(float(rng.standard_normal())) if obs else ""
        rows.append(f"{g},{w},{x1},{x2},{s},{y}")
    sample = load_csv("\n".join(rows) + "\n")
    reloaded = load_sample(io.StringIO(write_sample(sample)), MAPPING)
    assert np.array_equal(sample.group_obs, reloaded.group_obs)
    assert np.array_equal(sample.treatment, reloaded.treatment)
    assert np.array_equal(sample.covariates, reloaded.covariates)
    assert np.array_equal(sample.secondary, reloaded.secondary)
    assert np.array_equal(sample.primary, reloaded.primary, equal_nan=True)
    assert reloaded.schema == sample.schema


def _four_units(**columns):
    """One unit per (group, treatment) stratum, E units first, with any
    column replaced."""
    base = dict(group_obs=np.array([False, False, True, True]), treatment=np.array([0, 1, 0, 1]),
                covariates=np.empty((4, 0)), secondary=np.zeros(4),
                primary=np.array([np.nan, np.nan, 0.0, 0.0]))
    return CombinedSample(binary_schema(), **{**base, **columns})


def test_unit_invariants():
    with pytest.raises(ValidationError, match="experimental unit carries a primary"):
        _four_units(primary=np.array([np.nan, 1.0, 0.0, 0.0]))
    with pytest.raises(ValidationError, match="primary missing in observational"):
        _four_units(primary=np.array([np.nan, np.nan, np.nan, 0.0]))
    with pytest.raises(ValidationError, match="non-binary treatment"):
        _four_units(treatment=np.array([0, 1, 2, 1]))


def test_covariate_length_mismatch():
    with pytest.raises(ValidationError, match="covariate"):
        _four_units(covariates=np.ones((4, 1)))


def test_empty_stratum_rejected():
    with pytest.raises(PositivityError, match="group E, treatment 1"):
        build_binary_sample(
            observational=[(0, 0, 0), (1, 0, 0)],
            experimental=[(0, 0), (0, 1)],
        )


def _sized_sample(sizes):
    observational = []
    experimental = []
    counter = 0
    for (g, w), n in sizes.items():
        for _ in range(n):
            counter += 1
            s = counter % 2
            if g == "O":
                observational.append((w, s, s))
            else:
                experimental.append((w, s))
    return build_binary_sample(observational, experimental)


def test_bootstrap_preserves_stratum_sizes():
    sizes = {("E", 0): 10, ("E", 1): 10, ("O", 0): 10, ("O", 1): 10}
    sample = _sized_sample(sizes)
    for seed in range(25):
        resampled = bootstrap_resample(sample, seed)
        assert resampled.counts == sample.counts


def test_bootstrap_deterministic():
    sample = _sized_sample({("E", 0): 10, ("E", 1): 10, ("O", 0): 10, ("O", 1): 10})
    a = bootstrap_resample(sample, 123)
    b = bootstrap_resample(sample, 123)
    assert np.array_equal(a.secondary, b.secondary)
    assert np.array_equal(a.primary, b.primary, equal_nan=True)


def test_bootstrap_seeds_differ():
    rng = np.random.default_rng(9)
    sample = build_binary_sample(
        observational=[(w, int(rng.integers(2)), int(rng.integers(2)))
                       for w in (0, 1) for _ in range(10)],
        experimental=[(w, int(rng.integers(2))) for w in (0, 1) for _ in range(10)],
    )
    # attach distinguishable secondary values so resamples can be compared
    collisions = 0
    for pair in range(100):
        s1, s2 = 2 * pair + 1, 2 * pair + 2
        a = bootstrap_resample(sample, s1)
        b = bootstrap_resample(sample, s2)
        if np.array_equal(a.secondary, b.secondary) and np.array_equal(
            a.primary, b.primary, equal_nan=True
        ):
            collisions += 1
    assert collisions == 0


def test_sample_arrays_immutable():
    sample = _sized_sample({("E", 0): 1, ("E", 1): 1, ("O", 0): 1, ("O", 1): 1})
    with pytest.raises(ValueError):
        sample.secondary[0] = 99.0


def test_schema_duplicate_role_rejected():
    with pytest.raises(ValidationError, match="duplicate"):
        schema_from_mapping({"a": "group", "b": "group"})


def test_take_counts_strata_refuses_an_emptied_one_and_locks_arrays():
    sample = _sized_sample({("E", 0): 3, ("E", 1): 2, ("O", 0): 2, ("O", 1): 4})
    treated_o = np.flatnonzero(sample.group_obs & (sample.treatment == 1))
    rows = np.concatenate([np.arange(sample.n)[::-1], treated_o[:2]])
    taken = sample.take(rows)
    assert taken.counts == {("E", 0): 3, ("E", 1): 2, ("O", 0): 2, ("O", 1): 6}
    for name in ("group_obs", "treatment", "covariates", "secondary", "primary"):
        arr = getattr(taken, name)
        assert not arr.flags.writeable
        assert arr.dtype == getattr(sample, name).dtype
        assert np.array_equal(arr, getattr(sample, name)[rows], equal_nan=True)
    no_treated_e = np.flatnonzero(~(~sample.group_obs & (sample.treatment == 1)))
    with pytest.raises(PositivityError, match="empty cell: group E, treatment 1"):
        sample.take(no_treated_e)
