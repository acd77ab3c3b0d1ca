import warnings

import numpy as np
import pytest

from longfuse import (
    CombinedSample,
    EstimationError,
    PositivityError,
    SimConfig,
    ValidationError,
    fit_density_ratio,
    fit_primary_outcome_model,
    fit_propensity,
    fit_secondary_rank,
    fit_selection_odds,
    simulate_discrete,
    simulate_linear,
)
from longfuse.nuisance import (
    CellTable,
    FrequencyMean,
    KnnMean,
    _neighbour_blocks,
    cell_codes,
    default_knn_k,
)
from longfuse.schema import CovariateSpec, SampleSchema

from conftest import build_binary_sample, linear_sample


def discrete_sample(rows):
    """rows: (group, w, x, s, y_or_None) with one categorical covariate."""
    schema = SampleSchema(
        "g", "w", "s", "y",
        covariates=(CovariateSpec("x", "categorical", levels=("0", "1", "2")),),
        secondary_discrete=True,
    )
    g = np.array([r[0] == "O" for r in rows])
    w = np.array([r[1] for r in rows], dtype=np.int8)
    x = np.array([[float(r[2])] for r in rows])
    s = np.array([float(r[3]) for r in rows])
    y = np.array([np.nan if r[4] is None else float(r[4]) for r in rows])
    return CombinedSample(schema, g, w, x, s, y)


# -- low-level predictors --


def test_frequency_mean_exact_and_empty_cell():
    F = np.array([[0.0], [0.0], [1.0]])
    y = np.array([1.0, 3.0, 10.0])
    model = FrequencyMean(F, y)
    assert np.array_equal(model.predict(np.array([[0.0], [1.0]])), [2.0, 10.0])
    with pytest.raises(PositivityError, match="empty cell"):
        model.predict(np.array([[2.0]]))


def test_knn_sorted_window_matches_brute_force():
    rng = np.random.default_rng(3)
    x = rng.standard_normal(400)
    y = rng.standard_normal(400)
    queries = rng.standard_normal(150)
    for k in (1, 3, 17, 100):
        fast = KnnMean(x[:, None], y, k=k).predict(queries[:, None])
        # brute force oracle
        xs = (x - x.mean()) / x.std()
        qs = (queries - x.mean()) / x.std()
        slow = np.empty(len(queries))
        for i, q in enumerate(qs):
            idx = np.argsort(np.abs(xs - q), kind="stable")[:k]
            slow[i] = y[idx].mean()
        # distance ties can legitimately pick different neighbors; compare
        # via the achieved neighborhoods' means
        assert np.allclose(fast, slow, atol=1e-12)


def test_knn_k_equals_n_gives_global_mean():
    rng = np.random.default_rng(4)
    Z = rng.standard_normal((50, 2))
    y = rng.standard_normal(50)
    model = KnnMean(Z, y, k=50)
    pred = model.predict(rng.standard_normal((7, 2)))
    assert np.allclose(pred, y.mean(), atol=1e-12)


def test_knn_k_exceeds_n():
    with pytest.raises(EstimationError, match="exceeds arm size"):
        KnnMean(np.zeros((5, 1)), np.zeros(5), k=6)


def test_default_k_grows_sublinearly():
    assert default_knn_k(500) == int(np.ceil(500**0.8))
    assert default_knn_k(1) == 1


# -- primary outcome model --


def test_primary_outcome_model_frequency_exact():
    rows = [
        ("O", 1, 0, 1.0, 2.0), ("O", 1, 0, 1.0, 4.0),
        ("O", 1, 1, 0.0, 7.0), ("O", 0, 0, 1.0, 1.0),
        ("O", 0, 1, 0.0, 5.0), ("O", 0, 1, 0.0, 7.0),
        ("E", 1, 0, 1.0, None), ("E", 0, 1, 0.0, None),
    ]
    sample = discrete_sample(rows)
    fit = fit_primary_outcome_model(sample, method="frequency")
    pred = fit.evaluate(np.array([1, 0]), np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.array_equal(pred, [3.0, 6.0])


def test_primary_outcome_model_double_use_consistency():
    rows = [
        ("O", 1, 0, 1.0, 2.0), ("O", 1, 0, 1.0, 4.0), ("O", 1, 1, 0.0, 7.0),
        ("O", 0, 0, 1.0, 1.0), ("O", 0, 1, 0.0, 5.0),
        ("E", 1, 0, 1.0, None), ("E", 0, 1, 0.0, None),
    ]
    sample = discrete_sample(rows)
    fit = fit_primary_outcome_model(sample)
    mask = sample.mask(group="O")
    pred = fit.evaluate(sample.treatment[mask],
                        np.column_stack([sample.covariates[mask], sample.secondary[mask]]))
    assert pred[0] == pred[1] == 3.0  # exact cell mean reproduced
    assert pred[2] == 7.0


def test_primary_outcome_model_knn_all_neighbors_is_arm_mean():
    cfg = SimConfig(n_experimental=40, n_observational=60, tau_p=0.2, tau_s=0.5,
                    delta=0.8, covariate_types=("continuous",), seed=13)
    sample, _ = simulate_linear(cfg)
    mask = sample.mask(group="O")
    w = sample.treatment[mask]
    arm_size = int(min((w == 0).sum(), (w == 1).sum()))
    fit = fit_primary_outcome_model(sample, method="knn", k=arm_size)
    queries_w = np.array([0, 1])
    queries_f = np.zeros((2, 2))
    pred = fit.evaluate(queries_w, queries_f)
    y = sample.primary[mask]
    # k capped at the smaller arm: the smaller arm collapses to its mean
    smaller = 0 if (w == 0).sum() <= (w == 1).sum() else 1
    assert pred[smaller] == pytest.approx(y[w == smaller].mean(), abs=1e-12)


def test_primary_outcome_model_knn_error_shrinks_with_n():
    def run(n, seed):
        cfg = SimConfig(n_experimental=8, n_observational=n, tau_p=0.2, tau_s=0.5,
                        delta=0.8, confounding=0.5, covariate_types=("continuous",),
                        noise_primary=0.5, seed=seed)
        sample, _ = simulate_linear(cfg)
        fit = fit_primary_outcome_model(sample, method="knn")
        mask = sample.mask(group="O")
        w = sample.treatment[mask][:200]
        X = sample.covariates[mask][:200]
        s = sample.secondary[mask][:200]
        pred = fit.evaluate(w, np.column_stack([X, s]))
        # conditional mean given (w, x, s): latent is pinned by (s, w, x)
        alpha = s - 0.5 * w - X[:, 0] * 0.5
        truth = 0.2 * w + 0.25 * X[:, 0] + 0.8 * alpha
        return float(np.mean((pred - truth) ** 2))

    medians = []
    for n in (500, 2000, 8000):
        medians.append(np.median([run(n, seed) for seed in range(20)]))
    assert medians[0] > medians[1] > medians[2]


# -- selection odds --


def test_selection_odds_symmetric_groups():
    rows = []
    for g in ("E", "O"):
        for x in (0, 1):
            for w in (0, 1):
                rows.append((g, w, x, 0.0, 1.0 if g == "O" else None))
    sample = discrete_sample(rows)
    fit = fit_selection_odds(sample)
    odds = fit.odds(np.array([[0.0], [1.0]]))
    assert np.array_equal(odds, [1.0, 1.0])


def test_selection_odds_frequency_arithmetic():
    rows = [("O", w, 1, 0.0, 1.0) for w in (0, 1)] * 4  # 8 observational at x=1
    rows += [("E", w, 1, 0.0, None) for w in (0, 1)]  # 2 experimental at x=1
    rows += [("O", w, 0, 0.0, 1.0) for w in (0, 1)]
    rows += [("E", w, 0, 0.0, None) for w in (0, 1)]
    sample = discrete_sample(rows)
    fit = fit_selection_odds(sample)
    assert fit.probability(np.array([[1.0]]))[0] == 0.8
    assert fit.odds(np.array([[1.0]]))[0] == pytest.approx(4.0, abs=1e-12)


def test_selection_odds_trimming_warns():
    rows = [("O", w, 0, 0.0, 1.0) for w in (0, 1)] * 500
    rows += [("E", 0, 0, 0.0, None), ("E", 1, 0, 0.0, None)]
    sample = discrete_sample(rows)
    fit = fit_selection_odds(sample, trim=0.01)
    assert fit.probability(np.array([[0.0]]))[0] == 0.99
    assert any(w.code == "probability_trimmed" for w in fit.warnings)


def test_selection_odds_common_support_violation():
    rows = [("O", w, 0, 0.0, 1.0) for w in (0, 1)]
    rows += [("E", w, 0, 0.0, None) for w in (0, 1)]
    rows += [("E", 0, 1, 0.0, None)]  # x=1 appears only in E
    sample = discrete_sample(rows)
    with pytest.raises(PositivityError, match="common-support"):
        fit_selection_odds(sample)


def test_selection_odds_trim_bounds():
    rows = [("O", w, 0, 0.0, 1.0) for w in (0, 1)]
    rows += [("E", w, 0, 0.0, None) for w in (0, 1)]
    with pytest.raises(ValidationError, match="trim"):
        fit_selection_odds(discrete_sample(rows), trim=0.7)


# -- propensity --


def test_propensity_covariate_free_equals_arm_fraction():
    sample = build_binary_sample(
        observational=[(1, 0, 0)] * 3 + [(0, 0, 0)] * 7,
        experimental=[(1, 0)] * 2 + [(0, 0)] * 2,
    )
    fit = fit_propensity(sample, group="O")
    assert fit.probability(np.empty((1, 0)))[0] == pytest.approx(0.3, abs=1e-15)


def test_propensity_randomized_near_half():
    cfg = SimConfig(n_experimental=4000, n_observational=50, tau_p=0.0, tau_s=0.0,
                    delta=0.0, confounding=0.0, covariate_types=("categorical",), seed=5)
    sample, _ = simulate_linear(cfg)
    fit = fit_propensity(sample, group="E")
    p = fit.probability(np.array([[0.0], [1.0]]))
    assert np.abs(p - 0.5).max() < 0.05


def test_propensity_degenerate_cell_clamped():
    rows = [("O", 1, 0, 0.0, 1.0)] * 5 + [("O", 0, 1, 0.0, 1.0)] * 5
    rows += [("E", w, x, 0.0, None) for w in (0, 1) for x in (0, 1)]
    sample = discrete_sample(rows)
    fit = fit_propensity(sample, group="O", trim=0.05)
    p = fit.probability(np.array([[0.0], [1.0]]))
    assert np.array_equal(p, [0.95, 0.05])
    assert any(w.code == "probability_trimmed" for w in fit.warnings)


# -- density ratio --


def test_density_ratio_identical_distributions():
    rows = []
    for g in ("E", "O"):
        for w in (0, 1):
            for s in (0.0, 1.0):
                rows.append((g, w, 0, s, 1.0 if g == "O" else None))
    sample = discrete_sample(rows)
    fit = fit_density_ratio(sample)
    mask = sample.mask(group="O")
    lam = fit.ratio(sample.treatment[mask], sample.covariates[mask], sample.secondary[mask])
    assert np.array_equal(lam, np.ones(4))


def test_density_ratio_binary_fixture(hand_fixture):
    fit = fit_density_ratio(hand_fixture)
    mask = hand_fixture.mask(group="O")
    lam = fit.ratio(hand_fixture.treatment[mask],
                    hand_fixture.covariates[mask],
                    hand_fixture.secondary[mask])
    # observational rows: (w=1,s=1), (w=1,s=0), (w=0,s=1), (w=0,s=0)
    assert lam.tolist() == [1.0, 1.0, 0.0, 2.0]
    assert any(w.code == "zero_experimental_cell" for w in fit.warnings)


def test_density_ratio_single_bin_collapses_to_treatment_ratio():
    cfg = SimConfig(n_experimental=300, n_observational=300, tau_p=0.1, tau_s=0.2,
                    delta=0.5, confounding=0.8, seed=6)
    sample, _ = simulate_linear(cfg)
    fit = fit_density_ratio(sample, method="binning", bins=1)
    mask = sample.mask(group="O")
    lam = fit.ratio(sample.treatment[mask], sample.covariates[mask],
                    sample.secondary[mask])
    n_e1 = sample.counts[("E", 1)] / (sample.counts[("E", 0)] + sample.counts[("E", 1)])
    n_o1 = sample.counts[("O", 1)] / (sample.counts[("O", 0)] + sample.counts[("O", 1)])
    w = sample.treatment[mask]
    expected = np.where(w == 1, n_e1 / n_o1, (1 - n_e1) / (1 - n_o1))
    assert np.allclose(lam, expected, atol=1e-12)


def test_density_ratio_missing_observational_cell_errors():
    rows = [("E", 1, 0, 1.0, None), ("E", 0, 0, 0.0, None)]
    rows += [("O", 1, 0, 0.0, 1.0), ("O", 0, 0, 0.0, 1.0)]
    sample = discrete_sample(rows)
    with pytest.raises(PositivityError, match="no observational counterpart"):
        fit_density_ratio(sample)


def test_density_ratio_continuous_secondary_needs_binning():
    cfg = SimConfig(n_experimental=50, n_observational=50, tau_p=0.1, tau_s=0.2,
                    delta=0.5, seed=7)
    sample, _ = simulate_linear(cfg)
    with pytest.raises(ValidationError, match="binning"):
        fit_density_ratio(sample, method="frequency")


# -- secondary rank --


def test_rank_boundaries():
    rows = [("E", 1, 0, s, None) for s in (1.0, 2.0, 3.0, 4.0)]
    rows += [("E", 0, 0, 1.0, None)]
    rows += [("O", 1, 0, 9.0, 1.0), ("O", 1, 0, 1.0, 0.0), ("O", 0, 0, 0.5, 0.0)]
    sample = discrete_sample(rows)
    fit = fit_secondary_rank(sample)
    eta = fit.evaluate(np.array([9.0, 1.0, 0.5]), np.array([1, 1, 1]),
                       np.zeros((3, 1)))
    assert eta[0] == 1.0  # above every experimental value in the cell
    assert eta[1] == 0.25  # at the cell minimum of m=4 values
    assert eta[2] == 0.0  # below the cell minimum


def test_rank_monotone_in_secondary():
    rng = np.random.default_rng(8)
    rows = [("E", w, 0, float(v), None) for w in (0, 1) for v in rng.standard_normal(30)]
    rows += [("O", w, 0, 0.0, 1.0) for w in (0, 1)]
    sample = discrete_sample(rows)
    fit = fit_secondary_rank(sample)
    grid = np.linspace(-3, 3, 50)
    eta = fit.evaluate(grid, np.ones(50, dtype=int), np.zeros((50, 1)))
    assert (np.diff(eta) >= 0).all()
    assert ((eta >= 0) & (eta <= 1)).all()


def test_rank_empty_experimental_cell_errors():
    rows = [("E", 1, 0, 1.0, None), ("E", 0, 0, 1.0, None)]
    rows += [("O", 1, 1, 1.0, 1.0), ("O", 0, 0, 1.0, 1.0)]
    sample = discrete_sample(rows)
    fit = fit_secondary_rank(sample)
    with pytest.raises(PositivityError, match="no experimental units"):
        fit.evaluate(np.array([1.0]), np.array([1]), np.array([[1.0]]))


def test_rank_uniform_under_null():
    # identical unconfounded samples: ranks of observational units should be
    # near-uniform; large experimental sample keeps CDF estimation noise small
    crit = 1.63  # 1% asymptotic Kolmogorov-Smirnov constant
    hits = 0
    n_seeds = 200
    for seed in range(n_seeds):
        cfg = SimConfig(n_experimental=20000, n_observational=1500, tau_p=0.1,
                        tau_s=0.2, delta=0.5, confounding=0.0, seed=seed)
        sample, _ = simulate_linear(cfg)
        fit = fit_secondary_rank(sample)
        mask = sample.mask(group="O")
        eta = fit.evaluate(sample.secondary[mask], sample.treatment[mask],
                           sample.covariates[mask])
        n = len(eta)
        sorted_eta = np.sort(eta)
        grid = np.arange(1, n + 1) / n
        ks = max(np.abs(sorted_eta - grid).max(), np.abs(sorted_eta - grid + 1 / n).max())
        if ks < crit / np.sqrt(n):
            hits += 1
    assert hits >= 0.95 * n_seeds


def test_rank_knn_cells_for_continuous_covariates():
    cfg = SimConfig(n_experimental=800, n_observational=400, tau_p=0.1, tau_s=0.2,
                    delta=0.5, confounding=0.0, covariate_types=("continuous",), seed=9)
    sample, _ = simulate_linear(cfg)
    fit = fit_secondary_rank(sample, method="knn", k=100)
    mask = sample.mask(group="O")
    eta = fit.evaluate(sample.secondary[mask], sample.treatment[mask],
                       sample.covariates[mask])
    assert ((eta >= 0) & (eta <= 1)).all()
    # roughly uniform: mean near 1/2
    assert abs(eta.mean() - 0.5) < 0.05


# -- cell-code kernels against a dict-loop reference --


def reference_frequency_mean(F, y, queries):
    sums, counts = {}, {}
    for row, value in zip(F, y):
        key = tuple(row)
        sums[key] = sums.get(key, 0.0) + float(value)
        counts[key] = counts.get(key, 0) + 1
    out = []
    for row in queries:
        if tuple(row) not in sums:
            raise PositivityError("empty cell")
        out.append(sums[tuple(row)] / counts[tuple(row)])
    return np.array(out)


def reference_density_ratio(sample, edges):
    """Ratios at the observational units, from per-cell integer counts."""
    s = sample.secondary
    if edges is not None:
        s = np.searchsorted(edges, s, side="right").astype(np.float64)
    cells_e, cells_o, x_e, x_o = {}, {}, {}, {}
    for i in range(sample.n):
        x = tuple(sample.covariates[i])
        key = (int(sample.treatment[i]), x, float(s[i]))
        cells, xs = (cells_o, x_o) if sample.group_obs[i] else (cells_e, x_e)
        cells[key] = cells.get(key, 0) + 1
        xs[x] = xs.get(x, 0) + 1
    table = {}
    for key, c_o in cells_o.items():
        if key[1] not in x_e:
            raise PositivityError("present only in the observational sample")
        c_e = cells_e.get(key, 0)
        table[key] = 0.0 if c_e == 0 else (c_e / x_e[key[1]]) / (c_o / x_o[key[1]])
    if any(key not in cells_o for key in cells_e):
        raise PositivityError("no observational counterpart")
    obs = np.flatnonzero(sample.group_obs)
    return np.array([table[(int(sample.treatment[i]), tuple(sample.covariates[i]), float(s[i]))]
                     for i in obs])


def reference_rank(sample, s, w, X):
    cells = {}
    for i in np.flatnonzero(~sample.group_obs):
        key = (int(sample.treatment[i]), tuple(sample.covariates[i]))
        cells.setdefault(key, []).append(sample.secondary[i])
    out = []
    for si, wi, xi in zip(s, w, X):
        if (int(wi), tuple(xi)) not in cells:
            raise PositivityError("no experimental units")
        values = np.sort(cells[(int(wi), tuple(xi))])
        out.append(np.searchsorted(values, si, side="right") / len(values))
    return np.array(out)


def reference_support_violated(sample):
    flags = {}
    for row, obs in zip(sample.covariates, sample.group_obs):
        flags[tuple(row)] = flags.get(tuple(row), False) or bool(obs)
    return not all(flags.values())


def random_discrete_sample(rng, n, levels, n_secondary, secondary_discrete=True):
    schema = SampleSchema(
        "g", "w", "s", "y",
        covariates=tuple(CovariateSpec(f"x{j}", "categorical",
                                       levels=tuple(str(v) for v in range(L)))
                         for j, L in enumerate(levels)),
        secondary_discrete=secondary_discrete,
    )
    g = np.arange(n) % 2 == 1
    w = (np.arange(n) // 2 % 2).astype(np.int8)
    X = np.column_stack([rng.integers(0, L, n) for L in levels]).astype(np.float64)
    if secondary_discrete:
        s = rng.integers(0, n_secondary, n).astype(np.float64) - 1.5
    else:
        s = np.round(rng.standard_normal(n), 1)
    y = np.where(g, rng.standard_normal(n), np.nan)
    return CombinedSample(schema, g, w, X.reshape(n, len(levels)), s, y)


def relabel(sample, rng):
    """The same table with every covariate's category codes permuted."""
    X = sample.covariates.copy()
    for j, spec in enumerate(sample.schema.covariates):
        X[:, j] = rng.permutation(len(spec.levels))[X[:, j].astype(int)]
    return CombinedSample(sample.schema, sample.group_obs, sample.treatment, X,
                          sample.secondary, sample.primary)


def outcome(fn):
    try:
        return fn()
    except PositivityError as exc:
        return str(exc)


@pytest.mark.parametrize("variant", ["plain", "shuffled", "relabelled", "sparse"])
def test_cell_kernels_match_dict_loop_reference(variant):
    rng = np.random.default_rng(["plain", "shuffled", "relabelled", "sparse"].index(variant))
    n_rows, levels = (60, (4, 3)) if variant == "sparse" else (600, (3, 2))
    for _ in range(6):
        sample = random_discrete_sample(rng, n_rows, levels, n_secondary=3)
        if variant == "shuffled":
            sample = sample.take(rng.permutation(sample.n))
        elif variant == "relabelled":
            sample = relabel(sample, rng)
        obs = sample.mask(group="O")
        w, X, s, y = (sample.treatment[obs], sample.covariates[obs],
                      sample.secondary[obs], sample.primary[obs])

        F = np.column_stack([X, s])
        expect = reference_frequency_mean(F, y, F)
        assert np.array_equal(FrequencyMean(F, y).predict(F), expect)

        expect = outcome(lambda: reference_density_ratio(sample, None))
        got = outcome(lambda: fit_density_ratio(sample).ratio(w, X, s))
        if isinstance(expect, str):
            assert isinstance(got, str) and expect in got
        else:
            assert np.array_equal(got, expect)

        expect = outcome(lambda: reference_rank(sample, s, w, X))
        got = outcome(lambda: fit_secondary_rank(sample).evaluate(s, w, X))
        if isinstance(expect, str):
            assert isinstance(got, str) and expect in got
        else:
            assert np.array_equal(got, expect)

        violated = isinstance(outcome(lambda: fit_selection_odds(sample)), str)
        assert violated == reference_support_violated(sample)


@pytest.mark.parametrize("bins", [1, 4, 20])
def test_binned_density_ratio_matches_dict_loop_reference(bins):
    rng = np.random.default_rng(bins)
    sample = random_discrete_sample(rng, 2000, (2, 2), 0, secondary_discrete=False)
    shuffled = sample.take(rng.permutation(sample.n))
    for smp in (sample, shuffled):
        fit = fit_density_ratio(smp, method="binning", bins=bins)
        edges = np.unique(np.quantile(smp.secondary, np.arange(1, bins) / bins))
        obs = smp.mask(group="O")
        got = outcome(lambda: fit.ratio(smp.treatment[obs], smp.covariates[obs],
                                        smp.secondary[obs]))
        assert np.array_equal(got, reference_density_ratio(smp, edges))


def test_cell_codes_redensify_past_int64_level_product():
    rng = np.random.default_rng(11)
    levels = (300,) * 8  # 300**8 > 2**63
    assert np.prod(np.array(levels, dtype=float)) > 2.0**63
    rows = np.column_stack([rng.integers(0, L, 3000) for L in levels]).astype(np.float64)
    rows[1500:] = rows[:1500]  # every row occurs at least twice
    codes, n_cells = cell_codes(rows)
    _, expect = np.unique(rows, axis=0, return_inverse=True)
    assert n_cells == 1500
    assert np.array_equal(codes, expect.ravel())
    table = CellTable(rows)
    assert np.array_equal(table.lookup(rows[::-1]), codes[::-1])
    unseen = rows[:2].copy()
    unseen[0, 3] = 999.0  # unseen level
    unseen[1, 0] = rows[2, 0] if rows[2, 0] != rows[1, 0] else rows[3, 0]  # unseen combination
    assert (table.lookup(unseen) == -1).all()
    y = rng.standard_normal(len(rows))
    assert np.array_equal(FrequencyMean(rows, y).predict(rows),
                          reference_frequency_mean(rows, y, rows))


def _cell_table_inputs(case):
    rng = np.random.default_rng(17)
    n = 2000
    small = np.column_stack([rng.integers(0, 2, n), rng.integers(0, 5, n),
                             rng.integers(0, 50, n)]).astype(np.float64)
    return {
        "random": small,
        "shuffled": small[rng.permutation(n)],
        # few distinct levels spread up to the presence map's bound
        "sparse": rng.choice([0.0, 7.0, 1999.0, 4.0 * n], size=(n, 2)),
        "above-bound": rng.choice([0.0, 3.0, 4.0 * n + 1, 1e12], size=(n, 2)),
        "non-integer": rng.choice([0.0, 1.0, 2.25, 3.5], size=(n, 2)),
        "negative": rng.choice([-3.0, 0.0, 2.0], size=(n, 2)),
        "signed-zero": np.column_stack([rng.choice([-0.0, 0.0, 1.0], n), small[:, 1]]),
        "no-columns": np.empty((n, 0)),
    }[case]


@pytest.mark.parametrize("case", ["random", "shuffled", "sparse", "above-bound",
                                  "non-integer", "negative", "signed-zero", "no-columns"])
def test_cell_table_bincount_path_matches_unique(case, monkeypatch):
    import longfuse.nuisance as nuisance

    rows = _cell_table_inputs(case)
    queries = np.concatenate([rows[::-1], rows[:50] + 0.5, rows[:50] * 3.0 + 1.0])
    if case in ("random", "shuffled", "sparse"):
        def no_sort(*args, **kwargs):
            raise AssertionError("small non-negative integers went through np.unique")

        monkeypatch.setattr(np, "unique", no_sort)
    fast = CellTable(rows)
    monkeypatch.undo()
    monkeypatch.setattr(nuisance, "_DENSE_SPAN", -1)  # every column through np.unique
    reference = CellTable(rows)
    assert fast.n_cells == reference.n_cells
    assert np.array_equal(fast.codes, reference.codes)
    looked_up = fast.lookup(queries)
    assert np.array_equal(looked_up, reference.lookup(queries))
    assert np.array_equal(looked_up[:len(rows)], fast.codes[::-1])
    assert (looked_up == -1).any() == (rows.shape[1] > 0)


def _positivity_cases():
    def fixture(extra):
        rows = [(g, w, x, s, 1.0 if g == "O" else None)
                for g in ("E", "O") for w in (0, 1) for x in (0, 1) for s in (0.0, 1.0)]
        return discrete_sample(rows + extra)

    only_o = fixture([("O", 1, 2, 0.0, 1.0)])
    only_e_cell = fixture([("E", 1, 1, 2.0, None)])
    only_e_x = fixture([("E", 1, 2, 0.0, None)])
    full = fixture([])
    return [
        ("present only in the observational sample", lambda: fit_density_ratio(only_o)),
        ("no observational counterpart", lambda: fit_density_ratio(only_e_cell)),
        ("zero frequency", lambda: fit_density_ratio(full).ratio(
            np.array([1]), np.array([[1.0]]), np.array([3.0]))),
        ("common-support", lambda: fit_selection_odds(only_e_x)),
        ("empty cell", lambda: FrequencyMean(np.array([[1.0, 0.5]]), np.ones(1)).predict(
            np.array([[1.0, 1.5]]))),
        ("no experimental units", lambda: fit_secondary_rank(full).evaluate(
            np.array([0.0]), np.array([1]), np.array([[2.0]]))),
    ]


@pytest.mark.parametrize("phrase,call", _positivity_cases(),
                         ids=[c[0] for c in _positivity_cases()])
def test_positivity_messages_print_plain_numbers(phrase, call):
    with pytest.raises(PositivityError, match=phrase) as info:
        call()
    assert "np." not in str(info.value)


def test_density_ratio_zero_cells_one_aggregate_warning(hand_fixture):
    fit = fit_density_ratio(hand_fixture)
    zero = [w for w in fit.warnings if w.code == "zero_experimental_cell"]
    assert len(zero) == 1 and zero[0].context == {"n_cells": 1}
    rows = [(g, w, 0, s, 1.0 if g == "O" else None)
            for g in ("E", "O") for w in (0, 1) for s in (0.0, 1.0)]
    rows += [("O", w, 0, 2.0, 1.0) for w in (0, 1)]  # two cells with no experimental mass
    fit = fit_density_ratio(discrete_sample(rows))
    zero = [w for w in fit.warnings if w.code == "zero_experimental_cell"]
    assert len(zero) == 1 and zero[0].context == {"n_cells": 2}


# -- in-sample values and the shared neighbour search --


def _discrete():
    return simulate_discrete(5, n_x=3, n_secondary=3, n_primary=3).to_sample()


@pytest.mark.parametrize("method,bins", [("frequency", 20), ("binning", 1), ("binning", 20),
                                         ("binning", 50)])
def test_density_ratio_fitted_values_equal_lookup(method, bins):
    sample = _discrete() if method == "frequency" else linear_sample(
        ("categorical",), n=20_000, shift=0.0)
    fit = fit_density_ratio(sample, method=method, bins=bins)
    looked_up = fit.ratio(sample.treatment, sample.covariates, sample.secondary)
    assert np.array_equal(fit.fitted_values, looked_up)


@pytest.mark.parametrize("covariates", [None, ("continuous",), ("continuous", "continuous")],
                         ids=["frequency", "knn-d1", "knn-d2"])
def test_selection_probability_fitted_values_equal_lookup(covariates):
    if covariates is None:
        sample, method = _discrete(), "frequency"
    else:
        sample, method = linear_sample(covariates), "knn"
    fit = fit_selection_odds(sample, method=method, k=25)
    assert np.array_equal(fit.fitted_values, fit.probability(sample.covariates))


def test_neighbour_blocks_match_a_full_sort():
    rng = np.random.default_rng(12)
    Z = rng.standard_normal((2**13, 2))  # a chunk then holds 2**22 // 2**13 = 512 queries
    Q = rng.standard_normal((1040, 2))
    chunks = [(0, 512), (512, 1024), (1024, 1040)]
    found = {}
    for k in (1, 40, len(Z)):
        blocks = list(_neighbour_blocks(Q, Z, k))
        assert [(r.start, min(r.stop, len(Q))) for r, _ in blocks] == chunks
        found[k] = np.concatenate([idx for _, idx in blocks])
    # k == n: every reference row is a neighbour, in index order
    assert np.array_equal(found.pop(len(Z)), np.broadcast_to(np.arange(len(Z)), (len(Q), len(Z))))
    for i, q in enumerate(Q):
        order = np.argsort(((Z - q) ** 2).sum(axis=1))
        for k, idx in found.items():
            assert np.array_equal(np.sort(idx[i]), np.sort(order[:k]))


@pytest.mark.parametrize("k", [0, -1])
def test_rank_knn_refuses_k_below_one(k):
    sample = linear_sample(("continuous",))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match=r"knn requires k >= 1"):
            fit_secondary_rank(sample, method="knn", k=k)
