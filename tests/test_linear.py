import numpy as np
import pytest

from longfuse import (
    LinearControlFunction,
    LinearImputation,
    RankError,
    SimConfig,
    fit_secondary_experimental,
    latent_selection_gap,
    residual_balance_diagnostic,
    residuals_observational,
    simulate_linear,
)
from longfuse.linear import SecondaryModelFit
from longfuse.ols import OlsFit
from longfuse.sample import CombinedSample
from longfuse.schema import CovariateSpec, SampleSchema


def sim(seed=0, **overrides):
    base = dict(
        n_experimental=2000, n_observational=2000, tau_p=0.06, tau_s=0.15,
        delta=0.64, confounding=1.0, covariate_types=("continuous",),
        noise_primary=0.5, seed=seed,
    )
    base.update(overrides)
    cfg = SimConfig(**base)
    sample, truth = simulate_linear(cfg)
    return cfg, sample, truth


def test_secondary_fit_recovers_effect_with_vanishing_noise():
    rng = np.random.default_rng(0)
    n = 500
    schema = SampleSchema("g", "w", "s", "y",
                          covariates=(CovariateSpec("x1", "continuous"),))
    w = np.concatenate([rng.integers(0, 2, n).astype(np.int8),
                        rng.integers(0, 2, n).astype(np.int8)])
    x = rng.standard_normal(2 * n)
    s = 0.15 * w + 0.7 * x + 1e-9 * rng.standard_normal(2 * n)
    sample = CombinedSample(
        schema,
        np.concatenate([np.zeros(n, bool), np.ones(n, bool)]),
        w, x[:, None], s,
        np.concatenate([np.full(n, np.nan), rng.standard_normal(n)]),
    )
    fit = fit_secondary_experimental(sample)
    assert abs(fit.tau_s_hat - 0.15) < 1e-7
    assert abs(fit.gamma_s_hat[0] - 0.7) < 1e-7


def test_constant_treatment_in_experimental_arm_is_caught():
    # a constant experimental arm violates the sample invariant before any
    # regression can run
    from longfuse import PositivityError

    n = 40
    rng = np.random.default_rng(0)
    schema = SampleSchema("g", "w", "s", "y", ())
    with pytest.raises(PositivityError, match="group E, treatment 0"):
        CombinedSample(
            schema,
            np.concatenate([np.zeros(n, bool), np.ones(n, bool)]),
            np.concatenate([np.ones(n, np.int8), rng.integers(0, 2, n).astype(np.int8)]),
            np.empty((2 * n, 0)),
            rng.standard_normal(2 * n),
            np.concatenate([np.full(n, np.nan), rng.standard_normal(n)]),
        )


def test_collinear_covariates_raise_rank_error():
    _, sample, _ = sim(seed=1)
    doubled = CombinedSample(
        SampleSchema("g", "w", "s", "y", covariates=(
            CovariateSpec("x1", "continuous"), CovariateSpec("x1_copy", "continuous"))),
        sample.group_obs, sample.treatment,
        np.column_stack([sample.covariates, sample.covariates[:, 0]]),
        sample.secondary, sample.primary)
    with pytest.raises(RankError, match="x1_copy"):
        fit_secondary_experimental(doubled)


def test_residuals_against_zero_fit_return_secondary():
    _, sample, _ = sim(seed=2)
    k = 1 + 1 + sample.schema.n_covariates
    zero = SecondaryModelFit(
        tau_s_hat=0.0, gamma_s_hat=np.zeros(sample.schema.n_covariates), intercept=0.0,
        ols_fit=OlsFit(names=("intercept", "treatment", "x1"),
                       coefficients=np.zeros(k), residuals=np.empty(0), n=0,
                       r_squared=0.0, design=np.empty((0, k))))
    resid = residuals_observational(sample, zero)
    assert np.array_equal(resid, sample.secondary[sample.group_obs])


def test_residual_of_point_on_fitted_plane_is_zero():
    _, sample, _ = sim(seed=3)
    fit = fit_secondary_experimental(sample)
    mask = sample.mask(group="O")
    from longfuse.ols import design_matrix

    X, _ = design_matrix(sample, mask)
    on_plane = X @ fit.ols_fit.coefficients
    doctored = CombinedSample(
        sample.schema, sample.group_obs, sample.treatment, sample.covariates,
        np.where(sample.group_obs, np.where(mask[sample.group_obs.nonzero()[0][0]], 0, 0), 0)
        * 0.0 + _splice(sample.secondary, mask, on_plane),
        sample.primary)
    resid = residuals_observational(doctored, fit)
    assert np.abs(resid).max() < 1e-10


def _splice(values, mask, replacement):
    out = values.copy()
    out[mask] = replacement
    return out


def test_confounded_residual_gap_matches_latent_selection():
    gaps = []
    for seed in range(10):
        _, sample, truth = sim(seed=seed, n_observational=20000)
        fit = fit_secondary_experimental(sample)
        resid = residuals_observational(sample, fit)
        bal = residual_balance_diagnostic(resid, sample.treatment[sample.mask(group="O")])
        gaps.append(bal.difference)
    expected = latent_selection_gap(1.0)
    assert abs(np.mean(gaps) - expected) < 0.02


def test_residual_balance_zero_residuals():
    bal = residual_balance_diagnostic(np.zeros(10), np.array([0, 1] * 5))
    assert (bal.mean_treated, bal.mean_control, bal.difference, bal.se) == (0, 0, 0, 0)


def test_residual_balance_unconfounded_within_three_se():
    hits = 0
    for seed in range(40):
        _, sample, _ = sim(seed=seed, confounding=0.0)
        fit = fit_secondary_experimental(sample)
        resid = residuals_observational(sample, fit)
        bal = residual_balance_diagnostic(resid, sample.treatment[sample.mask(group="O")])
        if abs(bal.difference) <= 3 * bal.se:
            hits += 1
    assert hits >= 38


def test_delta_zero_reduces_to_naive_regression():
    _, sample, _ = sim(seed=11, delta=0.0, confounding=1.0)
    cf = LinearControlFunction().fit(sample).result_
    from longfuse.ols import design_matrix, ols

    mask = sample.mask(group="O")
    X, names = design_matrix(sample, mask)
    naive = ols(sample.primary[mask], X, names)
    # residual carries no information about the primary outcome: same target
    assert abs(cf.tau_p_hat - naive.coef("treatment")) < 3 * naive.se_of("treatment")
    assert abs(cf.delta_hat) < 0.05


def test_three_way_identity():
    for seed in range(25):
        cfg, sample, _ = sim(seed=seed, covariate_types=("continuous", "categorical"),
                             group_shift=(0.4, 0.2))
        cf = LinearControlFunction().fit(sample).result_
        imp = LinearImputation().fit(sample)
        third = (imp.observational_fit_.coef("treatment")
                 + imp.delta_ * fit_secondary_experimental(sample).tau_s_hat)
        assert abs(cf.tau_p_hat - imp.tau_) < 1e-8
        assert abs(imp.tau_ - third) < 1e-8
        assert abs(cf.tau_p_hat - third) < 1e-8


def test_imputation_with_exactly_zero_secondary_loading():
    # orthogonalize the primary outcome against the secondary within the
    # observational fit so the secondary coefficient is exactly zero; the
    # imputation estimate must then equal the treatment coefficient itself
    _, sample, _ = sim(seed=23)
    imp = LinearImputation().fit(sample)
    from longfuse.ols import design_matrix, ols

    mask = sample.mask(group="O")
    X_short, names_short = design_matrix(sample, mask)
    resid_s = ols(sample.secondary[mask], X_short, names_short).residuals
    primary = sample.primary.copy()
    primary[mask] = primary[mask] - imp.delta_ * resid_s
    doctored = CombinedSample(sample.schema, sample.group_obs, sample.treatment,
                              sample.covariates, sample.secondary, primary)
    imp2 = LinearImputation().fit(doctored)
    assert abs(imp2.delta_) < 1e-10
    assert abs(imp2.tau_ - imp2.observational_fit_.coef("treatment")) < 1e-10


def test_scale_equivariance():
    _, sample, _ = sim(seed=13)
    cf = LinearControlFunction().fit(sample).result_

    def rescale(primary_scale=1.0, secondary_scale=1.0):
        return CombinedSample(
            sample.schema, sample.group_obs, sample.treatment, sample.covariates,
            sample.secondary * secondary_scale, sample.primary * primary_scale)

    scaled_p = LinearControlFunction().fit(rescale(primary_scale=3.0)).result_
    assert abs(scaled_p.tau_p_hat - 3.0 * cf.tau_p_hat) < 1e-9 * max(1, abs(cf.tau_p_hat))
    scaled_s = LinearControlFunction().fit(rescale(secondary_scale=5.0)).result_
    assert abs(scaled_s.tau_p_hat - cf.tau_p_hat) < 1e-9
    assert abs(scaled_s.delta_hat - cf.delta_hat / 5.0) < 1e-9


def test_secondary_fit_residuals_orthogonal_to_design():
    _, sample, _ = sim(seed=19, covariate_types=("continuous", "categorical"))
    fit = fit_secondary_experimental(sample)
    from longfuse.ols import design_matrix

    X, _ = design_matrix(sample, sample.mask(group="E"))
    scale = np.abs(X.T @ sample.secondary[sample.mask(group="E")]).max()
    assert np.abs(X.T @ fit.ols_fit.residuals).max() / scale < 1e-8


def test_residual_invariant_alpha_definition():
    _, sample, _ = sim(seed=17)
    cf = LinearControlFunction().fit(sample).result_
    fit = cf.secondary_fit
    mask = sample.mask(group="O")
    manual = (sample.secondary[mask]
              - sample.treatment[mask] * fit.tau_s_hat
              - sample.covariates[mask] @ fit.gamma_s_hat
              - fit.intercept)
    assert np.abs(manual - cf.residuals).max() < 1e-10


def test_consistency_and_naive_bias():
    cfg_truth = None
    biases = []
    naive_biases = []
    for seed in range(30):
        cfg, sample, truth = sim(seed=seed, n_experimental=8000, n_observational=8000)
        cfg_truth = truth
        cf = LinearControlFunction().fit(sample).result_
        biases.append(cf.tau_p_hat - cfg.tau_p)
        mask1 = sample.mask(group="O", treatment=1)
        mask0 = sample.mask(group="O", treatment=0)
        naive = sample.primary[mask1].mean() - sample.primary[mask0].mean()
        naive_biases.append(naive - cfg.tau_p)
    mc_se = np.std(biases, ddof=1) / np.sqrt(len(biases))
    assert abs(np.mean(biases)) < 3 * mc_se
    naive_se = np.std(naive_biases, ddof=1) / np.sqrt(len(naive_biases))
    assert abs(np.mean(naive_biases) - cfg_truth.naive_bias_p) < 3 * naive_se
