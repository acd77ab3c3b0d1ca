import numpy as np
import pytest

from longfuse import (
    LinearControlFunction,
    LinearImputation,
    SimConfig,
    ValidationError,
    latent_selection_gap,
    replicate_seeds,
    simulate_linear,
    true_tau,
)
from longfuse.inference import NaiveObservational


def test_simulation_deterministic():
    cfg = SimConfig(n_experimental=200, n_observational=200, tau_p=0.1, tau_s=0.2,
                    delta=0.5, confounding=0.7, covariate_types=("continuous",),
                    seed=31)
    a, _ = simulate_linear(cfg)
    b, _ = simulate_linear(cfg)
    assert np.array_equal(a.secondary, b.secondary)
    assert np.array_equal(a.primary, b.primary, equal_nan=True)
    assert np.array_equal(a.covariates, b.covariates)
    c, _ = simulate_linear(SimConfig(**{**cfg.to_dict(), "seed": 32}))
    assert not np.array_equal(a.secondary, c.secondary)


def test_config_validation():
    with pytest.raises(ValidationError, match="at least 4"):
        SimConfig(n_experimental=2, n_observational=10, tau_p=0, tau_s=0, delta=0)
    with pytest.raises(ValidationError, match="noise"):
        SimConfig(n_experimental=10, n_observational=10, tau_p=0, tau_s=0, delta=0,
                  noise_primary=0.0)
    with pytest.raises(ValidationError, match="group_shift"):
        SimConfig(n_experimental=10, n_observational=10, tau_p=0, tau_s=0, delta=0,
                  covariate_types=("continuous",), group_shift=(0.1, 0.2))


def test_latent_gap_against_monte_carlo_oracle():
    rng = np.random.default_rng(0)
    alpha = rng.standard_normal(2_000_000)
    for c in (0.5, 1.0, 2.0):
        w = rng.random(len(alpha)) < 1.0 / (1.0 + np.exp(-c * alpha))
        mc = alpha[w].mean() - alpha[~w].mean()
        assert abs(latent_selection_gap(c) - mc) < 0.005


def test_latent_gap_limits():
    assert latent_selection_gap(0.0) == 0.0
    # dense trapezoid integration as an independent oracle
    grid = np.linspace(-10, 10, 400_001)
    phi = np.exp(-grid**2 / 2) / np.sqrt(2 * np.pi)
    for c in (0.5, 1.0, 2.0, 8.0):
        sel = 0.5 * (1.0 + np.tanh(0.5 * c * grid))
        moment = np.trapezoid(grid * sel * phi, grid)
        assert abs(latent_selection_gap(c) - 4.0 * moment) < 1e-6
    # sign-of-latent assignment bounds the gap by twice the half-normal mean
    limit = 4.0 / np.sqrt(2 * np.pi)
    gaps = [latent_selection_gap(c) for c in (0.0, 0.5, 1.0, 2.0, 8.0)]
    assert all(np.diff(gaps) > 0)
    assert gaps[-1] < limit


def test_true_tau_linear_config():
    cfg = SimConfig(n_experimental=10, n_observational=10, tau_p=0.37, tau_s=0.2,
                    delta=0.5, confounding=1.3)
    truth = true_tau(cfg)
    assert truth.tau_p == 0.37
    assert truth.naive_bias_p == pytest.approx(0.5 * truth.naive_bias_s, abs=1e-15)


def test_no_confounding_no_shift_everything_agrees():
    taus_naive, taus_cf = [], []
    for seed in range(20):
        cfg = SimConfig(n_experimental=3000, n_observational=3000, tau_p=0.2,
                        tau_s=0.4, delta=0.7, confounding=0.0,
                        covariate_types=("continuous",), noise_primary=0.5, seed=seed)
        sample, _ = simulate_linear(cfg)
        taus_naive.append(NaiveObservational().fit(sample).tau_)
        taus_cf.append(LinearControlFunction().fit(sample).tau_)
    for values in (taus_naive, taus_cf):
        mc_se = np.std(values, ddof=1) / np.sqrt(len(values))
        assert abs(np.mean(values) - 0.2) < 3 * mc_se


def test_delta_zero_severs_the_channel():
    # confounded secondary, unconfounded primary
    naive_s_bias, naive_p_bias, cf_vs_naive = [], [], []
    for seed in range(20):
        cfg = SimConfig(n_experimental=3000, n_observational=3000, tau_p=0.2,
                        tau_s=0.4, delta=0.0, confounding=1.0, noise_primary=0.5,
                        seed=seed)
        sample, truth = simulate_linear(cfg)
        mask1 = sample.mask(group="O", treatment=1)
        mask0 = sample.mask(group="O", treatment=0)
        naive_s_bias.append(sample.secondary[mask1].mean()
                            - sample.secondary[mask0].mean() - cfg.tau_s)
        naive_p = NaiveObservational().fit(sample).tau_
        naive_p_bias.append(naive_p - cfg.tau_p)
        cf_vs_naive.append(LinearControlFunction().fit(sample).tau_ - naive_p)
    assert np.mean(naive_s_bias) > 0.5  # secondary naive estimate is badly biased
    se = np.std(naive_p_bias, ddof=1) / np.sqrt(20)
    assert abs(np.mean(naive_p_bias)) < 3 * se  # primary naive estimate is fine
    assert abs(np.mean(cf_vs_naive)) < 0.02  # control function changes nothing


def test_bias_ladder_monotone():
    analytic = []
    empirical = []
    for c in (0.0, 0.5, 1.0, 2.0):
        cfg = SimConfig(n_experimental=4000, n_observational=4000, tau_p=0.06,
                        tau_s=0.15, delta=0.64, confounding=c, noise_primary=0.5,
                        seed=0)
        truth = true_tau(cfg)
        analytic.append(truth.naive_bias_p)
        biases = []
        for seed in range(12):
            sample, _ = simulate_linear(SimConfig(**{**cfg.to_dict(), "seed": seed}))
            biases.append(NaiveObservational().fit(sample).tau_ - cfg.tau_p)
        empirical.append(np.mean(biases))
        assert truth.naive_bias_p == pytest.approx(0.64 * truth.naive_bias_s, abs=1e-15)
    assert all(np.diff(analytic) > 0)
    for a, e in zip(analytic, empirical):
        assert abs(a - e) < 0.04


def test_group_shift_exercises_selection_reweighting():
    cfg = SimConfig(n_experimental=5000, n_observational=5000, tau_p=0.1, tau_s=0.3,
                    delta=0.5, confounding=0.8, covariate_types=("continuous",),
                    group_shift=(0.8,), noise_primary=0.5, seed=2)
    sample, truth = simulate_linear(cfg)
    shift = (sample.covariates[sample.group_obs, 0].mean()
             - sample.covariates[~sample.group_obs, 0].mean())
    assert abs(shift - 0.8) < 0.1
    est = LinearImputation().fit(sample).tau_
    assert abs(est - truth.tau_p) < 0.1


def test_replicate_seeds_splittable_and_stable():
    a = replicate_seeds(7, 5)
    b = replicate_seeds(7, 5)
    assert a == b
    assert len(set(a)) == 5
    assert replicate_seeds(8, 5) != a
    # prefix stability: growing the replicate count preserves earlier seeds
    assert replicate_seeds(7, 3) == a[:3]
