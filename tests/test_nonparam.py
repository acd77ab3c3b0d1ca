import numpy as np
import pytest

from longfuse import (
    BinaryImputation,
    BinaryWeighting,
    ControlFunction,
    GeneralImputation,
    GeneralWeighting,
    SimConfig,
    ValidationError,
    estimate_control_function,
    estimate_imputation,
    estimate_weighting,
    identification_oracle,
    simulate_discrete,
    simulate_linear,
)
from longfuse.inference import NaiveObservational

from conftest import linear_sample, random_binary_sample


def test_reduction_on_hand_fixture_is_exact(hand_fixture):
    assert estimate_imputation(hand_fixture) == 0.5
    assert estimate_weighting(hand_fixture) == 0.5
    assert estimate_imputation(hand_fixture) == BinaryImputation().fit(hand_fixture).tau_
    assert estimate_weighting(hand_fixture) == BinaryWeighting().fit(hand_fixture).tau_


def test_reduction_on_random_binary_samples():
    rng = np.random.default_rng(99)
    for _ in range(100):
        sample = random_binary_sample(rng, max_cell=30)
        assert abs(estimate_imputation(sample) - BinaryImputation().fit(sample).tau_) < 1e-12
        assert abs(estimate_weighting(sample) - BinaryWeighting().fit(sample).tau_) < 1e-12


def test_estimator_classes_expose_fitted_state(hand_fixture):
    imp = GeneralImputation().fit(hand_fixture)
    wgt = GeneralWeighting().fit(hand_fixture)
    assert imp.tau_ == 0.5
    assert wgt.tau_ == 0.5
    assert imp.get_params()["nuisance"] == "frequency"
    clone = wgt.clone()
    assert clone.get_params() == wgt.get_params()
    assert not hasattr(clone, "tau_")


def test_oracle_equivalence_random_tables():
    for seed in range(60):
        size = 2 + seed % 3
        dgp = simulate_discrete(seed, n_x=2 + seed % 2, n_secondary=size, n_primary=size)
        oracle = identification_oracle(dgp)
        sample = dgp.to_sample()
        assert abs(estimate_imputation(sample) - oracle.tau_identified) < 1e-10
        assert abs(estimate_weighting(sample) - oracle.tau_identified) < 1e-10
        assert abs(estimate_control_function(sample) - oracle.tau_identified) < 1e-10


def test_oracle_equivalence_with_covariate_shift():
    # the imputation and weighting routes reweight to the observational
    # covariate distribution, so they stay exact under covariate shift
    for seed in range(40):
        dgp = simulate_discrete(seed, covariate_shift=True)
        oracle = identification_oracle(dgp)
        sample = dgp.to_sample()
        assert abs(estimate_imputation(sample) - oracle.tau_identified) < 1e-10
        assert abs(estimate_weighting(sample) - oracle.tau_identified) < 1e-10


def test_weighting_propensity_adjustment_restores_exactness():
    for seed in range(20):
        dgp = simulate_discrete(seed, experimental_design="unconfounded")
        oracle = identification_oracle(dgp)
        sample = dgp.to_sample()
        adjusted = estimate_weighting(sample, experimental_design="unconfounded",
                                      trim=1e-6)
        assert abs(adjusted - oracle.tau_identified) < 1e-10


def test_weighting_unit_ratio_reduces_to_naive():
    # duplicate the observational data as the experimental sample: every
    # density ratio is exactly 1, so the estimate is the naive difference
    rng = np.random.default_rng(11)
    from conftest import build_binary_sample

    observational = [(int(w), int(s), int(y)) for w, s, y in
                     zip(rng.integers(0, 2, 60), rng.integers(0, 2, 60),
                         rng.integers(0, 2, 60))]
    for w in (0, 1):
        for s in (0, 1):
            observational.append((w, s, 1))  # guarantee every cell occupied
    experimental = [(w, s) for w, s, _ in observational]
    sample = build_binary_sample(observational, experimental)
    naive = NaiveObservational().fit(sample).tau_
    assert estimate_weighting(sample) == pytest.approx(naive, abs=1e-12)


def test_control_function_duplicated_sample_equals_naive():
    # experimental sample duplicating the observational one: every rank has an
    # exact observational match, so the control-function average reproduces
    # the naive difference exactly
    rng = np.random.default_rng(31)
    from longfuse.sample import CombinedSample
    from longfuse.schema import SampleSchema

    n = 200
    schema = SampleSchema("g", "w", "s", "y", ())
    w = rng.integers(0, 2, n).astype(np.int8)
    s = rng.standard_normal(n)
    y = 0.5 * w + 0.8 * s + rng.standard_normal(n)
    sample = CombinedSample(
        schema,
        np.concatenate([np.zeros(n, bool), np.ones(n, bool)]),
        np.concatenate([w, w]),
        np.empty((2 * n, 0)),
        np.concatenate([s, s]),
        np.concatenate([np.full(n, np.nan), y]),
    )
    naive = NaiveObservational().fit(sample).tau_
    cf = estimate_control_function(sample)
    assert cf == pytest.approx(naive, abs=1e-12)


def test_unconfounded_discrete_table_matches_naive():
    for seed in range(10):
        dgp = simulate_discrete(seed, degenerate_latent=True)
        oracle = identification_oracle(dgp)
        sample = dgp.to_sample()
        naive = NaiveObservational().fit(sample).tau_
        assert abs(naive - oracle.tau_identified) < 1e-10


def test_control_function_knn_on_continuous_data():
    # covariate-free continuous DGP at scale: exact within-arm ranks, smoothed
    # outcome model with k sized so smoothing bias stays under the MC spread
    taus = []
    for seed in (1, 2, 3, 4, 5):
        cfg = SimConfig(n_experimental=50000, n_observational=50000, tau_p=0.06,
                        tau_s=0.15, delta=0.64, confounding=1.0, noise_primary=0.5,
                        seed=seed)
        sample, truth = simulate_linear(cfg)
        taus.append(ControlFunction(nuisance="knn", k=64).fit(sample).tau_)
    taus = np.asarray(taus)
    mc_se = taus.std(ddof=1) / np.sqrt(len(taus))
    assert abs(taus.mean() - 0.06) < 2 * mc_se
    naive = NaiveObservational().fit(sample).tau_
    assert abs(naive - 0.06) > 0.25  # confounding really is present


def test_control_function_knn_with_continuous_covariates():
    errs = []
    for seed in (21, 22, 23):
        cfg = SimConfig(n_experimental=3000, n_observational=3000, tau_p=0.3,
                        tau_s=0.5, delta=0.8, confounding=1.0,
                        covariate_types=("continuous",), noise_primary=0.5, seed=seed)
        sample, truth = simulate_linear(cfg)
        est = ControlFunction(nuisance="knn", k=60).fit(sample)
        errs.append(est.tau_ - truth.tau_p)
    assert abs(np.mean(errs)) < 0.15


def test_general_imputation_knn_unconfounded_matches_naive_roughly():
    cfg = SimConfig(n_experimental=4000, n_observational=4000, tau_p=0.3,
                    tau_s=0.5, delta=0.8, confounding=0.0,
                    covariate_types=("continuous",), noise_primary=0.5, seed=22)
    sample, _ = simulate_linear(cfg)
    naive = NaiveObservational().fit(sample).tau_
    tau = estimate_imputation(sample, method="knn")
    assert abs(tau - naive) < 0.1


def test_weight_positivity_invariant(hand_fixture):
    wgt = GeneralWeighting().fit(hand_fixture)
    mask = hand_fixture.mask(group="O")
    lam = wgt.density_ratio_.ratio(
        hand_fixture.treatment[mask], hand_fixture.covariates[mask],
        hand_fixture.secondary[mask])
    assert np.isfinite(lam).all() and (lam >= 0).all()
    imp = GeneralImputation().fit(hand_fixture)
    odds = imp.selection_.odds(hand_fixture.covariates[~hand_fixture.group_obs])
    assert np.isfinite(odds).all() and (odds >= 0).all()


@pytest.mark.parametrize("nuisance", ["knn", "kernel"])
def test_weighting_rejects_nuisance_other_than_frequency_or_binning(hand_fixture, nuisance):
    with pytest.raises(ValidationError, match="'frequency' and 'binning'"):
        GeneralWeighting(nuisance=nuisance).fit(hand_fixture)


# exact tau_ values, compared with ==: a refactor of the general estimators
# may not move an estimate by one bit
_PINNED_SAMPLES = {
    "discrete": lambda: simulate_discrete(5, n_x=3, n_secondary=3, n_primary=3).to_sample(),
    "binning-50": lambda: linear_sample(("categorical",), n=20_000, shift=0.0),
    "knn-d1": lambda: linear_sample(("continuous",)),
    "knn-d2": lambda: linear_sample(("continuous", "continuous")),
    "unconfounded": lambda: simulate_discrete(7, n_x=3, n_secondary=3, n_primary=3,
                                              experimental_design="unconfounded").to_sample(),
}
_PINNED = [
    ("discrete", GeneralImputation(), 0.1730769230769229),
    ("discrete", GeneralWeighting(), 0.1730769230769229),
    ("discrete", ControlFunction(), 0.1730769230769229),
    ("binning-50", GeneralWeighting(nuisance="binning", bins=50), 0.2884719981016015),
    ("knn-d1", GeneralImputation(nuisance="knn", k=15), 0.4934006033010096),
    ("knn-d1", ControlFunction(nuisance="knn", k=15), 0.5240371091412421),
    ("knn-d2", GeneralImputation(nuisance="knn"), 0.7794273571886285),
    ("knn-d2", ControlFunction(nuisance="knn"), 0.7397961968352432),
    ("unconfounded", GeneralWeighting(experimental_design="unconfounded"), 0.8673780487804867),
]


@pytest.mark.parametrize("data,estimator,tau", _PINNED,
                         ids=[f"{d}-{e.name}" for d, e, _ in _PINNED])
def test_general_estimates_are_pinned(data, estimator, tau):
    assert estimator.clone().fit(_PINNED_SAMPLES[data]()).tau_ == tau


def test_weighting_checks_the_design_before_fitting(hand_fixture, monkeypatch):
    from longfuse import nonparam

    def never(*args, **kwargs):
        raise AssertionError("density ratio fitted before the design was checked")

    monkeypatch.setattr(nonparam, "fit_density_ratio", never)
    with pytest.raises(ValidationError, match="unknown experimental design 'stratified'"):
        GeneralWeighting(experimental_design="stratified").fit(hand_fixture)
