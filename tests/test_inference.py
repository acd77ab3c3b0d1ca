import numpy as np
import pytest

from longfuse import (
    BinaryImputation,
    EstimateReport,
    LinearControlFunction,
    NotFittedError,
    ValidationError,
    check_is_fitted,
)
from longfuse.inference import (
    NaiveObservational,
    bootstrap_estimates,
    config_fingerprint,
    estimate_with_bootstrap,
)

from conftest import build_binary_sample, random_binary_sample


@pytest.fixture
def sample():
    rng = np.random.default_rng(3)
    return random_binary_sample(rng, max_cell=25)


def test_bootstrap_deterministic(sample):
    [(a, fa)] = bootstrap_estimates([BinaryImputation()], sample, 40, seed=5)
    [(b, fb)] = bootstrap_estimates([BinaryImputation()], sample, 40, seed=5)
    assert np.array_equal(a, b)
    assert fa == fb
    [(c, _)] = bootstrap_estimates([BinaryImputation()], sample, 40, seed=6)
    assert not np.array_equal(a, c)


def test_bootstrap_failed_replicates_warn():
    # a tiny experimental cell makes some resamples hit empty imputation cells
    sample = build_binary_sample(
        observational=[(1, 1, 1), (1, 0, 0), (0, 0, 0), (0, 1, 1)],
        experimental=[(1, 1), (1, 0), (0, 1), (0, 0)],
    )
    [report] = estimate_with_bootstrap([BinaryImputation()], sample, n_bootstrap=200, seed=1)
    codes = {w.code for w in report.warnings}
    assert "bootstrap_replicates_failed" in codes
    assert report.bootstrap_se is not None


def test_report_invariants(sample):
    [report] = estimate_with_bootstrap([NaiveObservational()], sample, n_bootstrap=0, seed=0)
    assert report.bootstrap_se is None
    assert report.n_bootstrap == 0
    with pytest.raises(ValidationError):
        EstimateReport("x", 0.0, bootstrap_se=1.0, n_bootstrap=0,
                       config_fingerprint="ab")
    with pytest.raises(ValidationError):
        EstimateReport("x", float("nan"), bootstrap_se=None, n_bootstrap=0,
                       config_fingerprint="ab")


def test_fingerprint_stable_and_sensitive():
    a = config_fingerprint({"x": 1, "y": [1, 2]})
    b = config_fingerprint({"y": [1, 2], "x": 1})
    assert a == b
    assert config_fingerprint({"x": 2, "y": [1, 2]}) != a


def test_get_set_params_and_clone():
    from longfuse import GeneralWeighting

    est = GeneralWeighting(nuisance="binning", bins=33, trim=0.02)
    params = est.get_params()
    assert params == {"nuisance": "binning", "bins": 33,
                      "experimental_design": "randomized", "trim": 0.02}
    est.set_params(bins=44)
    assert est.get_params()["bins"] == 44
    with pytest.raises(ValueError, match="invalid parameter"):
        est.set_params(nope=1)
    clone = est.clone()
    assert clone.get_params() == est.get_params()


def test_sklearn_clone_protocol_compatibility():
    sklearn_base = pytest.importorskip("sklearn.base")
    from longfuse import ControlFunction

    est = ControlFunction(nuisance="knn", k=12)
    cloned = sklearn_base.clone(est)
    assert cloned.get_params() == est.get_params()


def test_check_is_fitted(sample):
    est = LinearControlFunction()
    with pytest.raises(NotFittedError):
        check_is_fitted(est)
    rng = np.random.default_rng(0)
    # linear estimator needs non-degenerate data; reuse a simulated sample
    from longfuse import SimConfig, simulate_linear

    sim_sample, _ = simulate_linear(SimConfig(
        n_experimental=200, n_observational=200, tau_p=0.1, tau_s=0.2, delta=0.5,
        covariate_types=("continuous",), seed=1))
    est.fit(sim_sample)
    check_is_fitted(est)


def test_param_names_parsed_once_per_class():
    from longfuse import GeneralWeighting

    class Tuned(GeneralWeighting):
        def __init__(self, nuisance="binning", bins=20, experimental_design="randomized",
                     trim=0.01, extra=3):
            super().__init__(nuisance=nuisance, bins=bins,
                             experimental_design=experimental_design, trim=trim)
            self.extra = extra

    base_names = ("nuisance", "bins", "experimental_design", "trim")
    assert GeneralWeighting._param_names() == base_names
    assert Tuned._param_names() == base_names + ("extra",)
    assert Tuned._param_names() is Tuned._param_names()
    assert GeneralWeighting._param_names() == base_names
    est = Tuned(bins=33, extra=5)
    clone = est.clone()
    assert type(clone) is Tuned
    assert clone.get_params() == est.get_params()
    assert repr(clone) == repr(est) == ("Tuned(nuisance='binning', bins=33, "
                                        "experimental_design='randomized', trim=0.01, extra=5)")
    assert eval(repr(est), {"Tuned": Tuned}).get_params() == est.get_params()


@pytest.mark.parametrize("n_bootstrap", [-1, 1])
def test_bootstrap_count_that_cannot_form_a_se_is_refused(sample, n_bootstrap):
    with pytest.raises(ValidationError, match="n_bootstrap must be 0 or at least 2"):
        estimate_with_bootstrap([BinaryImputation()], sample, n_bootstrap=n_bootstrap, seed=0)


def test_shared_replicate_loop_matches_fitting_each_estimator_alone():
    from longfuse import GeneralWeighting, LinearImputation, SimConfig, simulate_linear
    from longfuse.exceptions import EstimationError
    from longfuse.sample import bootstrap_resample
    from longfuse.simulate import replicate_seeds

    # a 20k-row binned draw on which weighting loses 4 of its 20 replicates
    sample, _ = simulate_linear(SimConfig(
        n_experimental=10_000, n_observational=10_000, tau_p=0.06, tau_s=0.15, delta=0.64,
        confounding=1.0, covariate_types=("categorical",), noise_primary=2.0, seed=1))
    estimators = [NaiveObservational(), LinearControlFunction(), LinearImputation(),
                  GeneralWeighting(nuisance="binning", bins=50)]
    shared = bootstrap_estimates(estimators, sample, 20, seed=3)
    for est, (values, n_failed) in zip(estimators, shared):
        alone = []  # each estimator bootstrapped on its own, resample by resample
        for replicate_seed in replicate_seeds(3, 20):
            resample = bootstrap_resample(sample, replicate_seed)
            try:
                alone.append(float(est.clone().fit(resample).tau_))
            except EstimationError:
                pass
        assert np.array_equal(values, np.asarray(alone))
        assert n_failed == 20 - len(alone)
    assert [n_failed for _, n_failed in shared] == [0, 0, 0, 4]
    reports = estimate_with_bootstrap(estimators, sample, n_bootstrap=20, seed=3)
    # bootstrap_se of each estimator bootstrapped alone, recorded before the
    # replicate loop was shared
    assert [(r.estimator, r.bootstrap_se) for r in reports] == [
        ("naive", 0.045324736638904684),
        ("linear-cf", 0.04283914182901615),
        ("linear-imputation", 0.042839141829016034),
        ("weighting", 0.04930337510991871),
    ]
    assert [w.context for w in reports[3].warnings
            if w.code == "bootstrap_replicates_failed"] == [{"n_failed": 4, "n_bootstrap": 20}]
