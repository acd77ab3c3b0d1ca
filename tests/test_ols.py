import numpy as np
import pytest

from longfuse import RankError, ValidationError
from longfuse.ols import ols


def test_exact_fit_recovered():
    x = np.linspace(0, 9, 10)
    y = 2.0 + 3.0 * x
    fit = ols(y, np.column_stack([np.ones(10), x]), ["intercept", "x"])
    assert abs(fit.coef("intercept") - 2.0) < 1e-10
    assert abs(fit.coef("x") - 3.0) < 1e-10
    assert fit.r_squared > 1 - 1e-12


def test_duplicated_column_raises_rank_error():
    x = np.arange(10.0)
    X = np.column_stack([np.ones(10), x, x])
    with pytest.raises(RankError, match="x_copy"):
        ols(x, X, ["intercept", "x", "x_copy"])


def test_orthogonal_response_has_zero_slope():
    rng = np.random.default_rng(0)
    x = rng.standard_normal(200)
    x -= x.mean()
    y = rng.standard_normal(200)
    y -= y.mean()
    y -= x * (x @ y) / (x @ x)  # project out x exactly
    fit = ols(y, np.column_stack([np.ones(200), x]), ["intercept", "x"])
    assert abs(fit.coef("x")) < 1e-10


def test_too_few_rows():
    with pytest.raises(ValidationError, match="too few rows"):
        ols(np.ones(2), np.ones((2, 2)), ["a", "b"])


def test_residuals_orthogonal_to_design():
    rng = np.random.default_rng(1)
    X = np.column_stack([np.ones(500), rng.standard_normal((500, 3))])
    y = X @ np.array([1.0, 2.0, -1.0, 0.5]) + rng.standard_normal(500)
    fit = ols(y, X, ["intercept", "a", "b", "c"])
    scale = np.abs(X.T @ y).max()
    assert np.abs(X.T @ fit.residuals).max() / scale < 1e-8


def test_robust_se_positive_and_sane():
    rng = np.random.default_rng(2)
    x = rng.standard_normal(2000)
    y = 1.0 + 0.5 * x + rng.standard_normal(2000) * (1 + 0.5 * np.abs(x))
    fit = ols(y, np.column_stack([np.ones(2000), x]), ["intercept", "x"])
    assert (fit.se > 0).all()
    # slope is strongly identified here
    assert abs(fit.coef("x") - 0.5) < 5 * fit.se_of("x")


def _rank_cases():
    rng = np.random.default_rng(11)
    n = 60
    ones = np.ones(n)
    cases = {}
    for i in range(4):
        x = rng.standard_normal((n, 2))
        dummy = (rng.random(n) < 0.4).astype(np.float64)
        cases[f"random-{i}"] = (np.column_stack([ones, x, dummy]),
                                ("intercept", "a", "b", "g=1"), None)
    x = rng.standard_normal(n)
    cases["duplicate"] = (np.column_stack([ones, x, x]), ("intercept", "x", "x_copy"),
                          ("x_copy",))
    # a categorical level missing from a resample leaves its dummy all zero
    dummy = (rng.random(n) < 0.5).astype(np.float64)
    cases["zero-dummy"] = (np.column_stack([ones, x, dummy, np.zeros(n)]),
                           ("intercept", "x", "g=1", "g=2"), ("g=2",))
    cases["scaled-1e8"] = (np.column_stack([ones, x, 1e8 * dummy]),
                           ("intercept", "x", "big"), None)
    return cases


RANK_CASES = _rank_cases()


@pytest.mark.parametrize("case", sorted(RANK_CASES))
def test_rank_decision_matches_matrix_rank(case):
    X, names, dependent = RANK_CASES[case]
    n, k = X.shape
    y = np.random.default_rng(12).standard_normal(n)
    rank = np.linalg.matrix_rank(X)
    assert (rank == k) == (dependent is None)
    if dependent is None:
        fit = ols(y, X, names)
        assert np.array_equal(fit.coefficients, np.linalg.lstsq(X, y, rcond=None)[0])
        return
    with pytest.raises(RankError) as exc:
        ols(y, X, names)
    assert exc.value.columns == dependent
    assert str(exc.value) == (f"design is rank deficient (rank {rank} < {k}); "
                              "dependent columns: " + ", ".join(dependent))


def test_robust_covariance_is_computed_on_first_read():
    rng = np.random.default_rng(4)
    X = np.column_stack([np.ones(300), rng.standard_normal((300, 2))])
    y = X @ np.array([1.0, -0.5, 2.0]) + rng.standard_normal(300) * (1 + np.abs(X[:, 1]))
    fit = ols(y, X, ["intercept", "a", "b"])
    assert "covariance" not in fit.__dict__ and "se" not in fit.__dict__
    # the eager HC1 arithmetic, step by step
    resid = y - X @ fit.coefficients
    xtx_inv = np.linalg.inv(X.T @ X)
    meat = (X * (resid**2)[:, None]).T @ X
    cov = xtx_inv @ meat @ xtx_inv * (300 / (300 - 3))
    assert np.array_equal(fit.se, np.sqrt(np.clip(np.diag(cov), 0.0, None)))
    assert np.array_equal(fit.covariance, cov)
    assert fit.covariance is fit.covariance


def test_linear_fit_leaves_the_covariance_unread():
    from longfuse import LinearControlFunction, SimConfig, simulate_linear

    sample, _ = simulate_linear(SimConfig(
        n_experimental=200, n_observational=200, tau_p=0.1, tau_s=0.2, delta=0.5,
        covariate_types=("continuous",), seed=1))
    fit = LinearControlFunction().fit(sample)
    for ols_fit in (fit.result_.ols_fit, fit.result_.secondary_fit.ols_fit):
        assert "covariance" not in ols_fit.__dict__ and "se" not in ols_fit.__dict__
