import numpy as np
import pytest

from longfuse import (
    BinaryCellMeans,
    BinaryImputation,
    BinaryWeighting,
    EstimationError,
    PositivityError,
    ValidationError,
    binary_cell_means,
    tau_naive_observational,
    tau_secondary_experimental,
)

from conftest import build_binary_sample, random_binary_sample


def test_cell_means_on_hand_fixture(hand_fixture):
    m = binary_cell_means(hand_fixture)
    assert m.mean("S", "E", 1) == 0.5
    assert m.mean("S", "E", 0) == 0.0
    assert m.mean("P", "O", 1) == 0.5
    assert m.mean("P", "O", 0) == 0.5


def test_cell_means_all_zero_outcomes():
    sample = build_binary_sample(
        observational=[(0, 0, 0), (1, 0, 0)],
        experimental=[(0, 0), (1, 0)],
    )
    m = binary_cell_means(sample)
    for outcome, group in (("S", "E"), ("S", "O"), ("P", "O")):
        assert m.mean(outcome, group, 0) == 0.0
        assert m.mean(outcome, group, 1) == 0.0


def test_primary_undefined_in_experimental(hand_fixture):
    m = binary_cell_means(hand_fixture)
    with pytest.raises(ValidationError):
        m.mean("P", "E", 1)


def test_tau_secondary_experimental(hand_fixture):
    assert tau_secondary_experimental(binary_cell_means(hand_fixture)) == 0.5


def test_tau_secondary_from_reported_cell_means():
    m = BinaryCellMeans(
        secondary_experimental=(0.011, 0.193),
        secondary_observational=(0.0, 0.0),
        primary_observational=(0.0, 0.0),
        counts={},
    )
    assert abs(tau_secondary_experimental(m) - 0.182) < 1e-12


def test_tau_secondary_symmetric_means_is_zero():
    m = BinaryCellMeans((0.4, 0.4), (0.0, 0.0), (0.0, 0.0), {})
    assert tau_secondary_experimental(m) == 0.0


def test_tau_naive_on_fixture(hand_fixture):
    m = binary_cell_means(hand_fixture)
    assert tau_naive_observational(m, "P") == 0.0
    assert tau_naive_observational(m, "S") == 0.0
    with pytest.raises(ValidationError):
        tau_naive_observational(m, "Q")


def test_imputation_on_hand_fixture(hand_fixture):
    assert BinaryImputation().fit(hand_fixture).tau_ == 0.5


def test_weighting_on_hand_fixture(hand_fixture):
    est = BinaryWeighting().fit(hand_fixture)
    assert est.tau_ == 0.5
    assert est.weights_[(1, 1.0)] == 1.0
    assert est.weights_[(1, 0.0)] == 1.0
    assert est.weights_[(0, 1.0)] == 0.0
    assert est.weights_[(0, 0.0)] == 2.0


def test_matching_frequencies_reduce_to_naive():
    # E and O share the empirical (treatment, secondary) distribution
    observational = [(1, 1, 1), (1, 0, 1), (0, 1, 0), (0, 0, 1)]
    experimental = [(1, 1), (1, 0), (0, 1), (0, 0)]
    sample = build_binary_sample(observational, experimental)
    naive = tau_naive_observational(binary_cell_means(sample), "P")
    assert BinaryImputation().fit(sample).tau_ == pytest.approx(naive, abs=1e-15)
    assert BinaryWeighting().fit(sample).tau_ == pytest.approx(naive, abs=1e-15)


def test_imputation_missing_observational_cell_errors():
    sample = build_binary_sample(
        observational=[(1, 1, 1), (1, 0, 0), (0, 0, 0), (0, 0, 1)],
        experimental=[(1, 1), (0, 1), (0, 0), (1, 0)],  # E has (0,1); O does not
    )
    with pytest.raises(PositivityError, match=r"treatment=0, secondary=1"):
        BinaryImputation().fit(sample)


def test_weighting_division_guard():
    sample = build_binary_sample(
        observational=[(1, 0, 1), (1, 0, 0), (0, 1, 0), (0, 0, 1)],
        experimental=[(1, 1), (1, 0), (0, 1), (0, 0)],  # treated E has s=1, O does not
    )
    with pytest.raises(EstimationError, match="denominator zero"):
        BinaryWeighting().fit(sample)


def test_zero_over_zero_weight_warns():
    # no s=1 units in either treated arm: cell (1, 1) is 0/0
    sample = build_binary_sample(
        observational=[(1, 0, 1), (1, 0, 0), (0, 1, 0), (0, 0, 1)],
        experimental=[(1, 0), (1, 0), (0, 1), (0, 0)],
    )
    est = BinaryWeighting().fit(sample)
    assert any(w.code == "zero_over_zero_weight" for w in est.warnings_)
    assert est.weights_[(1, 1.0)] == 0.0


def test_refuses_covariates_and_non_binary():
    import conftest
    from longfuse import CombinedSample
    from longfuse.schema import CovariateSpec, SampleSchema

    schema = SampleSchema("g", "w", "s", "y",
                          covariates=(CovariateSpec("x", "continuous"),))
    with_covariate = CombinedSample(schema, np.array([True, True, False, False]),
                                    np.array([0, 1, 0, 1]), np.zeros((4, 1)), np.zeros(4),
                                    np.array([0.0, 0.0, np.nan, np.nan]))
    with pytest.raises(ValidationError, match="without covariates"):
        BinaryImputation().fit(with_covariate)

    sample = conftest.build_binary_sample(
        observational=[(0, 0.5, 0), (1, 0, 0)], experimental=[(0, 0), (1, 0)]
    )
    with pytest.raises(ValidationError, match="non-binary secondary"):
        BinaryImputation().fit(sample)


def test_identity_property_over_random_samples():
    rng = np.random.default_rng(20240817)
    for _ in range(300):
        sample = random_binary_sample(rng)
        imp = BinaryImputation().fit(sample).tau_
        wgt = BinaryWeighting().fit(sample).tau_
        assert abs(imp - wgt) < 1e-12
        assert -1.0 <= imp <= 1.0
        assert -1.0 <= wgt <= 1.0


def test_permutation_invariance():
    rng = np.random.default_rng(7)
    sample = random_binary_sample(rng)
    shuffled = sample.take(rng.permutation(sample.n))
    assert BinaryImputation().fit(sample).tau_ == BinaryImputation().fit(shuffled).tau_
    assert BinaryWeighting().fit(sample).tau_ == BinaryWeighting().fit(shuffled).tau_
