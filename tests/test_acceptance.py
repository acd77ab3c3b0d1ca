"""Acceptance suite: one test per criterion, each printing a PASS line with
its runtime. Tolerances are fixed here, not calibrated elsewhere."""

import json
import time

import numpy as np

from longfuse import (
    BinaryImputation,
    BinaryWeighting,
    GeneralImputation,
    GeneralWeighting,
    LinearControlFunction,
    LinearImputation,
    SimConfig,
    estimate_control_function,
    estimate_imputation,
    estimate_weighting,
    fit_secondary_experimental,
    group_balance_test,
    identification_oracle,
    simulate_discrete,
    simulate_linear,
    surrogacy_check,
    true_tau,
)
from longfuse.cli import main
from longfuse.inference import NaiveObservational
from longfuse.simulate import replicate_seeds

from conftest import random_binary_sample


def _report(name, elapsed, limit, detail=""):
    print(f"PASS {name}: {elapsed:.1f}s (limit {limit}s) {detail}")


def test_criterion_1_binary_identity():
    start = time.time()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(1000):
        sample = random_binary_sample(rng, max_cell=50)
        imp = BinaryImputation().fit(sample).tau_
        wgt = BinaryWeighting().fit(sample).tau_
        worst = max(worst, abs(imp - wgt))
        assert abs(imp - wgt) < 1e-12
    elapsed = time.time() - start
    assert elapsed < 5.0
    _report("criterion 1 (binary identity, 1000 samples)", elapsed, 5,
            f"max |imp-wgt| = {worst:.2e}")


def test_criterion_2_linear_three_way_identity():
    start = time.time()
    rng = np.random.default_rng(202)
    worst = 0.0
    for rep in range(200):
        k = int(rng.integers(1, 4))
        types = tuple(rng.choice(["continuous", "categorical"], size=k))
        cfg = SimConfig(
            n_experimental=2000, n_observational=2000,
            tau_p=float(rng.uniform(-0.5, 0.5)), tau_s=float(rng.uniform(-0.5, 0.5)),
            delta=float(rng.uniform(-1.0, 1.0)), confounding=float(rng.uniform(0, 2)),
            covariate_types=types,
            group_shift=tuple(rng.uniform(-0.5, 0.5, size=k)),
            gamma_s=tuple(rng.uniform(-1, 1, size=k)),
            gamma_p=tuple(rng.uniform(-1, 1, size=k)),
            noise_primary=float(rng.uniform(0.2, 2.0)),
            seed=int(rng.integers(2**31)),
        )
        sample, _ = simulate_linear(cfg)
        cf = LinearControlFunction().fit(sample).result_
        imp = LinearImputation().fit(sample)
        third = (imp.observational_fit_.coef("treatment")
                 + imp.delta_ * fit_secondary_experimental(sample).tau_s_hat)
        for a, b in ((cf.tau_p_hat, imp.tau_), (imp.tau_, third), (cf.tau_p_hat, third)):
            worst = max(worst, abs(a - b))
            assert abs(a - b) < 1e-8
    elapsed = time.time() - start
    assert elapsed < 30.0
    _report("criterion 2 (linear three-way identity, 200 samples)", elapsed, 30,
            f"max pairwise gap = {worst:.2e}")


def test_criterion_3_identification_oracle():
    start = time.time()
    worst_truth = worst_est = 0.0
    for seed in range(500):
        dgp = simulate_discrete(
            seed,
            n_x=2 + seed % 3,
            n_secondary=2 + (seed // 3) % 3,
            n_primary=2 + (seed // 9) % 3,
        )
        oracle = identification_oracle(dgp)
        worst_truth = max(worst_truth, abs(oracle.tau_identified - oracle.tau_truth))
        assert abs(oracle.tau_identified - oracle.tau_truth) <= 1e-12
        sample = dgp.to_sample()
        for est in (estimate_imputation(sample), estimate_weighting(sample),
                    estimate_control_function(sample)):
            worst_est = max(worst_est, abs(est - oracle.tau_identified))
            assert abs(est - oracle.tau_identified) < 1e-10
    elapsed = time.time() - start
    assert elapsed < 60.0
    _report("criterion 3 (identification oracle, 500 tables)", elapsed, 60,
            f"max |oracle-truth| = {worst_truth:.2e}, max |estimator-oracle| = {worst_est:.2e}")


def test_criterion_4_consistency_and_bias_ladder():
    start = time.time()
    bins_for = {0.0: 100, 1.0: 100, 2.0: 50}
    naive_biases = []
    for c in (0.0, 1.0, 2.0):
        base = dict(n_experimental=50000, n_observational=50000, tau_p=0.06,
                    tau_s=0.15, delta=0.64, confounding=c, noise_primary=2.0, seed=0)
        truth = true_tau(SimConfig(**base))
        taus = {"cf": [], "imputation": [], "weighting": [], "naive": []}
        for seed in replicate_seeds(767001 + int(10 * c), 100):
            sample, _ = simulate_linear(SimConfig(**{**base, "seed": seed}))
            taus["cf"].append(LinearControlFunction().fit(sample).tau_)
            taus["imputation"].append(LinearImputation().fit(sample).tau_)
            taus["weighting"].append(
                GeneralWeighting(nuisance="binning", bins=bins_for[c]).fit(sample).tau_)
            taus["naive"].append(NaiveObservational().fit(sample).tau_)
        for name in ("cf", "imputation", "weighting"):
            v = np.asarray(taus[name])
            bias = v.mean() - 0.06
            mc_se = v.std(ddof=1) / np.sqrt(len(v))
            assert abs(bias) < 2 * mc_se, (c, name, bias, mc_se)
        v = np.asarray(taus["naive"])
        bias = v.mean() - 0.06
        mc_se = v.std(ddof=1) / np.sqrt(len(v))
        assert abs(bias - truth.naive_bias_p) < 2 * mc_se, (c, bias, truth.naive_bias_p)
        naive_biases.append(float(bias))
    assert naive_biases[0] < naive_biases[1] < naive_biases[2]
    elapsed = time.time() - start
    assert elapsed < 600.0
    _report("criterion 4 (consistency and bias ladder, 3x100 replicates at n=50k)",
            elapsed, 600, f"naive bias ladder = {[round(b, 4) for b in naive_biases]}")


def test_criterion_5_diagnostic_calibration_and_power():
    start = time.time()
    rejections = 0
    for seed in replicate_seeds(555001, 500):
        cfg = SimConfig(n_experimental=2000, n_observational=2000, tau_p=0.06,
                        tau_s=0.15, delta=0.64, confounding=0.0,
                        covariate_types=("categorical",), noise_primary=1.0, seed=seed)
        sample, _ = simulate_linear(cfg)
        if group_balance_test(sample, method="regression").p_value < 0.05:
            rejections += 1
    rate = rejections / 500
    assert 0.03 <= rate <= 0.07, rate

    power_hits = 0
    n_power = 200
    for seed in replicate_seeds(555002, n_power):
        cfg = SimConfig(n_experimental=10000, n_observational=10000, tau_p=0.06,
                        tau_s=0.15, delta=0.64, confounding=1.0,
                        covariate_types=("categorical",), noise_primary=1.0, seed=seed)
        sample, _ = simulate_linear(cfg)
        if group_balance_test(sample, method="regression").p_value < 0.05:
            power_hits += 1
    power = power_hits / n_power
    assert power >= 0.95, power
    elapsed = time.time() - start
    assert elapsed < 300.0
    _report("criterion 5 (diagnostic calibration and power)", elapsed, 300,
            f"null rejection rate = {rate:.3f}, power = {power:.3f}")


def test_criterion_6_reduction_to_binary(hand_fixture):
    start = time.time()
    values = {
        "binary-imputation": BinaryImputation().fit(hand_fixture).tau_,
        "binary-weighting": BinaryWeighting().fit(hand_fixture).tau_,
        "general-imputation": estimate_imputation(hand_fixture),
        "general-weighting": estimate_weighting(hand_fixture),
        "general-imputation-class": GeneralImputation().fit(hand_fixture).tau_,
        "general-weighting-class": GeneralWeighting().fit(hand_fixture).tau_,
    }
    for name, value in values.items():
        assert value == 0.5, (name, value)
    elapsed = time.time() - start
    _report("criterion 6 (reduction to the exact binary paths)", elapsed, 5,
            "all paths yield exactly 0.5")


def test_criterion_7_surrogacy_check():
    start = time.time()
    n_seeds = 200
    inside = 0
    for seed in replicate_seeds(909001, n_seeds):
        cfg = SimConfig(n_experimental=500, n_observational=4000, tau_p=0.64 * 0.15,
                        tau_s=0.15, delta=0.64, confounding=1.0, noise_primary=0.5,
                        seed=seed)
        sample, _ = simulate_linear(cfg)
        report = surrogacy_check(sample)
        if abs(report.statistic) <= 3 * report.details["se"]:
            inside += 1
    surrogate_rate = inside / n_seeds
    assert surrogate_rate >= 0.95, surrogate_rate

    significant = 0
    for seed in replicate_seeds(909002, n_seeds):
        cfg = SimConfig(n_experimental=500, n_observational=10000, tau_p=0.1,
                        tau_s=0.0, delta=0.64, confounding=1.0, noise_primary=0.5,
                        seed=seed)
        sample, _ = simulate_linear(cfg)
        if surrogacy_check(sample).p_value < 0.01:
            significant += 1
    power = significant / n_seeds
    assert power >= 0.95, power
    elapsed = time.time() - start
    assert elapsed < 120.0
    _report("criterion 7 (surrogacy check)", elapsed, 120,
            f"coverage = {surrogate_rate:.3f}, direct-channel power = {power:.3f}")


def test_criterion_8_reproducibility(tmp_path):
    start = time.time()
    config = {"n_experimental": 400, "n_observational": 400, "tau_p": 0.06,
              "tau_s": 0.15, "delta": 0.64, "confounding": 1.0,
              "covariate_types": ["continuous"], "noise_primary": 0.5, "seed": 7}
    config_path = tmp_path / "sim.json"
    config_path.write_text(json.dumps(config))
    sample_path = tmp_path / "sample.csv"
    schema_path = tmp_path / "schema.json"
    assert main(["simulate", "--config", str(config_path), "--out", str(sample_path),
                 "--schema-out", str(schema_path)]) == 0

    outputs = []
    for tag in ("a", "b"):
        out = tmp_path / f"est_{tag}.json"
        code = main(["estimate", "--input", str(sample_path), "--schema",
                     str(schema_path), "--method", "linear-cf,linear-imputation",
                     "--bootstrap", "50", "--seed", "11", "--no-timestamp",
                     "--out", str(out)])
        assert code == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]

    for tag in ("c", "d"):
        out = tmp_path / f"diag_{tag}.json"
        code = main(["diagnose", "--input", str(sample_path), "--schema",
                     str(schema_path), "--diagnostic-method", "permutation",
                     "--permutations", "199", "--seed", "3", "--no-timestamp",
                     "--out", str(out)])
        assert code == 0
        outputs.append(out.read_bytes())
    assert outputs[2] == outputs[3]

    for tag in ("e", "f"):
        out = tmp_path / f"bench_{tag}.json"
        code = main(["bench", "--config", str(config_path), "--replicates", "10",
                     "--methods", "naive,linear-cf", "--seed", "5",
                     "--no-timestamp", "--out", str(out)])
        assert code == 0
        outputs.append(out.read_bytes())
    assert outputs[4] == outputs[5]
    elapsed = time.time() - start
    assert elapsed < 120.0
    _report("criterion 8 (byte-identical CLI reports)", elapsed, 120,
            "estimate, diagnose, bench")
