import json
import warnings

import numpy as np
import pytest

from longfuse import cli
from longfuse.cli import main
from longfuse.simulate import latent_selection_gap


@pytest.fixture
def workspace(tmp_path):
    config = {
        "n_experimental": 400, "n_observational": 400, "tau_p": 0.06,
        "tau_s": 0.15, "delta": 0.64, "confounding": 1.0,
        "covariate_types": ["continuous"], "group_shift": [0.2],
        "noise_primary": 0.5, "seed": 7,
    }
    config_path = tmp_path / "sim.json"
    config_path.write_text(json.dumps(config))
    sample_path = tmp_path / "sample.csv"
    schema_path = tmp_path / "schema.json"
    truth_path = tmp_path / "truth.json"
    code = main(["simulate", "--config", str(config_path), "--out", str(sample_path),
                 "--truth", str(truth_path), "--schema-out", str(schema_path)])
    assert code == 0
    return tmp_path


def run(args):
    return main([str(a) for a in args])


def test_simulate_outputs(workspace):
    truth = json.loads((workspace / "truth.json").read_text())
    assert truth["tau_p"] == 0.06
    assert truth["naive_bias_p"] == pytest.approx(0.64 * truth["naive_bias_s"])
    schema = json.loads((workspace / "schema.json").read_text())
    assert schema == {"g": "group", "w": "treatment", "s": "secondary",
                      "y": "primary", "x1": "continuous"}


def test_estimate_end_to_end(workspace, capsys):
    code = run(["estimate", "--input", workspace / "sample.csv",
                "--schema", workspace / "schema.json",
                "--method", "linear-cf,linear-imputation",
                "--bootstrap", 30, "--seed", 5, "--no-timestamp"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["schema_version"] == 1
    names = [e["estimator"] for e in report["estimates"]]
    assert names == ["naive", "linear-cf", "linear-imputation"]
    for e in report["estimates"]:
        assert e["bootstrap_se"] > 0
        assert e["n_bootstrap"] == 30
        assert isinstance(e["warnings"], list)
    cf = report["estimates"][1]
    assert "delta_hat" in cf["details"]
    assert "residual_balance" in cf["details"]
    assert set(report["comparisons"]) == {"secondary_gap", "primary_naive_regression",
                                          "surrogacy"}
    assert report["config"]["seed"] == 5


def test_estimate_reports_are_byte_identical(workspace):
    out1 = workspace / "r1.json"
    out2 = workspace / "r2.json"
    for out in (out1, out2):
        code = run(["estimate", "--input", workspace / "sample.csv",
                    "--schema", workspace / "schema.json", "--method", "linear-cf",
                    "--bootstrap", 20, "--seed", 9, "--no-timestamp", "--out", out])
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_estimate_different_seed_changes_bootstrap(workspace):
    reports = []
    for seed in (1, 2):
        out = workspace / f"seed{seed}.json"
        run(["estimate", "--input", workspace / "sample.csv",
             "--schema", workspace / "schema.json", "--method", "linear-cf",
             "--bootstrap", 20, "--seed", seed, "--no-timestamp", "--out", out])
        reports.append(json.loads(out.read_text()))
    a, b = reports
    assert a["estimates"][0]["tau_hat"] == b["estimates"][0]["tau_hat"]
    assert a["estimates"][0]["bootstrap_se"] != b["estimates"][0]["bootstrap_se"]


def test_estimate_missing_seed_with_bootstrap(workspace, capsys):
    code = run(["estimate", "--input", workspace / "sample.csv",
                "--schema", workspace / "schema.json", "--bootstrap", 10])
    assert code == 2
    assert "--seed" in capsys.readouterr().err


def test_empty_cell_is_a_validation_error(workspace, capsys):
    bad = workspace / "bad.csv"
    bad.write_text("g,w,x1,s,y\nE,1,0.0,1.0,\nO,1,0.2,0.5,1.0\nO,0,0.1,0.3,0.7\n")
    code = run(["estimate", "--input", bad, "--schema", workspace / "schema.json",
                "--bootstrap", 0, "--seed", 1])
    assert code == 2
    assert "group E, treatment 0" in capsys.readouterr().err


def test_file_not_found(workspace, capsys):
    code = run(["estimate", "--input", workspace / "nope.csv",
                "--schema", workspace / "schema.json", "--bootstrap", 0, "--seed", 1])
    assert code == 2
    assert "not found" in capsys.readouterr().err


def test_schema_mismatch(workspace, capsys):
    schema2 = workspace / "schema2.json"
    schema2.write_text(json.dumps({"g": "group", "w": "treatment",
                                   "s": "secondary", "y": "primary",
                                   "missing_col": "continuous"}))
    code = run(["estimate", "--input", workspace / "sample.csv", "--schema", schema2,
                "--bootstrap", 0, "--seed", 1])
    assert code == 2
    assert "missing required column" in capsys.readouterr().err


def test_unknown_method(workspace, capsys):
    code = run(["estimate", "--input", workspace / "sample.csv",
                "--schema", workspace / "schema.json", "--method", "alchemy",
                "--bootstrap", 0, "--seed", 1])
    assert code == 2
    assert "unknown method" in capsys.readouterr().err


def test_unknown_flag_exits_two(workspace):
    with pytest.raises(SystemExit) as exc:
        run(["estimate", "--frobnicate"])
    assert exc.value.code == 2


def test_estimation_error_exits_three(workspace, capsys):
    bad = workspace / "est.csv"
    # binary data where treated E has secondary=1 but O does not
    rows = ["g,w,x1,s,y"]
    rows += ["E,1,0.0,1,", "E,0,0.0,0,"]
    rows += ["O,1,0.0,0,1", "O,0,0.0,0,0", "O,0,0.0,1,1"]
    bad.write_text("\n".join(rows) + "\n")
    schema = workspace / "binary_schema.json"
    schema.write_text(json.dumps({"g": "group", "w": "treatment",
                                  "s": "secondary:discrete", "y": "primary"}))
    code = run(["estimate", "--input", bad, "--schema", schema,
                "--method", "binary-imputation", "--bootstrap", 0, "--seed", 1])
    assert code == 3
    assert "no observational units" in capsys.readouterr().err


def test_estimate_general_estimators_end_to_end(workspace, capsys):
    code = run(["estimate", "--input", workspace / "sample.csv",
                "--schema", workspace / "schema.json",
                "--method", "imputation,control-function", "--nuisance", "knn",
                "--knn-k", 50, "--bootstrap", 5, "--seed", 2, "--no-timestamp"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    names = [e["estimator"] for e in report["estimates"]]
    assert names == ["naive", "imputation", "control-function"]
    for e in report["estimates"]:
        assert abs(e["tau_hat"]) < 2.0


def test_estimate_invalid_nuisance_combo(workspace, capsys):
    code = run(["estimate", "--input", workspace / "sample.csv",
                "--schema", workspace / "schema.json",
                "--method", "control-function", "--nuisance", "binning",
                "--bootstrap", 0, "--seed", 2])
    assert code == 2
    assert "frequency" in capsys.readouterr().err


def test_weighting_with_knn_nuisance_exits_two(workspace, capsys):
    # discrete data on which the frequency density ratio would fit
    sample = workspace / "binary.csv"
    rows = ["g,w,s,y"] + [f"{g},{w},{s},{'1' if g == 'O' else ''}"
                          for g in "EO" for w in (0, 1) for s in (0, 1)]
    sample.write_text("\n".join(rows) + "\n")
    schema = workspace / "binary_schema.json"
    schema.write_text(json.dumps({"g": "group", "w": "treatment",
                                  "s": "secondary:discrete", "y": "primary"}))
    code = run(["estimate", "--input", sample, "--schema", schema,
                "--method", "weighting", "--nuisance", "knn", "--bootstrap", 0])
    assert code == 2
    assert "binning" in capsys.readouterr().err


@pytest.mark.parametrize("k", [0, -1])
def test_control_function_knn_k_below_one_exits_two_without_warnings(workspace, capsys, k):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run(["estimate", "--input", workspace / "sample.csv",
                    "--schema", workspace / "schema.json", "--method", "control-function",
                    "--nuisance", "knn", "--knn-k", k, "--bootstrap", 0])
    assert code == 2
    err = capsys.readouterr().err
    assert "knn requires k >= 1" in err and "RuntimeWarning" not in err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("replicates", [-1, 1])
def test_bootstrap_count_that_cannot_form_a_se_exits_two(workspace, capsys, replicates):
    code = run(["estimate", "--input", workspace / "sample.csv",
                "--schema", workspace / "schema.json", "--method", "linear-cf",
                "--bootstrap", replicates, "--seed", 1, "--no-timestamp"])
    assert code == 2
    captured = capsys.readouterr()
    assert "n_bootstrap must be 0 or at least 2" in captured.err
    assert captured.out == ""


def test_diagnose_end_to_end(workspace, capsys):
    code = run(["diagnose", "--input", workspace / "sample.csv",
                "--schema", workspace / "schema.json", "--seed", 4,
                "--no-timestamp"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert set(report["diagnostics"]) == {"group-balance", "secondary-gap", "surrogacy"}
    balance = report["diagnostics"]["group-balance"]
    assert 0.0 <= balance["p_value"] <= 1.0
    assert "decision_note" in balance


@pytest.mark.parametrize("max_cells", [-1, 0])
def test_diagnose_max_cells_below_one_exits_two(workspace, capsys, max_cells):
    code = run(["diagnose", "--input", workspace / "sample.csv",
                "--schema", workspace / "schema.json", "--tests", "group-balance",
                "--diagnostic-method", "permutation", "--permutations", 9, "--seed", 1,
                "--max-cells", max_cells, "--no-timestamp"])
    assert code == 2
    captured = capsys.readouterr()
    assert "max_cells must be at least 1" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


def test_diagnose_permutation_requires_seed(workspace, capsys):
    code = run(["diagnose", "--input", workspace / "sample.csv",
                "--schema", workspace / "schema.json",
                "--diagnostic-method", "permutation"])
    assert code == 2


def test_bench_json_and_csv(workspace, capsys):
    code = run(["bench", "--config", workspace / "sim.json", "--replicates", 10,
                "--methods", "naive,linear-cf", "--seed", 6, "--no-timestamp"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    rows = {r["estimator"]: r for r in report["results"]}
    assert set(rows) == {"naive", "linear-cf"}
    assert rows["naive"]["bias"] > 0.3  # confounded DGP
    code = run(["bench", "--config", workspace / "sim.json", "--replicates", 5,
                "--methods", "naive", "--seed", 6, "--format", "csv"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "estimator,mean,bias,sd,rmse,mc_se"
    assert lines[1].startswith("naive,")


def test_bench_null_config_unbiased(workspace, capsys):
    config = json.loads((workspace / "sim.json").read_text())
    config["confounding"] = 0.0
    config["group_shift"] = [0.0]
    config["n_experimental"] = config["n_observational"] = 1500
    null_path = workspace / "null.json"
    null_path.write_text(json.dumps(config))
    code = run(["bench", "--config", null_path, "--replicates", 30,
                "--methods", "naive,linear-cf,linear-imputation", "--seed", 2,
                "--no-timestamp"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    for row in report["results"]:
        assert abs(row["bias"]) < 2.5 * row["mc_se"]


def _bench(workspace, capsys, *extra):
    code = run(["bench", "--config", workspace / "sim.json", "--no-timestamp", *extra])
    assert code == 0
    return json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("flag,value,key", [
    ("--knn-k", 7, "knn_k"),
    ("--trim", 0.05, "trim"),
    ("--experimental-design", "unconfounded", "experimental_design"),
])
def test_bench_fingerprint_covers_result_options(workspace, capsys, flag, value, key):
    common = ["--replicates", 2, "--methods", "naive", "--seed", 3]
    base = _bench(workspace, capsys, *common)
    changed = _bench(workspace, capsys, *common, flag, value)
    assert changed["config"][key] == value
    assert base["config"][key] != value
    assert changed["config_fingerprint"] != base["config_fingerprint"]


def test_bench_counts_failed_replicates(workspace, capsys, monkeypatch):
    from longfuse import PositivityError
    from longfuse.base import BaseEstimator

    successes = []

    class Flaky(BaseEstimator):
        calls = 0

        def fit(self, sample):
            Flaky.calls += 1
            if Flaky.calls % 2 == 0:
                raise PositivityError("every second replicate loses a cell")
            self.tau_ = float(sample.secondary.mean())
            successes.append(self.tau_)
            return self

    monkeypatch.setattr(cli, "_make_estimator", lambda method, args: Flaky())
    report = _bench(workspace, capsys, "--replicates", 6, "--methods", "naive,flaky",
                    "--seed", 4)
    rows = {r["estimator"]: r for r in report["results"]}
    assert rows["naive"]["n_failed"] == 0
    assert rows["flaky"]["n_failed"] == 3
    assert rows["flaky"]["mean"] == float(np.mean(successes))


def test_bench_exits_three_when_an_estimator_never_succeeds(workspace, capsys,
                                                            monkeypatch):
    from longfuse import PositivityError
    from longfuse.base import BaseEstimator

    class Broken(BaseEstimator):
        def fit(self, sample):
            raise PositivityError("no overlap")

    monkeypatch.setattr(cli, "_make_estimator", lambda method, args: Broken())
    code = run(["bench", "--config", workspace / "sim.json", "--replicates", 3,
                "--methods", "naive,broken", "--seed", 4])
    assert code == 3
    assert "'broken'" in capsys.readouterr().err


def test_bench_without_replicates_exits_two(workspace, capsys):
    code = run(["bench", "--config", workspace / "sim.json", "--replicates", 0,
                "--methods", "naive", "--seed", 4])
    assert code == 2
    assert "--replicates" in capsys.readouterr().err


def test_bench_derives_the_truth_once(workspace, capsys):
    latent_selection_gap.cache_clear()
    _bench(workspace, capsys, "--replicates", 5, "--methods", "naive", "--seed", 8)
    assert latent_selection_gap.cache_info().misses == 1


def test_bench_numbers_are_pinned(workspace, capsys):
    report = _bench(workspace, capsys, "--replicates", 5,
                    "--methods", "naive,linear-cf,linear-imputation", "--seed", 13)
    assert report["truth"] == {"naive_bias_p": 0.5289496682032823,
                               "naive_bias_s": 0.8264838565676285,
                               "tau_p": 0.06, "tau_s": 0.15}
    pinned = {
        "naive": (0.5853441679368887, 0.5253441679368887, 0.132953022095442,
                  0.5386350338148743, 0.059458399043887965),
        "linear-cf": (0.009796015913325077, -0.050203984086674924, 0.04368443084345962,
                      0.06361685010017955, 0.019536271384872836),
        "linear-imputation": (0.009796015913325214, -0.050203984086674786,
                              0.04368443084345933, 0.06361685010017927,
                              0.019536271384872708),
    }
    for row in report["results"]:
        got = tuple(row[k] for k in ("mean", "bias", "sd", "rmse", "mc_se"))
        assert got == pinned[row["estimator"]]
        assert row["n_failed"] == 0


def test_csv_round_trip_through_cli(workspace, tmp_path, capsys):
    # reload the simulated CSV and re-estimate: identical point estimates
    out1 = workspace / "a.json"
    run(["estimate", "--input", workspace / "sample.csv",
         "--schema", workspace / "schema.json", "--method", "linear-cf",
         "--bootstrap", 0, "--seed", 0, "--no-timestamp", "--out", out1])
    import longfuse

    sample = longfuse.load_sample(workspace / "sample.csv",
                                  longfuse.load_schema(workspace / "schema.json"))
    rewritten = tmp_path / "rewritten.csv"
    longfuse.write_sample(sample, rewritten)
    out2 = workspace / "b.json"
    run(["estimate", "--input", rewritten, "--schema", workspace / "schema.json",
         "--method", "linear-cf", "--bootstrap", 0, "--seed", 0,
         "--no-timestamp", "--out", out2])
    a = json.loads(out1.read_text())
    b = json.loads(out2.read_text())
    # fingerprints differ (the input path is part of the config); values must not
    for ea, eb in zip(a["estimates"], b["estimates"]):
        assert ea["tau_hat"] == eb["tau_hat"]
        assert ea["details"] == eb["details"]
    assert a["comparisons"] == b["comparisons"]


@pytest.mark.parametrize("early_replicates_fail,message", [
    (True, "bootstrap produced 0 successful replicates; cannot form a SE"),
    (False, "late point fit"),
])
def test_estimate_failure_order_is_method_order(workspace, capsys, monkeypatch,
                                                early_replicates_fail, message):
    # an earlier method's failed bootstrap outranks a later method's failed
    # point fit, as when each method was fitted and bootstrapped in turn
    from longfuse import PositivityError
    from longfuse.base import BaseEstimator

    class Early(BaseEstimator):
        name = "early"
        calls = 0

        def fit(self, sample):
            Early.calls += 1
            if early_replicates_fail and Early.calls > 1:
                raise PositivityError("early replicate")
            self.tau_ = 0.0
            return self

    class Late(BaseEstimator):
        def fit(self, sample):
            raise PositivityError("late point fit")

    monkeypatch.setattr(cli, "_make_estimator",
                        lambda method, args: Early() if method == "linear-cf" else Late())
    code = run(["estimate", "--input", workspace / "sample.csv",
                "--schema", workspace / "schema.json", "--method", "linear-cf,linear-imputation",
                "--bootstrap", 3, "--seed", 1, "--no-timestamp"])
    assert code == 3
    assert capsys.readouterr() == ("", f"estimation error: {message}\n")


def test_bench_with_one_replicate_exits_two(workspace, capsys):
    code = run(["bench", "--config", workspace / "sim.json", "--replicates", 1,
                "--methods", "naive,linear-cf", "--seed", 4, "--no-timestamp"])
    assert code == 2
    captured = capsys.readouterr()
    assert "--replicates must be at least 2" in captured.err
    assert captured.out == ""


def test_bench_exits_three_when_an_estimator_succeeds_once(workspace, capsys, monkeypatch):
    from longfuse import PositivityError
    from longfuse.base import BaseEstimator

    class OnceOnly(BaseEstimator):
        calls = 0

        def fit(self, sample):
            OnceOnly.calls += 1
            if OnceOnly.calls > 1:
                raise PositivityError("only the first replicate has overlap")
            self.tau_ = 0.0
            return self

    monkeypatch.setattr(cli, "_make_estimator", lambda method, args: OnceOnly())
    code = run(["bench", "--config", workspace / "sim.json", "--replicates", 3,
                "--methods", "naive,once", "--seed", 4, "--no-timestamp"])
    assert code == 3
    captured = capsys.readouterr()
    assert "'once' succeeded on only 1 of 3 replicates" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("command,flag", [("estimate", "--method"), ("bench", "--methods"),
                                          ("diagnose", "--tests")])
def test_empty_method_list_exits_two_before_any_work(workspace, capsys, monkeypatch,
                                                     command, flag):
    def never(*args, **kwargs):
        raise AssertionError("loaded or simulated data for an empty method list")

    monkeypatch.setattr(cli, "load_schema", never)
    monkeypatch.setattr(cli, "load_sample", never)
    monkeypatch.setattr(cli, "simulate_linear", never)
    sample = ["--input", workspace / "sample.csv", "--schema", workspace / "schema.json"]
    inputs = {"estimate": sample, "diagnose": sample,
              "bench": ["--config", workspace / "sim.json"]}[command]
    code = run([command, *inputs, flag, ",", "--seed", 1, "--no-timestamp"])
    assert code == 2
    captured = capsys.readouterr()
    noun = "diagnostic" if command == "diagnose" else "estimator"
    assert f"{flag} names no {noun}" in captured.err
    assert captured.out == ""
