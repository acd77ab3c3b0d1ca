"""The four workloads: how each builds its input from the seed, the CLI calls
that make up one op, and the check every op's output must pass.

Every op is an in-process call to ``longfuse.cli.main(argv)``; each op gets
its own bootstrap (or Monte Carlo) seed, so no two ops in a run repeat a
computation. The reasons for each workload are in README.md.
"""

import json
import math
import sys

import numpy as np

import longfuse
import longfuse.cli as cli
import longfuse.nonparam as nonparam
import longfuse.oracle as oracle
import longfuse.sample as sample_io
import longfuse.simulate as simulate
from longfuse.exceptions import PositivityError

# Linear DGP shared by the linear workloads (the acceptance suite's
# consistency ladder at confounding 1.0).
LINEAR = dict(tau_p=0.06, tau_s=0.15, delta=0.64, confounding=1.0, noise_primary=2.0)
BINS = 50
# A positivity refusal of the weighting point fit on the full draw makes
# every op of the run fail (about 1 draw in 40 at this size), so such a draw
# is replaced by the next one and the replacement is counted.
MAX_REDRAWS = 20

# Golden kNN estimates on a small fixed input, recorded through the public
# API (not the CLI). To record them again after a change that is meant to
# move kNN estimates, run from the repository root:
#     PYTHONPATH=src python3 perfbench/workloads.py
GOLDEN_CONFIG = dict(n_experimental=200, n_observational=200,
                     covariate_types=("continuous", "continuous"), seed=20_060_976, **LINEAR)
GOLDEN = {
    "imputation": 0.8158667443482618,
    "control-function": 0.8281409313780216,
}


def derive_seed(seed: int, *key: int) -> int:
    """Independent 32-bit seed for one use of the workload seed."""
    return int(np.random.SeedSequence(seed, spawn_key=key).generate_state(1)[0])


def _estimates(report) -> dict:
    return {e["estimator"]: e for e in report["estimates"]}


def _bootstrap_tally(report):
    """(fits, replicates attempted, replicates failed) of one estimate report:
    one point fit plus every bootstrap replicate fit, failed or not."""
    fits = attempted = failed = 0
    for e in report["estimates"]:
        fits += 1 + e["n_bootstrap"]
        attempted += e["n_bootstrap"]
        for w in e["warnings"]:
            if w["code"] == "bootstrap_replicates_failed":
                failed += w["context"]["n_failed"]
    return fits, attempted, failed


def _same_point(wl, key, est, problems):
    """Point estimates do not depend on the bootstrap seed: every op on input
    ``key`` must give those of the first op on it."""
    point = {m: est[m]["tau_hat"] for m in wl.methods}
    first = wl.points.setdefault(key, point)
    for m in wl.methods:
        _close(f"{m} point estimate vs first op", point[m], first[m], 0.0, problems)


def write_input(sample, csv_path):
    """Write a sample as CSV, and its schema next to it."""
    sample_io.write_sample(sample, csv_path)
    mapping = {"g": "group", "w": "treatment",
               "s": "secondary:discrete" if sample.schema.secondary_discrete else "secondary",
               "y": "primary"}
    for spec in sample.schema.covariates:
        mapping[spec.name] = spec.kind
    with open(csv_path + ".schema.json", "w", encoding="utf-8") as fh:
        json.dump(mapping, fh, sort_keys=True)


def golden_sample():
    sample, _ = simulate.simulate_linear(simulate.SimConfig(**GOLDEN_CONFIG))
    return sample


def record_golden() -> dict:
    sample = golden_sample()
    return {
        "imputation": longfuse.GeneralImputation(nuisance="knn").fit(sample).tau_,
        "control-function": longfuse.ControlFunction(nuisance="knn").fit(sample).tau_,
    }


def _close(name, value, target, tol, problems):
    if not abs(value - target) <= tol:
        problems.append(f"{name}: {value!r} vs {target!r} (tolerance {tol:g})")


class Workload:
    name = ""
    csv_name = "sample.csv"
    # the reference task that sets host speed (run.HostClock)
    reference = "numeric"
    # set-up generates the input this many times; set-up time is the median
    setup_reps = 3

    def __init__(self, seed: int, workdir):
        self.seed = seed
        self.dir = workdir
        self.info = {}
        self.points = {}

    def path(self, name) -> str:
        return str(self.dir / name)

    def generate(self, rep: int):
        """Make the input; set-up repetition ``rep`` of ``setup_reps``."""
        raise NotImplementedError

    def argvs(self, index: int, op_seed: int, out: str) -> list:
        """The CLI calls of op ``index``; call k writes its report to ``out.k.json``."""
        raise NotImplementedError

    def check(self, index: int, reports):
        """Problems found in the reports of op ``index``, plus its (fits,
        replicates attempted, replicates failed)."""
        raise NotImplementedError

    def final_check(self) -> list:
        return []

    def _write_shuffled(self, sample, name=None, *key):
        """Write the sample's rows, in an order drawn from the seed, as CSV
        plus schema."""
        order = np.random.default_rng(derive_seed(self.seed, 2, *key)).permutation(sample.n)
        write_input(sample.take(order), self.path(name or self.csv_name))

    def _io(self, name=None):
        path = self.path(name or self.csv_name)
        return ["--input", path, "--schema", path + ".schema.json"]


class EstimateBinned(Workload):
    name = "estimate-binned"
    reference = "cells"
    methods = ("linear-cf", "linear-imputation", "weighting")
    # Independent data draws per run; op i runs on draw i % DRAWS. How many
    # weighting replicates fail positivity depends on the draw (from 0 to a
    # third of them), and a failed replicate costs about half a successful
    # one, so one draw per run made the op time a property of that draw.
    setup_reps = DRAWS = 8

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.truths = []
        self.info["dgp_redraws"] = []

    def generate(self, rep):
        for redraws in range(MAX_REDRAWS):
            config = simulate.SimConfig(
                n_experimental=20_000, n_observational=20_000,
                covariate_types=("categorical",), seed=derive_seed(self.seed, 1, rep, redraws),
                **LINEAR)
            sample, truth = simulate.simulate_linear(config)
            try:
                nonparam.GeneralWeighting(nuisance="binning", bins=BINS).fit(sample)
            except PositivityError:
                continue
            break
        else:
            raise RuntimeError(f"{MAX_REDRAWS} draws in a row fail the weighting point fit")
        self.info["dgp_redraws"].append(redraws)
        self.truths.append(truth)
        self._write_shuffled(sample, f"sample{rep}.csv", rep)

    def argvs(self, index, op_seed, out):
        return [["estimate", *self._io(f"sample{index % self.DRAWS}.csv"),
                 "--method", ",".join(self.methods),
                 "--nuisance", "binning", "--bins", str(BINS), "--bootstrap", "20",
                 "--seed", str(op_seed), "--out", f"{out}.0.json", "--no-timestamp"]]

    def check(self, index, reports):
        problems = []
        draw = index % self.DRAWS
        est = _estimates(reports[0])
        _close("linear-cf vs linear-imputation", est["linear-cf"]["tau_hat"],
               est["linear-imputation"]["tau_hat"], 1e-8, problems)
        w = est["weighting"]
        _close("weighting vs true tau", w["tau_hat"], self.truths[draw].tau_p,
               5 * w["bootstrap_se"], problems)
        _same_point(self, draw, est, problems)
        return problems, _bootstrap_tally(reports[0])


class AnalyzeCells(Workload):
    name = "analyze-cells"
    reference = "cells"
    min_rows = 40_000

    def generate(self, rep):
        dgp = simulate.simulate_discrete(derive_seed(self.seed, 1),
                                         n_x=4, n_secondary=4, n_primary=4)
        base = dgp.to_sample()
        copies = -(-self.min_rows // base.n)
        order = np.random.default_rng(derive_seed(self.seed, 2)).permutation(copies * base.n)
        write_input(base.take(order % base.n), self.path(self.csv_name))
        self.oracle_tau = oracle.identification_oracle(dgp).tau_identified

    def argvs(self, index, op_seed, out):
        return [
            ["estimate", *self._io(),
             "--method", "imputation,weighting,control-function",
             "--nuisance", "frequency", "--bootstrap", "3",
             "--seed", str(op_seed), "--out", f"{out}.0.json", "--no-timestamp"],
            ["diagnose", *self._io(),
             "--tests", "group-balance,secondary-gap,surrogacy",
             "--diagnostic-method", "permutation", "--permutations", "49",
             "--seed", str(op_seed), "--out", f"{out}.1.json", "--no-timestamp"],
        ]

    def check(self, index, reports):
        problems = []
        est = _estimates(reports[0])
        # unshifted tables: every general route identifies the oracle exactly
        for m in ("imputation", "weighting", "control-function"):
            _close(f"{m} vs identification oracle", est[m]["tau_hat"], self.oracle_tau,
                   1e-10, problems)
        diags = reports[1]["diagnostics"]
        for t in ("group-balance", "surrogacy"):
            if not 0.0 <= diags[t]["p_value"] <= 1.0:
                problems.append(f"{t}: p-value {diags[t]['p_value']!r}")
        if not math.isfinite(diags["secondary-gap"]["difference"]):
            problems.append("secondary-gap: non-finite difference")
        return problems, _bootstrap_tally(reports[0])


class MonteCarloLinear(Workload):
    name = "montecarlo-linear"
    methods = ("naive", "linear-cf", "linear-imputation")

    def generate(self, rep):
        config = simulate.SimConfig(
            n_experimental=20_000, n_observational=20_000,
            covariate_types=("continuous", "categorical"), seed=derive_seed(self.seed, 1),
            **LINEAR)
        with open(self.path("sim.json"), "w", encoding="utf-8") as fh:
            json.dump(config.to_dict(), fh, sort_keys=True)
        self.truth = simulate.true_tau(config)

    def argvs(self, index, op_seed, out):
        return [["bench", "--config", self.path("sim.json"),
                 "--methods", ",".join(self.methods), "--replicates", "10",
                 "--seed", str(op_seed), "--out", f"{out}.0.json", "--no-timestamp"]]

    def check(self, index, reports):
        problems = []
        rows = {r["estimator"]: r for r in reports[0]["results"]}
        _close("linear-cf vs linear-imputation mean", rows["linear-cf"]["mean"],
               rows["linear-imputation"]["mean"], 1e-8, problems)
        _close("naive bias vs analytic naive bias", rows["naive"]["bias"],
               self.truth.naive_bias_p, 5 * rows["naive"]["mc_se"], problems)
        replicates = reports[0]["config"]["replicates"]
        # bench aborts on a failed replicate, so a finished op failed none
        return problems, (replicates * len(rows), replicates, 0)


class KnnContinuous(Workload):
    name = "knn-continuous"
    methods = ("imputation", "control-function")

    def generate(self, rep):
        config = simulate.SimConfig(
            n_experimental=1_000, n_observational=1_000,
            covariate_types=("continuous", "continuous"), seed=derive_seed(self.seed, 1),
            **LINEAR)
        sample, _ = simulate.simulate_linear(config)
        self._write_shuffled(sample)

    def argvs(self, index, op_seed, out):
        return [["estimate", *self._io(), "--method", ",".join(self.methods),
                 "--nuisance", "knn", "--bootstrap", "2",
                 "--seed", str(op_seed), "--out", f"{out}.0.json", "--no-timestamp"]]

    def check(self, index, reports):
        problems = []
        # golden values check the code (final_check)
        _same_point(self, 0, _estimates(reports[0]), problems)
        return problems, _bootstrap_tally(reports[0])

    def final_check(self):
        problems = []
        write_input(golden_sample(), self.path("golden.csv"))
        out = self.path("golden.json")
        rc = cli.main(["estimate", *self._io("golden.csv"),
                       "--method", ",".join(self.methods), "--nuisance", "knn",
                       "--bootstrap", "0", "--out", out, "--no-timestamp"])
        if rc != 0:
            return [f"golden op exited {rc}"]
        with open(out, encoding="utf-8") as fh:
            est = _estimates(json.load(fh))
        for m in self.methods:
            _close(f"{m} vs golden", est[m]["tau_hat"], GOLDEN[m], 1e-9, problems)
        return problems


WORKLOADS = {w.name: w for w in (EstimateBinned, AnalyzeCells, MonteCarloLinear, KnnContinuous)}


if __name__ == "__main__":
    json.dump(record_golden(), sys.stdout, indent=4)
    sys.stdout.write("\n")
