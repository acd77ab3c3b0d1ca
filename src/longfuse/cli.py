"""Command-line interface: estimate, diagnose, simulate, bench.

Reports are JSON (schema_version 1) with the fully resolved configuration
echoed for auditability; identical configuration and seed produce
byte-identical reports when --no-timestamp is set.
"""

import argparse
import dataclasses
import json
import sys
from datetime import datetime, timezone

import numpy as np

from .binary import BinaryImputation, BinaryWeighting
from .diagnostics import (
    PERMUTATION,
    REGRESSION,
    compare_secondary_effects,
    surrogacy_check,
    group_balance_test,
)
from .exceptions import EstimationError, LongfuseError, ValidationError
from .inference import NaiveObservational, config_fingerprint, estimate_with_bootstrap
from .linear import LinearControlFunction, LinearImputation
from .nonparam import ControlFunction, GeneralImputation, GeneralWeighting
from .ols import design_matrix, ols
from .sample import load_sample, write_sample
from .schema import load_schema
from .simulate import SimConfig, replicate_seeds, simulate_linear, true_tau

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_ESTIMATION = 3

ESTIMATE_METHODS = (
    "binary-imputation",
    "binary-weighting",
    "linear-cf",
    "linear-imputation",
    "imputation",
    "weighting",
    "control-function",
)

DIAGNOSTIC_TESTS = ("group-balance", "secondary-gap", "surrogacy")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="longfuse",
        description="Estimate treatment effects on a long-term outcome by combining "
                    "an experimental and an observational sample.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    est = sub.add_parser("estimate", help="run estimators on a combined sample")
    est.add_argument("--input", required=True, help="sample CSV path")
    est.add_argument("--schema", required=True, help="schema JSON path (column -> role)")
    est.add_argument("--method", default="linear-cf",
                     help="comma-separated list from: " + ", ".join(ESTIMATE_METHODS))
    est.add_argument("--nuisance", default="frequency",
                     choices=("frequency", "knn", "binning"))
    est.add_argument("--knn-k", type=int, default=None)
    est.add_argument("--bins", type=int, default=20)
    est.add_argument("--trim", type=float, default=0.01)
    est.add_argument("--experimental-design", default="randomized",
                     choices=("randomized", "unconfounded"))
    est.add_argument("--bootstrap", type=int, default=200)
    est.add_argument("--seed", type=int, default=None)
    _common_output_flags(est)

    diag = sub.add_parser("diagnose", help="run specification diagnostics")
    diag.add_argument("--input", required=True)
    diag.add_argument("--schema", required=True)
    diag.add_argument("--tests", default=",".join(DIAGNOSTIC_TESTS))
    diag.add_argument("--diagnostic-method", default=REGRESSION,
                      choices=(REGRESSION, PERMUTATION))
    diag.add_argument("--permutations", type=int, default=999)
    diag.add_argument("--max-cells", type=int, default=50)
    diag.add_argument("--seed", type=int, default=None)
    _common_output_flags(diag)

    sim = sub.add_parser("simulate", help="draw a sample from a configured DGP")
    sim.add_argument("--config", required=True, help="simulation config JSON")
    sim.add_argument("--out", required=True, help="sample CSV output path")
    sim.add_argument("--truth", default=None, help="truth JSON output path")
    sim.add_argument("--schema-out", default=None,
                     help="write the matching schema JSON for reloading the CSV")

    bench = sub.add_parser("bench", help="Monte Carlo benchmark of estimators on a DGP")
    bench.add_argument("--config", required=True)
    bench.add_argument("--replicates", type=int, default=100)
    bench.add_argument("--methods", default="linear-cf,linear-imputation,naive")
    bench.add_argument("--nuisance", default="frequency",
                       choices=("frequency", "knn", "binning"))
    bench.add_argument("--knn-k", type=int, default=None)
    bench.add_argument("--bins", type=int, default=20)
    bench.add_argument("--trim", type=float, default=0.01)
    bench.add_argument("--experimental-design", default="randomized",
                       choices=("randomized", "unconfounded"))
    bench.add_argument("--seed", type=int, default=None)
    bench.add_argument("--format", default="json", choices=("json", "csv"))
    _common_output_flags(bench)
    return parser


def _common_output_flags(parser):
    parser.add_argument("--out", default=None, help="output path (default: stdout)")
    parser.add_argument("--no-timestamp", action="store_true",
                        help="omit the timestamp so reports are byte-reproducible")


def _make_estimator(method: str, args):
    if method == "binary-imputation":
        return BinaryImputation()
    if method == "binary-weighting":
        return BinaryWeighting()
    if method == "linear-cf":
        return LinearControlFunction()
    if method == "linear-imputation":
        return LinearImputation()
    if method == "imputation":
        return GeneralImputation(nuisance=args.nuisance, k=args.knn_k, trim=args.trim)
    if method == "weighting":
        return GeneralWeighting(nuisance=args.nuisance, bins=args.bins,
                                experimental_design=args.experimental_design,
                                trim=args.trim)
    if method == "control-function":
        return ControlFunction(nuisance=args.nuisance, k=args.knn_k)
    raise ValidationError(f"unknown method {method!r}; expected one of "
                          + ", ".join(ESTIMATE_METHODS))


def _require_seed(args) -> int:
    if args.seed is None:
        raise ValidationError("--seed is required whenever a stochastic step runs")
    return args.seed


def _load_validated(input_path, schema):
    """Load-phase failures are validation failures, including empty strata."""
    try:
        return load_sample(input_path, schema)
    except FileNotFoundError:
        raise ValidationError(f"file not found: {input_path}") from None
    except EstimationError as exc:
        raise ValidationError(str(exc)) from None


def _emit(payload: dict, args) -> None:
    if not args.no_timestamp:
        payload["timestamp"] = datetime.now(timezone.utc).isoformat()
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _reference_comparisons(sample) -> dict:
    """The regression-table workflow: per-sample secondary effects, the naive
    primary regression, and the surrogacy check."""
    gap = compare_secondary_effects(sample)
    mask = sample.mask(group="O")
    X, names = design_matrix(sample, mask)
    naive_reg = ols(sample.primary[mask], X, names)
    surrogacy = surrogacy_check(sample)
    return {
        "secondary_gap": gap.to_dict(),
        "primary_naive_regression": {
            "coefficient": naive_reg.coef("treatment"),
            "se": naive_reg.se_of("treatment"),
        },
        "surrogacy": surrogacy.to_dict(),
    }


def _name_list(text: str, flag: str, noun: str) -> list[str]:
    names = [m.strip() for m in text.split(",") if m.strip()]
    if not names:
        raise ValidationError(f"{flag} names no {noun}")
    return names


def _cmd_estimate(args) -> int:
    methods = _name_list(args.method, "--method", "estimator")
    for m in methods:
        if m not in ESTIMATE_METHODS:
            raise ValidationError(f"unknown method {m!r}; expected one of "
                                  + ", ".join(ESTIMATE_METHODS))
    seed = _require_seed(args) if args.bootstrap > 0 else (args.seed or 0)
    schema = load_schema(args.schema)
    sample = _load_validated(args.input, schema)

    config = {
        "command": "estimate",
        "input": args.input,
        "schema": args.schema,
        "methods": methods,
        "nuisance": args.nuisance,
        "knn_k": args.knn_k,
        "bins": args.bins,
        "trim": args.trim,
        "experimental_design": args.experimental_design,
        "bootstrap": args.bootstrap,
        "seed": seed,
    }
    fingerprint = config_fingerprint(config)
    estimators = [NaiveObservational()] + [_make_estimator(m, args) for m in methods]
    reports = estimate_with_bootstrap(estimators, sample, n_bootstrap=args.bootstrap,
                                      seed=seed, fingerprint=fingerprint)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "config": config,
        "config_fingerprint": fingerprint,
        "estimates": [r.to_dict() for r in reports],
        "comparisons": _reference_comparisons(sample),
        "load_warnings": [w.to_dict() for w in sample.load_warnings],
    }
    _emit(payload, args)
    return EXIT_OK


def _cmd_diagnose(args) -> int:
    tests = _name_list(args.tests, "--tests", "diagnostic")
    for t in tests:
        if t not in DIAGNOSTIC_TESTS:
            raise ValidationError(f"unknown diagnostic {t!r}; expected one of "
                                  + ", ".join(DIAGNOSTIC_TESTS))
    seed = args.seed
    if args.diagnostic_method == PERMUTATION and "group-balance" in tests:
        seed = _require_seed(args)
    schema = load_schema(args.schema)
    sample = _load_validated(args.input, schema)

    config = {
        "command": "diagnose",
        "input": args.input,
        "schema": args.schema,
        "tests": tests,
        "diagnostic_method": args.diagnostic_method,
        "permutations": args.permutations,
        "max_cells": args.max_cells,
        "seed": seed,
    }
    results = {}
    for t in tests:
        if t == "group-balance":
            report = group_balance_test(
                sample, method=args.diagnostic_method, seed=seed or 0,
                n_permutations=args.permutations, max_cells=args.max_cells)
            results[t] = report.to_dict()
        elif t == "secondary-gap":
            results[t] = compare_secondary_effects(sample).to_dict()
        else:
            results[t] = surrogacy_check(sample).to_dict()
    payload = {
        "schema_version": SCHEMA_VERSION,
        "config": config,
        "config_fingerprint": config_fingerprint(config),
        "diagnostics": results,
        "load_warnings": [w.to_dict() for w in sample.load_warnings],
    }
    _emit(payload, args)
    return EXIT_OK


def _load_sim_config(path) -> SimConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ValidationError(f"file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ValidationError(f"simulation config {path}: invalid JSON ({exc})") from None
    return SimConfig.from_dict(raw)


def _cmd_simulate(args) -> int:
    config = _load_sim_config(args.config)
    sample, truth = simulate_linear(config)
    write_sample(sample, args.out)
    if args.truth:
        with open(args.truth, "w", encoding="utf-8") as fh:
            json.dump({
                "tau_p": truth.tau_p,
                "tau_s": truth.tau_s,
                "naive_bias_p": truth.naive_bias_p,
                "naive_bias_s": truth.naive_bias_s,
            }, fh, sort_keys=True, indent=2)
            fh.write("\n")
    if args.schema_out:
        mapping = {"g": "group", "w": "treatment", "s": "secondary", "y": "primary"}
        for spec in sample.schema.covariates:
            mapping[spec.name] = spec.kind
        with open(args.schema_out, "w", encoding="utf-8") as fh:
            json.dump(mapping, fh, sort_keys=True, indent=2)
            fh.write("\n")
    return EXIT_OK


def _cmd_bench(args) -> int:
    methods = _name_list(args.methods, "--methods", "estimator")
    config = _load_sim_config(args.config)
    seed = _require_seed(args)
    if args.replicates < 2:
        # one replicate cannot form a Monte Carlo standard error
        raise ValidationError("--replicates must be at least 2")
    estimators = {}
    for m in methods:
        estimators[m] = NaiveObservational() if m == "naive" else _make_estimator(m, args)
    truth = true_tau(config)
    taus = {m: [] for m in methods}
    for rep_seed in replicate_seeds(seed, args.replicates):
        sample, _ = simulate_linear(dataclasses.replace(config, seed=rep_seed))
        for m, est in estimators.items():
            try:
                taus[m].append(est.clone().fit(sample).tau_)
            except EstimationError:
                pass  # counted below as a failed replicate
    rows = []
    for m in methods:
        values = np.asarray(taus[m])
        if len(values) == 0:
            raise EstimationError(
                f"bench: estimator {m!r} failed on all {args.replicates} replicates")
        if len(values) == 1:
            raise EstimationError(
                f"bench: estimator {m!r} succeeded on only 1 of {args.replicates} "
                "replicates; cannot form a Monte Carlo SE")
        bias = float(values.mean() - truth.tau_p)
        sd = float(values.std(ddof=1))
        rows.append({
            "estimator": m,
            "mean": float(values.mean()),
            "bias": bias,
            "sd": sd,
            "rmse": float(np.sqrt(np.mean((values - truth.tau_p) ** 2))),
            "mc_se": float(sd / np.sqrt(len(values))),
            "n_failed": args.replicates - len(values),
        })
    if args.format == "csv":
        lines = ["estimator,mean,bias,sd,rmse,mc_se"]
        for r in rows:
            lines.append("{estimator},{mean!r},{bias!r},{sd!r},{rmse!r},{mc_se!r}".format(**r))
        text = "\n".join(lines) + "\n"
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        return EXIT_OK
    payload = {
        "schema_version": SCHEMA_VERSION,
        "config": {
            "command": "bench",
            "sim_config": config.to_dict(),
            "replicates": args.replicates,
            "methods": methods,
            "nuisance": args.nuisance,
            "knn_k": args.knn_k,
            "bins": args.bins,
            "trim": args.trim,
            "experimental_design": args.experimental_design,
            "seed": seed,
        },
        "truth": {"tau_p": truth.tau_p, "tau_s": truth.tau_s,
                  "naive_bias_p": truth.naive_bias_p, "naive_bias_s": truth.naive_bias_s},
        "results": rows,
    }
    payload["config_fingerprint"] = config_fingerprint(payload["config"])
    _emit(payload, args)
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "estimate": _cmd_estimate,
        "diagnose": _cmd_diagnose,
        "simulate": _cmd_simulate,
        "bench": _cmd_bench,
    }
    try:
        return handlers[args.command](args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except EstimationError as exc:
        print(f"estimation error: {exc}", file=sys.stderr)
        return EXIT_ESTIMATION
    except LongfuseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
