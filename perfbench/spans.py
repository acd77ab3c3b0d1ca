"""Per-layer tracing from outside the package.

The tracer replaces each public callable of ``longfuse`` at the place where
its caller looks it up (a module global, or a method on its class) with a
wrapper that records a span: name, start, end, parent span and op id. Spans
stay in memory and are written out when the benchmark ends. Nothing inside
``src/`` changes; ``uninstall`` puts every original back, so untraced ops run
on pristine code.

A target that does not exist (after a later rename, say) is recorded as
absent and its metrics read 0; it never crashes the run.
"""

import importlib
import inspect
import statistics
from collections import Counter
from time import perf_counter

PERMUTATION = "permutation"


def _bind(fn, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _knn_pairs(n_queries, n_reference, d):
    # computed from shapes: distances the brute-force search evaluates
    pairs = n_queries * n_reference
    return {"nuisance.knn.pairs": pairs, "nuisance.knn.bytes": pairs * d * 8}


def _count_rows(fn, args, kwargs, result):
    return {"sample.load_sample.rows": result.n}


def _count_queries(layer):
    def count(fn, args, kwargs, result):
        return {f"{layer}.queries": len(_bind(fn, args, kwargs)["w"])}
    return count


def _count_rank_queries(fn, args, kwargs, result):
    a = _bind(fn, args, kwargs)
    w = a["w"]
    out = {"nuisance.SecondaryRankFit.evaluate.queries": len(w)}
    fit = a["self"]
    if fit.method == "knn":
        for arm, (Z, *_rest) in fit._knn.items():
            n_q = int((w == arm).sum())
            for key, v in _knn_pairs(n_q, Z.shape[0], Z.shape[1]).items():
                out[key] = out.get(key, 0) + v
    return out


def _count_knn_predict(fn, args, kwargs, result):
    model = _bind(fn, args, kwargs)["self"]
    return _knn_pairs(len(result), model._Z.shape[0], model._Z.shape[1])


def _count_bootstrap(fn, args, kwargs, result):
    n = int(_bind(fn, args, kwargs)["n_bootstrap"])
    return {"inference.bootstrap_estimates.replicates": n,
            "inference.bootstrap_estimates.failed": int(result[1])}


def _count_permutations(fn, args, kwargs, result):
    a = _bind(fn, args, kwargs)
    n = int(a["n_permutations"]) if a["method"] == PERMUTATION else 0
    return {"diagnostics.group_balance_test.permutations": n}


# (layer name, lookup sites "module:attr[.method]", counter)
TARGETS = (
    ("cli.main", ("longfuse.cli:main",), None),
    ("sample.load_sample", ("longfuse.cli:load_sample",), _count_rows),
    ("sample.write_sample", ("longfuse.sample:write_sample", "longfuse.cli:write_sample"), None),
    ("sample.bootstrap_resample", ("longfuse.inference:bootstrap_resample",), None),
    ("simulate.simulate_linear",
     ("longfuse.simulate:simulate_linear", "longfuse.cli:simulate_linear"), None),
    ("simulate.true_tau", ("longfuse.simulate:true_tau", "longfuse.cli:true_tau"), None),
    ("ols.ols", ("longfuse.linear:ols", "longfuse.cli:ols", "longfuse.diagnostics:ols"), None),
    ("linear.LinearControlFunction.fit", ("longfuse.linear:LinearControlFunction.fit",), None),
    ("linear.LinearImputation.fit", ("longfuse.linear:LinearImputation.fit",), None),
    ("nuisance.fit_density_ratio", ("longfuse.nonparam:fit_density_ratio",), None),
    ("nuisance.DensityRatioFit.ratio", ("longfuse.nuisance:DensityRatioFit.ratio",),
     _count_queries("nuisance.DensityRatioFit.ratio")),
    ("nuisance.fit_primary_outcome_model",
     ("longfuse.nonparam:fit_primary_outcome_model",), None),
    ("nuisance.fit_rank_outcome_model", ("longfuse.nonparam:fit_rank_outcome_model",), None),
    ("nuisance.ConditionalMeanFit.evaluate", ("longfuse.nuisance:ConditionalMeanFit.evaluate",),
     _count_queries("nuisance.ConditionalMeanFit.evaluate")),
    ("nuisance.fit_selection_odds", ("longfuse.nonparam:fit_selection_odds",), None),
    ("nuisance.fit_secondary_rank", ("longfuse.nonparam:fit_secondary_rank",), None),
    ("nuisance.SecondaryRankFit.evaluate", ("longfuse.nuisance:SecondaryRankFit.evaluate",),
     _count_rank_queries),
    ("nuisance.KnnMean.predict", ("longfuse.nuisance:KnnMean.predict",), _count_knn_predict),
    ("nonparam.GeneralWeighting.fit", ("longfuse.nonparam:GeneralWeighting.fit",), None),
    ("nonparam.GeneralImputation.fit", ("longfuse.nonparam:GeneralImputation.fit",), None),
    ("nonparam.ControlFunction.fit", ("longfuse.nonparam:ControlFunction.fit",), None),
    ("inference.estimate_with_bootstrap", ("longfuse.cli:estimate_with_bootstrap",), None),
    ("inference.bootstrap_estimates", ("longfuse.inference:bootstrap_estimates",),
     _count_bootstrap),
    ("diagnostics.group_balance_test", ("longfuse.cli:group_balance_test",),
     _count_permutations),
    ("diagnostics.compare_secondary_effects",
     ("longfuse.cli:compare_secondary_effects",), None),
    ("diagnostics.surrogacy_check", ("longfuse.cli:surrogacy_check",), None),
)

SPAN_STATS = ("calls", "busy_s", "self_s")
TIME_STATS = ("busy_s", "self_s")
# counters the wrappers record, besides the span stats of every layer
COUNTERS = (
    "sample.load_sample.rows",
    "nuisance.DensityRatioFit.ratio.queries",
    "nuisance.ConditionalMeanFit.evaluate.queries",
    "nuisance.SecondaryRankFit.evaluate.queries",
    "nuisance.knn.pairs",
    "nuisance.knn.bytes",
    "inference.bootstrap_estimates.replicates",
    "inference.bootstrap_estimates.failed",
    "diagnostics.group_balance_test.permutations",
)
DERIVED = ("inference.bootstrap_estimates.ok_ratio",)
# layers that run only while the benchmark sets up: reported per setup
# repetition instead of per op
SETUP_LAYERS = ("sample.write_sample",)


def known_metric(name: str) -> bool:
    layer, _, stat = name.rpartition(".")
    return (name in COUNTERS or name in DERIVED
            or (stat in SPAN_STATS and any(layer == t[0] for t in TARGETS)))


def _resolve(site):
    """(owner object, attribute) for a lookup site, or None if absent."""
    module_name, _, path = site.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for p in parents:
        owner = getattr(owner, p, None)
        if owner is None:
            return None
    if not hasattr(owner, attr):
        return None
    return owner, attr


class Tracer:
    """Records spans while installed; ``op`` labels the spans of one op."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, op id, counts]
        self.absent = set()
        self.op = None
        self._stack = []
        self._saved = []

    def install(self):
        for layer, sites, counter in TARGETS:
            for site in sites:
                found = _resolve(site)
                if found is None:
                    self.absent.add(site)
                    continue
                owner, attr = found
                original = inspect.getattr_static(owner, attr)
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(layer, original, counter))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, layer, fn, counter):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            rec = [layer, 0.0, 0.0, stack[-1] if stack else None, self.op, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if counter is not None:
                try:
                    rec[5] = counter(fn, args, kwargs, result)
                except (AttributeError, KeyError, TypeError, ValueError):
                    # the counter reads a shape this code no longer has
                    self.absent.add(f"counter:{layer}")
            return result

        traced.__wrapped__ = fn
        return traced

    def dump(self):
        return [{"name": n, "start": s, "end": e, "parent": p, "op": op, "counts": c}
                for n, s, e, p, op, c in self.spans]

    def op_stats(self, op) -> dict:
        """Span stats and counters summed over the spans of one op."""
        child_time = Counter()
        for _, s, e, parent, span_op, _ in self.spans:
            if span_op == op and parent is not None:
                child_time[parent] += e - s
        out = Counter()
        for i, (name, s, e, parent, span_op, counts) in enumerate(self.spans):
            if span_op != op:
                continue
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += (e - s) - child_time[i]
            if not self._inside_same_layer(parent, name):
                out[f"{name}.busy_s"] += e - s
            out.update(counts or {})
        reps = out.get("inference.bootstrap_estimates.replicates", 0)
        if reps:
            failed = out.get("inference.bootstrap_estimates.failed", 0)
            out["inference.bootstrap_estimates.ok_ratio"] = (reps - failed) / reps
        return dict(out)

    def _inside_same_layer(self, parent, name) -> bool:
        while parent is not None:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False


def counts_only(stats: dict) -> dict:
    """The exact counts of an op: everything except times."""
    return {k: v for k, v in stats.items() if k.rpartition(".")[2] not in TIME_STATS}


def per_layer_values(names, op_stats, count_op, setup_stats) -> dict:
    """Per-layer metric values.

    Times are medians over the traced ops; counts come from ``count_op``
    alone, so they repeat exactly for a given seed. Layers in
    ``SETUP_LAYERS`` are medians over the setup repetitions.
    """
    out = {}
    for name in names:
        layer, _, stat = name.rpartition(".")
        if layer in SETUP_LAYERS:
            out[name] = statistics.median(s.get(name, 0) for s in setup_stats)
        elif stat in TIME_STATS:
            out[name] = statistics.median(s.get(name, 0.0) for s in op_stats)
        else:
            out[name] = count_op.get(name, 0)
    return out
