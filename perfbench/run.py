"""longfuse benchmark: one workload, one process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The package is imported from ``src/`` of that
root; nothing is installed. One op is an in-process call (or two) to
``longfuse.cli.main`` on inputs generated from ``--seed``. The last line of
standard output is the result as one JSON object. README.md says what each
workload and metric is for.
"""

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / "perfbench" / ".work"
MIN_OPS = 2
EXIT_PRECONDITION = 2
# Two BLAS threads give the same op wall time as one on 2 cores but twice the
# CPU time, and their op-to-op spread was twice as wide.
BLAS_THREADS = 1
END_TO_END = {"setup_s", "op_p50_s", "fits_per_s", "replicate_ok_frac", "peak_rss_mb"}
TRACE_METRICS = {"perfbench.op_p50_traced_s", "perfbench.trace_overhead_s",
                 "perfbench.op_wall_p50_s", "perfbench.host_speed"}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(EXIT_PRECONDITION)


def load_spec():
    try:
        with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        fail(f"cannot read BENCHMARK.json: {exc}")


# -- environment ---------------------------------------------------------------


def _openblas():
    """(get, set) thread-count functions of numpy's OpenBLAS, or None."""
    import numpy as np

    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "lib*openblas*.so*")):
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_", ""):
            for suffix in ("64_", ""):
                get = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
                put = getattr(lib, f"{prefix}openblas_set_num_threads{suffix}", None)
                if get is not None and put is not None:
                    get.restype = ctypes.c_int
                    put.argtypes = [ctypes.c_int]
                    return get, put
    return None


def _git_sha():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None  # not a git checkout


def _source_digest():
    """Digest of the package and of this benchmark's own code."""
    h = hashlib.sha256()
    for path in sorted([*(ROOT / "src" / "longfuse").glob("*.py"), *WORK.parent.glob("*.py")]):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def environment(args):
    """Machine and build facts. Pins BLAS to one thread (see README.md)."""
    import numpy as np

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    threads = None
    funcs = _openblas()
    if funcs is not None:
        get, put = funcs
        put(BLAS_THREADS)
        threads = get()
    return {"workload": args.workload, "seed": args.seed,
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "blas_threads": threads, "git_sha": _git_sha(),
            "source_digest": _source_digest()}


# -- host speed ----------------------------------------------------------------


class HostClock:
    """Converts wall time to seconds at a fixed reference host speed.

    The CPU speed a process gets on a shared host drifts by up to a factor of
    two over tens of seconds, because of other tenants of the same cores (see
    README.md). A fixed reference task that does not use longfuse runs right
    before and right after every timed section, and the section's wall time
    is scaled by the task's nominal time over the mean time of the two tasks
    around it. A faster longfuse shortens the section and leaves the task
    alone, so the scaled time moves with the program and not with the host.

    Host contention slows interpreter-bound and array-bound code by different
    amounts, so each workload names the task whose work resembles its op:
    ``cells`` counts rows of small arrays into a dict, as the cell kernels
    do, then sorts and takes dot products; ``numeric`` is an integer loop
    plus numpy sorting, counting and dot products.
    """

    def __init__(self, task):
        import numpy as np

        self._np = np
        rng = np.random.default_rng(0)
        self._data = rng.standard_normal(200_000)
        self._x = rng.integers(0, 5, size=(12_000, 2)).astype(np.float64)
        self._s = rng.integers(0, 50, size=12_000).astype(np.float64)
        self._g = rng.integers(0, 2, size=12_000)
        self._task, self._nominal_s = {"cells": (self._cells, 0.026),
                                       "numeric": (self._numeric, 0.045)}[task]
        self.speeds = []
        self._task()  # first numpy calls are slower
        self._before = self._task()

    def _cells(self):
        np, a, x, s, g = self._np, self._data, self._x, self._s, self._g
        start = perf_counter()
        counts = {}
        for i in range(len(s)):
            key = (int(g[i]), tuple(x[i]), float(s[i]))
            counts[key] = counts.get(key, 0) + 1
        for _ in range(8):
            np.sort(a)
            a @ a
        return perf_counter() - start

    def _numeric(self):
        np, a = self._np, self._data
        start = perf_counter()
        acc = 0
        for i in range(300_000):
            acc += i * i % 7
        for _ in range(8):
            np.sort(a)
            np.bincount((a * 10).astype(np.int64) & 63)
            a @ a
        return perf_counter() - start

    def scaled(self, wall_s):
        """Scale the section that just ended; the reference task after it is
        also the one before the next section."""
        after = self._task()
        speed = self._nominal_s / (0.5 * (self._before + after))
        self._before = after
        self.speeds.append(speed)
        return wall_s * speed


# -- ops -----------------------------------------------------------------------


class Op:
    def __init__(self, label, traced, wall_s, seconds, problems, raw=(), tally=(0, 0, 0)):
        self.label = label
        self.traced = traced
        self.wall_s = wall_s
        self.seconds = seconds  # at reference host speed
        self.problems = problems
        self.raw = raw
        self.fits, self.replicates, self.replicates_failed = tally

    @property
    def ok(self):
        return not self.problems


def run_op(wl, clock, index, label, tracer=None):
    """One op: the workload's CLI calls with the op's own seed, timed until
    the last report is written, then checked."""
    import longfuse.cli as cli
    from workloads import derive_seed

    argvs = wl.argvs(index, derive_seed(wl.seed, 9, index), str(wl.dir / label))
    outs = [argv[argv.index("--out") + 1] for argv in argvs]
    problems = []
    if tracer is not None:
        tracer.op = label
        tracer.install()
    start = perf_counter()
    try:
        for argv in argvs:
            rc = cli.main(argv)
            if rc != 0:
                problems.append(f"{argv[0]} exited {rc}")
                break
    except (Exception, SystemExit) as exc:  # a crashing op fails, the run goes on
        traceback.print_exc(file=sys.stderr)
        problems.append(f"{argv[0]} raised {exc!r}")
    wall_s = perf_counter() - start
    if tracer is not None:
        tracer.uninstall()
    seconds = clock.scaled(wall_s)
    if problems:
        return Op(label, tracer is not None, wall_s, seconds, problems)
    raw = []
    for out in outs:
        with open(out, "rb") as fh:
            raw.append(fh.read())
    try:
        found, tally = wl.check(index, [json.loads(r) for r in raw])
    except (KeyError, TypeError, ValueError) as exc:
        found, tally = [f"malformed report: {exc!r}"], (0, 0, 0)
    return Op(label, tracer is not None, wall_s, seconds, found, raw, tally)


# -- main ----------------------------------------------------------------------


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = load_spec()
    names = {w["name"] for w in spec["workloads"]}
    if args.workload not in names:
        fail(f"unknown workload {args.workload!r}; expected one of {sorted(names)}")
    if "LONGFUSE_THREADS" in os.environ:
        fail("LONGFUSE_THREADS must be unset: each workload runs in one thread")
    if not (ROOT / "src" / "longfuse" / "__init__.py").is_file():
        fail(f"no package source at {ROOT / 'src' / 'longfuse'}")

    start = perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import longfuse.cli as cli
    import_s = perf_counter() - start
    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        fail(f"imported longfuse from {cli.__file__}, not from {ROOT / 'src'}")
    from spans import known_metric

    e2e_names = [m["name"] for m in spec["end_to_end"]]
    layer_names = [m["name"] for m in spec["per_layer"]]
    unknown = [n for n in e2e_names if n not in END_TO_END]
    unknown += [n for n in layer_names if not (known_metric(n) or n in TRACE_METRICS)]
    if unknown:
        fail(f"BENCHMARK.json names metrics this benchmark does not measure: {unknown}")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    env = environment(args)
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        result, info = measure(args, env, workdir, import_s, layer_names)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    chosen = layer_names if args.trace else e2e_names
    for n in chosen:
        print(f"{n:44s} {result[n]:.6g} {units[n]}")
    print("info " + json.dumps(info, sort_keys=True, default=str))
    print(json.dumps({"correct": info["correct"], "attempted": info["attempted"],
                      "failed": info["failed"],
                      "metrics": {n: {"value": result[n], "unit": units[n]} for n in chosen}}))


def measure(args, env, workdir, import_s, layer_names):
    import workloads
    from spans import Tracer

    wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
    tracer = Tracer() if args.trace else None
    clock = HostClock(wl.reference)
    problems = []

    gen_s, setup_stats = [], []
    for rep in range(wl.setup_reps):
        label = f"setup{rep}"
        if tracer is not None:
            tracer.op = label
            tracer.install()
        t = perf_counter()
        wl.generate(rep)
        gen_s.append(clock.scaled(perf_counter() - t))
        if tracer is not None:
            tracer.uninstall()
            setup_stats.append(tracer.op_stats(label))
    warm = run_op(wl, clock, 0, "op0")
    problems += [f"warm-up: {p}" for p in warm.problems]
    setup_s = import_s + statistics.median(gen_s) + warm.seconds

    # timed ops; in a traced run odd ops are traced and even ops are not
    ops = []
    start = perf_counter()
    while perf_counter() - start < args.seconds or len(ops) < MIN_OPS:
        i = len(ops) + 1
        traced = tracer is not None and i % 2 == 1
        ops.append(run_op(wl, clock, i, f"op{i}", tracer if traced else None))
    measured_s = perf_counter() - start

    problems += [f"final check: {p}" for p in wl.final_check()]

    good = [op for op in ops if op.ok] or ops
    replicates = sum(op.replicates for op in good)
    replicates_failed = sum(op.replicates_failed for op in good)
    result = {
        "setup_s": setup_s,
        "op_p50_s": statistics.median(op.seconds for op in good),
        "fits_per_s": sum(op.fits for op in good) / sum(op.seconds for op in good),
        "replicate_ok_frac": (1.0 - replicates_failed / replicates) if replicates else 1.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "perfbench.op_wall_p50_s": statistics.median(
            op.wall_s for op in ([op for op in good if not op.traced] or good)),
        "perfbench.host_speed": statistics.median(clock.speeds),
    }
    info = {
        "env": env, "trace": args.trace,
        "import_s": import_s, "generate_s": gen_s, "warmup_s": warm.seconds,
        "measured_s": measured_s, "op_seconds": [op.seconds for op in ops],
        "op_wall_s": [op.wall_s for op in ops], "host_speed": clock.speeds,
        "replicates": replicates, "replicates_failed": replicates_failed,
        "replicate_fail_frac": replicates_failed / replicates if replicates else 0.0,
        "workload_info": wl.info,
    }
    if tracer is not None:
        problems += traced_metrics(args, env, wl, clock, tracer, ops, setup_stats,
                                   layer_names, result, info)
    failed = [op for op in ops if not op.ok]
    for op in failed:
        problems += [f"{op.label}: {p}" for p in op.problems]
    info.update(correct=not problems, attempted=len(ops), failed=len(failed),
                problems=problems)
    return result, info


def traced_metrics(args, env, wl, clock, tracer, ops, setup_stats, layer_names, result, info):
    """Per-layer metrics from the traced ops, the tracing overhead, and the
    repeat checks. Returns the problems found."""
    from spans import counts_only, per_layer_values

    # op 1 again, traced, with its own seed: the report must be byte-identical
    # and every count must repeat exactly
    problems = []
    again = run_op(wl, clock, 1, "op1-repeat", tracer)
    if again.ok and ops[0].ok and again.raw != ops[0].raw:
        ops[0].problems.append("re-run with the same seed gave a different report")
    problems += [f"re-run: {p}" for p in again.problems]
    traced = [op for op in ops if op.traced] + [again]
    untraced = [op for op in ops if not op.traced]
    stats = {op.label: tracer.op_stats(op.label) for op in traced}
    counts = counts_only(stats["op1"])
    if counts != counts_only(stats["op1-repeat"]):
        problems.append("counts of op 1 differ between two runs of it with the same seed")
    # an earlier run of this code with this seed must have given the same counts
    record = WORK / f"counts-{args.workload}-{args.seed}.json"
    current = {"source_digest": env["source_digest"], "counts": counts}
    if record.exists():
        previous = json.loads(record.read_text())
        if previous["source_digest"] == current["source_digest"] and previous["counts"] != counts:
            problems.append(f"counts differ from the earlier run recorded in {record.name}")
    record.write_text(json.dumps(current, sort_keys=True))

    result.update(per_layer_values([n for n in layer_names if n not in TRACE_METRICS],
                                   list(stats.values()), stats["op1"], setup_stats))
    traced_p50 = statistics.median(op.seconds for op in traced)
    result["perfbench.op_p50_traced_s"] = traced_p50
    result["perfbench.trace_overhead_s"] = traced_p50 - statistics.median(
        op.seconds for op in untraced)
    info["absent_targets"] = sorted(tracer.absent)
    (WORK / f"trace-{args.workload}-{args.seed}.json").write_text(json.dumps(
        {"env": env, "absent": sorted(tracer.absent), "spans": tracer.dump()}))
    return problems


if __name__ == "__main__":
    main()
