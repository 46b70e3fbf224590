"""Benchmark for the eigenbounds package.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; the package is imported from src/.
Each workload is a closed loop with one client in this one process (see
workloads.py).  BLAS and OpenMP are pinned to one thread.

--trace 0 times the loop for S seconds, and at least MIN_OPS ops, and
reports the end-to-end metrics.  --trace 1 runs the workload's first
round in pairs, once plain and once with spans around every layer (see
spans.py), until S seconds are used, and reports the per-layer metrics,
the setup import breakdown and the tracing overhead.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  The line before it is the run record:
environment, failure counts per class, the tail percentile and the
outcome of each known-defect input (run once, outside the loop).  The full
record, with every op and, when traced, every span, is written to
.bench_out/ in the repository root.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# fresh-interpreter imports timed for setup_s on each side of the timed
# loop, after one untimed import that writes the bytecode cache.  Host
# speed drifts over seconds, so samples 40 s apart steady the median more
# than more samples in a row.
SETUP_REPEATS = 3
IMPORTTIME_REPEATS = 3
# The tail latency goes to the run record only: a tail is reported as a
# metric once at least 10 ops lie beyond it, and a run here holds 30 to
# 85 ops.  It is a fixed percentile, so that it stays on the same op
# kinds whatever the throughput: every round follows one template, so the
# slowest tenth of the ops is the same slots on every run.
TAIL_PERCENTILE = 90
# a run lasts at least this many ops, so even the self-check's runs have
# ops on both sides of the tail
MIN_OPS = 11

END_TO_END = (
    ("setup_s", "s"),
    ("ok_ops_per_s", "ops/s"),
    ("op_p50_ms", "ms"),
    ("ok_frac", "ratio"),
    ("max_ref_rel_err", "ratio"),
    ("max_method_gap", "ratio"),
    ("peak_rss_mb", "MB"),
)
IMPORT_MODULES = (
    "eigenbounds",
    "eigenbounds.bounds",
    "eigenbounds.cli",
    "eigenbounds.coefficients",
    "eigenbounds.errors",
    "eigenbounds.heatflow",
    "eigenbounds.sturm_liouville",
    "eigenbounds.suites",
    "eigenbounds.surfaces",
    "scipy.integrate",
    "scipy.linalg",
    "scipy.sparse.csgraph",
)
TRACE_RATES = (
    "trace.untraced.ok_ops_per_s",
    "trace.traced.ok_ops_per_s",
    "trace.overhead.ok_ops_per_s",
)
FAILURE_CLASSES = ("validity", "solver", "exception", "wrong")


def per_layer_names():
    """Every per-layer metric as (name, unit), in report order."""
    from spans import layer_metric_names

    return (
        layer_metric_names()
        + [(f"setup.import_ms.{m}", "ms") for m in IMPORT_MODULES]
        + [(name, "ops/s") for name in TRACE_RATES]
    )


# ---------------------------------------------------------------------------
# setup


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    # time the import users pay once bytecode is cached, whatever the caller's setting
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def _import_cli(*flags):
    return subprocess.run(
        [sys.executable, *flags, "-c", "import eigenbounds.cli"],
        cwd=ROOT, env=_child_env(), capture_output=True, text=True, check=True,
    )


def setup_times():
    """Wall times of fresh interpreters importing eigenbounds.cli."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        _import_cli()
        times.append(time.perf_counter() - t0)
    return times


def import_breakdown():
    """Cumulative import ms per module, median of -X importtime runs."""
    runs = []
    for _ in range(IMPORTTIME_REPEATS):
        cumulative = {}
        for line in _import_cli("-X", "importtime").stderr.splitlines():
            fields = line.removeprefix("import time:").split("|")
            if len(fields) == 3 and fields[1].strip().isdigit():
                cumulative[fields[2].strip()] = int(fields[1]) / 1e3
        runs.append(cumulative)
    return {
        f"setup.import_ms.{m}": statistics.median(r.get(m, 0.0) for r in runs)
        for m in IMPORT_MODULES
    }


def environment(load):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": THREADS,
        "loadavg_at_start": list(load),
    }


# ---------------------------------------------------------------------------
# running ops


def _worst(log, key):
    # panel ops only: their inputs, and so their figures, are the same on
    # every seed.  With no figure at all, every panel op failed: total loss.
    vals = [r[key] for r in log if r["panel"] and r[key] is not None]
    return max(vals, default=1.0)


def timed_run(rounds, seconds):
    from workloads import execute

    ops = [op for r in rounds for op in r]
    log = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(log) < MIN_OPS:
        log.append(execute(ops[len(log) % len(ops)]))
    return log, time.perf_counter() - start


def latencies(log, wall):
    """Sorted op latencies in seconds for the latency metrics.

    A failure ranks slower than every success: it is given the run's
    wall time (the run is then not correct anyway).
    """
    return sorted(r["elapsed_s"] if r["class"] == "ok" else wall for r in log)


def end_to_end(log, wall, setup_s):
    n = len(log)
    n_ok = sum(r["class"] == "ok" for r in log)
    lat = latencies(log, wall)
    tail = statistics.quantiles(lat, n=100, method="inclusive")[TAIL_PERCENTILE - 1]
    metrics = {
        "setup_s": setup_s,
        "ok_ops_per_s": n_ok / wall,
        "op_p50_ms": 1e3 * statistics.median(lat),
        "ok_frac": n_ok / n,
        "max_ref_rel_err": _worst(log, "ref_err"),
        "max_method_gap": _worst(log, "gap"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    extra = {
        "op_tail_ms": 1e3 * tail,
        "op_tail_percentile": TAIL_PERCENTILE,
        "op_tail_ops_beyond": sum(x > tail for x in lat),
        "op_count": n,
        "latency_op_count": len(lat),
        "wall_s": wall,
        "worst_ref_rel_err_all_ops": max(
            (r["ref_err"] for r in log if r["ref_err"] is not None), default=None),
        "worst_method_gap_all_ops": max(
            (r["gap"] for r in log if r["gap"] is not None), default=None),
    }
    return metrics, extra


def traced_run(rounds, seconds):
    """Plain and traced passes over the first round until `seconds` are used."""
    from spans import Tracer, layer_metrics
    from workloads import execute

    ops = rounds[0]
    log, passes, plain_rates, traced_rates, spans = [], [], [], [], None
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        plain = [execute(op) for op in ops]
        plain_rates.append(sum(r["class"] == "ok" for r in plain) / (time.perf_counter() - t0))
        tracer = Tracer()
        tracer.install()
        try:
            t1 = time.perf_counter()
            traced = []
            for i, op in enumerate(ops):
                with tracer.op(i, op.kind):
                    traced.append(execute(op))
            traced_rates.append(sum(r["class"] == "ok" for r in traced) / (time.perf_counter() - t1))
        finally:
            tracer.uninstall()
        log += plain + traced
        passes.append(layer_metrics(tracer.spans))
        spans = spans or [s.to_dict() for s in tracer.spans]
        pair = time.perf_counter() - t0
        if time.perf_counter() - start + pair > seconds:
            break
    counters = {k: v for k, v in passes[0].items() if not k.endswith("ms")}
    repeat = all({k: p[k] for k in counters} == counters for p in passes)
    metrics = dict(counters)
    for key in passes[0]:
        if key.endswith("ms"):
            metrics[key] = statistics.median(p[key] for p in passes)
    untraced, traced_r = statistics.median(plain_rates), statistics.median(traced_rates)
    metrics.update({
        "trace.untraced.ok_ops_per_s": untraced,
        "trace.traced.ok_ops_per_s": traced_r,
        "trace.overhead.ok_ops_per_s": untraced - traced_r,
    })
    extra = {"passes": len(passes), "counters_repeat": repeat}
    return log, metrics, extra, spans


# ---------------------------------------------------------------------------


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "eigenbounds" / "__init__.py").is_file():
        sys.exit(f"bench: no eigenbounds package under {SRC}; run from a full checkout")
    for var in THREAD_VARS:
        os.environ[var] = str(THREADS)
    sys.path.insert(0, str(SRC))
    load = os.getloadavg()

    from workloads import WORKLOADS, defect_ops, execute, is_correct, make_rounds

    if args.workload not in WORKLOADS:
        sys.exit(f"bench: unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(load)}
    # the ROADMAP item-4 inputs, once each and untimed: see defect_ops
    known = [execute(op) for op in defect_ops(args.workload)]
    if args.trace:
        record["import_ms"] = import_breakdown()
        rounds = make_rounds(args.workload, args.seed, rounds=1)
        log, metrics, extra, spans = traced_run(rounds, args.seconds)
        metrics.update(record["import_ms"])
        names = per_layer_names()
        record["spans"] = spans
        correct = is_correct(log) and extra["counters_repeat"]
    else:
        _import_cli()
        setup = setup_times()
        rounds = make_rounds(args.workload, args.seed)
        log, wall = timed_run(rounds, args.seconds)
        setup += setup_times()
        metrics, extra = end_to_end(log, wall, statistics.median(setup))
        extra["setup_times_s"] = setup
        names = END_TO_END
        correct = is_correct(log)

    failed = sum(r["class"] != "ok" for r in log)
    extra["failures"] = {c: sum(r["class"] == c for r in log) for c in FAILURE_CLASSES}
    extra["failed_frac"] = failed / len(log)
    extra["known_defects"] = [f"{r['defect']}:{r['class']}" for r in known]
    correct = correct and is_correct(known)
    record.update(extra)
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps({**record, "ops": log}, indent=1))

    summary = {k: v for k, v in record.items() if k != "spans"}
    summary["record_file"] = str(path.relative_to(ROOT))
    print(json.dumps({"record": summary}))
    result = {
        "correct": bool(correct),
        "attempted": len(log),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in names},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
