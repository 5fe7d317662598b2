"""pfcc benchmark runner.

    python3 perfbench/run.py --workload hexagon_learn --seed 7 --seconds 40 --trace 0

Runs one workload (see WORKLOADS.md) against the pfcc source in ``src/`` of
the checkout this file sits in, checks its output, prints every metric by
name with its unit, and ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports the
end-to-end metrics of an uninstrumented run; ``--trace 1`` wraps every layer
from outside and reports the per-layer metrics instead.  Outputs (exported
trace, spans, a result file) go to ``.bench_build/perfbench/`` in the
checkout.

Every workload does a fixed amount of work, so that ``run_s`` compares
across commits; ``--seconds`` is the nominal length of that work on the
reference machine and is recorded with the result.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

from speed import Speedometer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".bench_build" / "perfbench"

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 9


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("hexagon_learn", "static_oracle", "gain_audit"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


def machine_info() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(np),
        "blas_thread_env": {k: os.environ.get(k, "unset")
                            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }


def _blas_threads(np) -> int | str:
    """Thread count of numpy's bundled OpenBLAS, or 'unknown'."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return "unknown"


def percentiles(times: list[float]) -> dict:
    """Median and 99th percentile in ms, with the sample counts behind them."""
    cuts = statistics.quantiles(times, n=100)
    p50, p99 = cuts[49], cuts[98]
    return {"p50_ms": 1e3 * p50, "p99_ms": 1e3 * p99, "samples": len(times),
            "beyond_p99": sum(t > p99 for t in times)}


def measure(workload, seed: int, out_dir: Path, inst=None) -> dict:
    """Set up ``SETUP_REPEATS`` times, then run once from the last set-up,
    with speedometer slices around every set-up and between ops."""
    setup_times, marks = [], []
    setup_meter, run_meter = Speedometer(), Speedometer()
    for _ in range(SETUP_REPEATS):
        setup_meter.slice()
        if inst is not None:
            marks.append(inst.mark())
        t0 = time.perf_counter()
        ctx = workload.setup(seed)
        setup_times.append(time.perf_counter() - t0)
    setup_meter.slice()
    run_counts = {}
    if inst is not None:
        marks.append(inst.mark())
        inst.set_tracking_configs(ctx.configs)
        run_counts = dict(inst.tracer.counts)
    outcome = workload.run(ctx, out_dir, run_meter)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if inst is not None:
        run_counts = {k: v - run_counts.get(k, 0) for k, v in inst.tracer.counts.items()}
    return {"ctx": ctx, "outcome": outcome, "setup_times": setup_times,
            "marks": marks, "run_counts": run_counts, "peak_rss_mb": peak_rss_mb,
            "setup_meter": setup_meter, "run_meter": run_meter,
            "slice_every": workload.slice_every}


def timings(run_s: float, setup_times: list[float], op_times: list[float]) -> dict:
    pct = percentiles(op_times)
    return {"run_s": run_s, "setup_s": statistics.median(setup_times),
            "op_p50_ms": pct["p50_ms"], "op_p99_ms": pct["p99_ms"]}


def wall_times(m: dict) -> dict:
    """The timed figures as measured, in wall-clock seconds/ms."""
    return timings(m["outcome"].run_s, m["setup_times"], m["outcome"].op_times)


def reference_times(m: dict) -> dict:
    """The timed figures in reference-speed seconds/ms (see speed.py): each
    set-up and each op is divided by the speed factor around it, and the
    rest of the run by the run's mean factor."""
    outcome, run_meter = m["outcome"], m["run_meter"]
    ops = run_meter.normalise(outcome.op_times, m["slice_every"])
    rest = (outcome.run_s - sum(outcome.op_times)) / run_meter.factor()
    return timings(sum(ops) + rest, m["setup_meter"].normalise(m["setup_times"], 1), ops)


def end_to_end_metrics(m: dict) -> dict:
    ref = reference_times(m)
    return {
        "run_s": (ref["run_s"], "s"),
        "setup_s": (ref["setup_s"], "s"),
        "op_p50_ms": (ref["op_p50_ms"], "ms"),
        "op_p99_ms": (ref["op_p99_ms"], "ms"),
        "peak_rss_mb": (m["peak_rss_mb"], "MB"),
    }


def per_layer_metrics(m: dict, inst, out_dir: Path) -> dict:
    from instrument import layer_metrics
    from spans import wrapper_costs

    marks = m["marks"]
    setup_stats = [inst.stats(a, b) for a, b in zip(marks, marks[1:])]
    run_stats = inst.stats(marks[-1])
    metrics = layer_metrics(inst, setup_stats, run_stats, m["run_counts"])
    for key in ("learning.iterations", "learning.flushes"):
        metrics[key] = (m["outcome"].facts[key], "count")
    metrics["propagation.fixed_point_tick"] = (
        m["outcome"].facts["propagation.fixed_point_tick"], "tick")
    metrics["scenario.export_bytes"] = (m["outcome"].facts["scenario.export_bytes"], "B")

    run_s = m["outcome"].run_s
    spans = len(inst.tracer) - marks[-1]
    span_cost, count_cost = wrapper_costs()
    accounted = sum(inst.layer_self_times(run_stats).values())
    metrics["trace.run_s"] = (run_s, "s")
    metrics["trace.unaccounted_s"] = (run_s - accounted, "s")
    metrics["trace.overhead_s"] = (
        span_cost * spans + count_cost * sum(m["run_counts"].values()), "s")
    metrics["trace.spans"] = (spans, "count")
    metrics["trace.speed_factor"] = (m["run_meter"].factor(), "ratio")
    inst.tracer.save(out_dir / "spans.npz")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "pfcc" / "__init__.py").is_file():
        print(f"perfbench: no pfcc package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import pfcc
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    out_dir = OUT_ROOT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_dir.mkdir(parents=True, exist_ok=True)

    inst = None
    if args.trace:
        from instrument import Instrument
        inst = Instrument(pfcc)
        inst.install()
    try:
        m = measure(workload, args.seed, out_dir, inst)
    finally:
        if inst is not None:
            inst.uninstall()
    outcome = m["outcome"]
    failures, failed, accuracy = workload.check(
        m["ctx"], outcome, golden=args.seed == workloads.DEFAULT_SEED)
    metrics = (per_layer_metrics(m, inst, out_dir) if args.trace
               else end_to_end_metrics(m))

    info = machine_info()
    pct = percentiles(m["run_meter"].normalise(outcome.op_times, m["slice_every"]))
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"nominal_seconds={args.seconds}")
    print("machine " + " ".join(f"{k}={v}" for k, v in info.items()))
    for failure in failures:
        print(f"FAIL {failure}")
    print(f"check {'ok' if not failures else 'FAILED'}: {failed} of "
          f"{outcome.attempted} {workload.op_name}s failed")
    print(f"metric fail_rate {failed / outcome.attempted:.6g} ratio")
    for name, (value, unit) in accuracy.items():
        print(f"metric {name} {value:.6g} {unit}")
    print(f"samples op_p50_ms/op_p99_ms: {pct['samples']} {workload.op_name}s, "
          f"{pct['beyond_p99']} beyond p99")
    wall = wall_times(m)
    factors = {"run": m["run_meter"].factor(), "setup": m["setup_meter"].factor()}
    print("speed factor " + " ".join(f"{k}={v:.4f}" for k, v in factors.items())
          + "; wall-clock " + " ".join(f"{k}={v:.6g}" for k, v in wall.items()))
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value:.6g} {unit}")

    report = {
        "correct": not failures,
        "attempted": outcome.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    with open(out_dir / "result.json", "w", encoding="utf-8") as fh:
        json.dump({**report, "workload": args.workload, "seed": args.seed,
                   "nominal_seconds": args.seconds, "machine": info,
                   "samples": pct, "failures": failures, "wall": wall,
                   "speed_factor": factors,
                   "accuracy": {k: v for k, (v, _) in accuracy.items()}}, fh, indent=2)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
