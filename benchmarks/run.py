"""Benchmark of kgmix: training, filtered evaluation and analysis throughput.

One workload, as a fresh single-threaded process:

    python3 benchmarks/run.py --workload train-mos --seed 0 --seconds 10 --trace 0

prints, as its last line, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of a traced run with ``--trace 1`` (the spans themselves
go to ``benchmarks/out/trace-<workload>-seed<n>.jsonl``).

Every workload, untraced and traced, with a summary table:

    python3 benchmarks/run.py [--seed 0] [--seconds 10]

The package is imported from ``src/`` of the checkout this file sits in.
"""
from __future__ import annotations

import os
import sys

# one thread everywhere: set before numpy is first imported
for _var in ("KGMIX_NUM_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import statistics
import subprocess

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")
WORKLOAD_NAMES = ("train-softmax", "train-mos", "eval-fb15k", "theory")


def _import_package():
    if not os.path.isfile(os.path.join(SRC, "kgmix", "__init__.py")):
        sys.exit(f"run.py: no kgmix package under {SRC}; run from a full checkout")
    sys.path.insert(0, SRC)
    import kgmix

    if os.path.dirname(os.path.dirname(os.path.abspath(kgmix.__file__))) != SRC:
        sys.exit(f"run.py: imported kgmix from {kgmix.__file__}, not from {SRC}")


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import layers
    import workloads

    tracer = watch = None
    if trace:
        tracer, watch = layers.install()
    try:
        outcome = workloads.WORKLOADS[workload](seed, seconds)
    finally:
        if tracer is not None:
            tracer.restore()
    for message in outcome.errors:
        print(f"check failed: {message}", file=sys.stderr)
    print(f"info: {json.dumps(outcome.info)}", file=sys.stderr)
    if trace:
        metrics = layers.layer_metrics(tracer, watch, outcome, workload.startswith("train"))
        if tracer.missing:
            print(f"info: not traced, names missing: {tracer.missing}", file=sys.stderr)
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.dump(
            os.path.join(OUT_DIR, f"trace-{workload}-seed{seed}.jsonl"),
            {"workload": workload, "seed": seed, "seconds": seconds,
             "window": outcome.window, "setup_window": outcome.setup_window},
        )
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "setup_s": {"value": statistics.median(outcome.setup_times), "unit": "s"},
            "items_per_s": {"value": outcome.items_per_s, "unit": "items/s"},
            "peak_rss_mb": {"value": peak_kb / 1024.0, "unit": "MB"},
        }
    return {
        "correct": not outcome.errors,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }


def run_all(seed: int, seconds: float) -> int:
    """Each workload in its own process, untraced then traced."""
    os.makedirs(OUT_DIR, exist_ok=True)
    rows = []
    ok = True
    for name in WORKLOAD_NAMES:
        results = {}
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                print(f"{name} (trace {trace}) exited {proc.returncode}", file=sys.stderr)
                return 1
            results[trace] = json.loads(proc.stdout.strip().splitlines()[-1])
        plain, traced = results[0], results[1]
        ok = ok and plain["correct"] and traced["correct"]
        m, t = plain["metrics"], traced["metrics"]
        overhead = 1.0 - t["trace.items_per_s"]["value"] / m["items_per_s"]["value"]
        with open(os.path.join(OUT_DIR, f"BENCH_{name}.json"), "w", encoding="utf-8") as fh:
            json.dump({"workload": name, "seed": seed, "seconds": seconds,
                       "untraced": plain, "traced": traced,
                       "tracing_overhead": overhead}, fh, indent=1)
        rows.append((name, plain, m, t, overhead))
    head = ("workload", "setup_s (s)", "items_per_s (items/s)", "peak_rss_mb (MB)",
            "attempted", "failed", "correct", "trace overhead", "uncovered")
    print("  ".join(f"{h:>22}" if i else f"{h:<14}" for i, h in enumerate(head)))
    for name, plain, m, t, overhead in rows:
        cells = (f"{m['setup_s']['value']:.4f}", f"{m['items_per_s']['value']:.2f}",
                 f"{m['peak_rss_mb']['value']:.1f}", str(plain["attempted"]),
                 str(plain["failed"]), str(plain["correct"]), f"{overhead:+.1%}",
                 f"{t['trace.uncovered_share']['value']:.1%}")
        print(f"{name:<14}  " + "  ".join(f"{c:>22}" for c in cells))
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None,
                    help="length of the timed window (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    seconds = args.seconds
    if seconds is None:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            seconds = json.load(fh)["run_seconds"]
    _import_package()
    if args.workload == "all":
        return run_all(args.seed, seconds)
    print(json.dumps(run_one(args.workload, args.seed, seconds, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
