"""Parallel scenario-engine scaling: wall-clock vs worker count.

Runs the same scenario serially and under the sharded parallel engine at
increasing worker counts, asserting the canonical store digest is
byte-identical at every K (the serial/parallel equivalence contract)
and reporting the speedup curve.

Dual mode:

* under pytest-benchmark (``pytest benchmarks/ --benchmark-only``) the
  scaling sweep runs once at the harness scale and prints the curve;
* as a script (``python benchmarks/bench_parallel_scaling.py``) it runs
  the sweep standalone and writes a schema'd ``BENCH_parallel.json`` —
  the artifact the CI benchmarks job uploads.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.analysis.experiment import run_experiment
from repro.obs import MetricsRegistry
from repro.synth.scenario import paper_scenario

try:  # pytest mode — absent when run as a plain script
    from conftest import run_once, say
except ImportError:  # pragma: no cover - script mode
    run_once = None

    def say(*args: object) -> None:
        print(*args)

#: Schema identifier for the benchmark artifact.
RESULTS_SCHEMA = "repro-bench/1"

#: Script-mode defaults (CI pins its own size).
DEFAULT_SAMPLES = 50_000
DEFAULT_WORKERS = (1, 2, 4, 8)
DEFAULT_SEED = 1


def run_metrics_overhead(n_samples: int, seed: int) -> dict:
    """Time a serial run with the disabled (null) registry vs a live one.

    Instrumented components pre-bind no-op handles when no registry is
    injected, so the disabled path should cost one no-op call per event
    — i.e. the two walls should differ only by measurement noise plus
    the real recording cost of the live registry.
    """
    config = paper_scenario(n_samples=n_samples, seed=seed)

    started = time.perf_counter()
    run_experiment(config)  # metrics=None → the shared null registry
    disabled = time.perf_counter() - started

    started = time.perf_counter()
    data = run_experiment(config, metrics=MetricsRegistry())
    enabled = time.perf_counter() - started

    return {
        "n_samples": n_samples,
        "reports": data.store.report_count,
        "disabled_seconds": round(disabled, 3),
        "enabled_seconds": round(enabled, 3),
        "enabled_over_disabled": round(enabled / disabled, 3),
    }


def run_scaling(n_samples: int, seed: int,
                workers_list: tuple[int, ...]) -> dict:
    """Run the sweep; returns the BENCH_parallel.json payload.

    Worker count 1 is always measured first (it is the baseline every
    speedup is computed against) even if absent from ``workers_list``.
    """
    counts = sorted(set(workers_list) | {1})
    config = paper_scenario(n_samples=n_samples, seed=seed)
    entries = []
    baseline = None
    digest0 = None
    for workers in counts:
        started = time.perf_counter()
        data = run_experiment(config, workers=workers)
        wall = time.perf_counter() - started
        digest = data.store.digest()
        if workers == 1:
            baseline = wall
            digest0 = digest
        entries.append({
            "name": f"scenario_engine_workers_{workers}",
            "workers": workers,
            "workers_effective": data.workers,
            "wall_seconds": round(wall, 3),
            "speedup": round(baseline / wall, 3) if baseline else None,
            "reports": data.store.report_count,
            "dataset_digest": digest,
            "digest_matches_serial": digest == digest0,
        })
    return {
        "schema": RESULTS_SCHEMA,
        "suite": "parallel_scaling",
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "scenario": {
            "preset": "paper",
            "n_samples": n_samples,
            "seed": seed,
            "block_records": config.block_records,
        },
        "benchmarks": entries,
        "equivalent": all(e["digest_matches_serial"] for e in entries),
        "metrics_overhead": run_metrics_overhead(
            min(n_samples, 10_000), seed),
    }


def render(results: dict) -> None:
    scenario = results["scenario"]
    say()
    say(f"Parallel scaling bench (paper mix, "
        f"n={scenario['n_samples']:,}, seed={scenario['seed']}, "
        f"{results['cpu_count']} CPUs)")
    for entry in results["benchmarks"]:
        ok = "ok" if entry["digest_matches_serial"] else "DIGEST MISMATCH"
        say(f"  workers={entry['workers']:<3d} "
            f"{entry['wall_seconds']:8.2f}s  "
            f"speedup {entry['speedup']:5.2f}x  "
            f"({entry['reports']:,} reports, digest {ok})")
    overhead = results["metrics_overhead"]
    say(f"  metrics overhead (n={overhead['n_samples']:,}): "
        f"disabled {overhead['disabled_seconds']:.2f}s, "
        f"enabled {overhead['enabled_seconds']:.2f}s "
        f"({overhead['enabled_over_disabled']:.2f}x)")


def test_parallel_scaling(benchmark):
    """pytest-benchmark entry point: sweep at the harness scale."""
    from conftest import BENCH_SAMPLES, BENCH_SEED

    n = min(BENCH_SAMPLES, 20_000)
    results = run_once(
        benchmark, lambda: run_scaling(n, BENCH_SEED, (1, 2, 4)))
    render(results)
    assert results["equivalent"], "parallel digest diverged from serial"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark the sharded parallel scenario engine and "
                    "write a schema'd BENCH_parallel.json.")
    parser.add_argument("--samples", type=int,
                        default=int(os.environ.get(
                            "REPRO_BENCH_PARALLEL_SAMPLES",
                            str(DEFAULT_SAMPLES))),
                        help=f"population size (default: {DEFAULT_SAMPLES})")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--workers", default=",".join(
                            str(w) for w in DEFAULT_WORKERS),
                        help="comma-separated worker counts "
                             "(default: 1,2,4,8)")
    parser.add_argument("--output", default="BENCH_parallel.json",
                        help="artifact path (default: BENCH_parallel.json)")
    parser.add_argument("--require-speedup", type=float, default=None,
                        metavar="X",
                        help="exit non-zero unless some parallel run "
                             "reaches X× over serial")
    args = parser.parse_args(argv)

    workers = tuple(int(w) for w in args.workers.split(","))
    results = run_scaling(args.samples, args.seed, workers)
    render(results)
    Path(args.output).write_text(json.dumps(results, indent=2) + "\n",
                                 encoding="utf-8")
    say(f"\nwrote {args.output}")

    if not results["equivalent"]:
        say("FAIL: parallel digest diverged from serial")
        return 1
    if args.require_speedup is not None:
        best = max(e["speedup"] for e in results["benchmarks"]
                   if e["workers"] > 1)
        if best < args.require_speedup:
            say(f"FAIL: best speedup {best:.2f}x < "
                f"required {args.require_speedup:.2f}x")
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
