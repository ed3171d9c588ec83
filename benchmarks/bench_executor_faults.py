"""Elastic executor fault tolerance: recovery cost and heartbeat overhead.

Measures what the chaos acceptance gate only asserts:

* **recovery latency** — wall-clock of a chaos-battered run (standard
  executor fault plan: crashes, hangs, corrupted payloads) vs the
  fault-free run on the same executor, with the scheduler's own
  accounting (retries, lost workers, stolen ranges) alongside;
* **heartbeat overhead** — wall-clock with a tight heartbeat cadence vs
  heartbeats effectively disabled; the budget is ≤5%;
* and, as everywhere else, the digest contract: every run — faulted or
  not, fork or spawn — must reproduce the serial digest.

Dual mode:

* under pytest-benchmark (``pytest benchmarks/ --benchmark-only``) the
  sweep runs once at the harness scale;
* as a script (``python benchmarks/bench_executor_faults.py``) it writes
  a schema'd ``BENCH_executor.json`` — the artifact the CI benchmarks
  job uploads.
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
from repro.faults import standard_executor_chaos_plan
from repro.parallel import ExecutorPolicy, fork_available
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
DEFAULT_SAMPLES = 20_000
DEFAULT_WORKERS = 4
DEFAULT_SEED = 1

#: Heartbeat overhead budget: tight cadence may cost at most 5% wall.
HEARTBEAT_OVERHEAD_BUDGET = 1.05

#: Chaos deadlines tuned so injected hangs are detected quickly without
#: making steals trigger on ordinary shard latency.
CHAOS_DEADLINE = 1.5
CHAOS_HANG_SECONDS = 2.5


def _timed_run(config, workers: int, executor) -> tuple[float, object]:
    started = time.perf_counter()
    data = run_experiment(config, workers=workers, executor=executor)
    return time.perf_counter() - started, data


def run_fault_recovery(config, serial_digest: str, kind: str,
                       workers: int, seed: int) -> dict:
    """Fault-free vs standard-chaos wall on one executor kind."""
    clean_wall, clean = _timed_run(config, workers, kind)
    chaos_policy = ExecutorPolicy(
        kind=kind,
        heartbeat_deadline=CHAOS_DEADLINE,
        fault_plan=standard_executor_chaos_plan(
            seed=seed, hang_seconds=CHAOS_HANG_SECONDS),
    )
    chaos_wall, chaos = _timed_run(config, workers, chaos_policy)
    report = chaos.executor_report
    return {
        "name": f"executor_{kind}_fault_recovery",
        "executor": kind,
        "workers": workers,
        "clean_wall_seconds": round(clean_wall, 3),
        "chaos_wall_seconds": round(chaos_wall, 3),
        "recovery_latency_seconds": round(chaos_wall - clean_wall, 3),
        "recovery_overhead": round(chaos_wall / clean_wall, 3),
        "shards": report.tasks,
        "attempts": report.attempts,
        "retried": report.retried,
        "workers_lost": report.workers_lost,
        "workers_respawned": report.workers_respawned,
        "ranges_stolen": report.ranges_stolen,
        "corrupt_payloads": report.corrupt_payloads,
        "duplicate_results": report.duplicate_results,
        "heartbeats": report.heartbeats,
        "clean_digest_matches_serial": clean.store.digest() == serial_digest,
        "chaos_digest_matches_serial": chaos.store.digest() == serial_digest,
    }


def run_heartbeat_overhead(config, kind: str, workers: int) -> dict:
    """Tight heartbeat cadence vs heartbeats effectively off.

    The emitter throttles inside the worker's progress callback, so the
    cost under test is one clock read per scan chunk
    (``SCAN_CHUNK_REPORTS`` scans) plus one queue put per interval — the
    budget is ≤5% wall.
    """
    quiet_policy = ExecutorPolicy(kind=kind, heartbeat_deadline=1e6)
    quiet_wall, _ = _timed_run(config, workers, quiet_policy)
    tight_policy = ExecutorPolicy(kind=kind, heartbeat_deadline=1e6,
                                  heartbeat_interval=0.05)
    tight_wall, tight = _timed_run(config, workers, tight_policy)
    overhead = tight_wall / quiet_wall
    return {
        "name": f"executor_{kind}_heartbeat_overhead",
        "executor": kind,
        "workers": workers,
        "quiet_wall_seconds": round(quiet_wall, 3),
        "tight_wall_seconds": round(tight_wall, 3),
        "heartbeats": tight.executor_report.heartbeats,
        "heartbeat_overhead": round(overhead, 3),
        "budget": HEARTBEAT_OVERHEAD_BUDGET,
        "within_budget": overhead <= HEARTBEAT_OVERHEAD_BUDGET,
    }


def run_suite(n_samples: int, seed: int, workers: int) -> dict:
    config = paper_scenario(n_samples=n_samples, seed=seed)
    serial_digest = run_experiment(config).store.digest()
    kinds = ["fork", "spawn"] if fork_available() else ["spawn"]
    entries = [run_fault_recovery(config, serial_digest, kind, workers, seed)
               for kind in kinds]
    heartbeat = run_heartbeat_overhead(config, kinds[0], workers)
    return {
        "schema": RESULTS_SCHEMA,
        "suite": "executor_faults",
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "scenario": {
            "preset": "paper",
            "n_samples": n_samples,
            "seed": seed,
            "block_records": config.block_records,
        },
        "benchmarks": entries + [heartbeat],
        "equivalent": all(e["chaos_digest_matches_serial"]
                          and e["clean_digest_matches_serial"]
                          for e in entries),
        "heartbeat_within_budget": heartbeat["within_budget"],
    }


def render(results: dict) -> None:
    scenario = results["scenario"]
    say()
    say(f"Executor fault bench (paper mix, n={scenario['n_samples']:,}, "
        f"seed={scenario['seed']}, {results['cpu_count']} CPUs)")
    for entry in results["benchmarks"]:
        if "recovery_overhead" in entry:
            ok = ("ok" if entry["chaos_digest_matches_serial"]
                  else "DIGEST MISMATCH")
            say(f"  {entry['executor']:<10s} clean "
                f"{entry['clean_wall_seconds']:6.2f}s  chaos "
                f"{entry['chaos_wall_seconds']:6.2f}s  "
                f"({entry['recovery_overhead']:.2f}x; "
                f"{entry['retried']} retried, "
                f"{entry['workers_lost']} lost, "
                f"{entry['ranges_stolen']} stolen, "
                f"{entry['corrupt_payloads']} corrupt; digest {ok})")
        else:
            ok = "ok" if entry["within_budget"] else "OVER BUDGET"
            say(f"  {entry['executor']:<10s} heartbeat overhead "
                f"{entry['heartbeat_overhead']:.3f}x "
                f"({entry['heartbeats']} beats; budget "
                f"{entry['budget']:.2f}x: {ok})")


def test_executor_faults(benchmark):
    """pytest-benchmark entry point: the suite at harness scale."""
    from conftest import BENCH_SAMPLES, BENCH_SEED

    n = min(BENCH_SAMPLES, 10_000)
    results = run_once(
        benchmark, lambda: run_suite(n, BENCH_SEED, workers=4))
    render(results)
    assert results["equivalent"], "chaos digest diverged from serial"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark executor fault recovery and heartbeat "
                    "overhead; write a schema'd BENCH_executor.json.")
    parser.add_argument("--samples", type=int,
                        default=int(os.environ.get(
                            "REPRO_BENCH_EXECUTOR_SAMPLES",
                            str(DEFAULT_SAMPLES))),
                        help=f"population size (default: {DEFAULT_SAMPLES})")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--workers", type=int, default=DEFAULT_WORKERS)
    parser.add_argument("--output", default="BENCH_executor.json",
                        help="artifact path (default: BENCH_executor.json)")
    args = parser.parse_args(argv)

    results = run_suite(args.samples, args.seed, args.workers)
    render(results)
    Path(args.output).write_text(json.dumps(results, indent=2) + "\n",
                                 encoding="utf-8")
    say(f"\nwrote {args.output}")

    if not results["equivalent"]:
        say("FAIL: chaos digest diverged from serial")
        return 1
    if not results["heartbeat_within_budget"]:
        # Report loudly but don't fail CI on a noisy shared runner.
        say("WARN: heartbeat overhead exceeded its 5% budget")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
