"""reprolint wall-clock: the full-pass budget.

The self-check runs inside tier-1 (``tests/test_lint_selfcheck.py``) and
in every CI matrix cell, so the whole-package pass has a latency budget.
The whole-program flow rules (call graph + RPL101-105) roughly tripled
the cost of a pass, and the budget moved from 2 s to 5 s with them.
Every ``repro-vt lint`` run is such a full pass: nothing is cached.

Dual mode, like the other benches:

* under pytest (``pytest benchmarks/bench_lint.py``, with or without
  ``--benchmark-disable``) each pass times itself and the budget is
  asserted on the fastest;
* as a script (``python benchmarks/bench_lint.py``) it writes a schema'd
  ``BENCH_lint.json`` artifact.
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

from repro.lint import default_target, lint_paths, render_json

try:  # pytest mode — absent when run as a plain script
    from conftest import run_once, say
except ImportError:  # pragma: no cover - script mode
    run_once = None

    def say(*args: object) -> None:
        print(*args)

#: Schema identifier for the benchmark artifact (shared across benches).
RESULTS_SCHEMA = "repro-bench/1"

#: Full-repo budget in seconds; generous for cold CI runners, a few x
#: above what a warm local pass takes (the v2 flow pass is ~2-3 s).
DEFAULT_BUDGET_SECONDS = float(
    os.environ.get("REPRO_BENCH_LINT_BUDGET", "5.0"))

#: Timed repetitions in script mode (best-of, to shed FS cache noise).
DEFAULT_REPEATS = 3


def _time_full_pass(target: Path, repeats: int) -> tuple[float, list, object]:
    walls = []
    result = None
    for _ in range(max(1, repeats)):
        started = time.perf_counter()
        result = lint_paths([target])
        walls.append(time.perf_counter() - started)
    return min(walls), walls, result


def run_lint_bench(repeats: int = DEFAULT_REPEATS) -> dict:
    """Time full passes; returns the artifact payload."""
    target = default_target()
    full_best, full_walls, result = _time_full_pass(target, repeats)
    report_bytes = len(render_json(result).encode("utf-8"))
    return {
        "schema": RESULTS_SCHEMA,
        "suite": "lint",
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "target": str(target),
        "budget_seconds": DEFAULT_BUDGET_SECONDS,
        "benchmarks": [
            {
                "name": "reprolint_full_repo",
                "files_checked": result.files_checked,
                "findings": len(result.findings),
                "suppressed": len(result.suppressed),
                "json_report_bytes": report_bytes,
                "wall_seconds": round(full_best, 4),
                "wall_seconds_all": [round(w, 4) for w in full_walls],
                "within_budget": full_best <= DEFAULT_BUDGET_SECONDS,
            },
        ],
    }


def render(results: dict) -> None:
    (full,) = results["benchmarks"]
    say()
    say(f"reprolint full-repo bench ({full['files_checked']} files, "
        f"{full['findings']} findings, "
        f"{full['suppressed']} suppressed)")
    say(f"  full pass best of {len(full['wall_seconds_all'])}: "
        f"{full['wall_seconds']:.3f}s — "
        f"{'within' if full['within_budget'] else 'OVER'} the "
        f"{results['budget_seconds']:.1f}s budget")


def test_lint_full_repo(benchmark):
    """pytest-benchmark entry point: one timed full-package pass.

    Each pass times itself, so the budget is asserted with the harness's
    timing disabled (``--benchmark-disable``) too.
    """
    target = default_target()
    walls: list[float] = []

    def timed_pass():
        started = time.perf_counter()
        result = lint_paths([target])
        walls.append(time.perf_counter() - started)
        return result

    result = benchmark(timed_pass)
    assert result.findings == []
    assert result.files_checked > 50
    assert min(walls) <= DEFAULT_BUDGET_SECONDS, (
        f"full-repo lint exceeded the {DEFAULT_BUDGET_SECONDS:.1f}s budget"
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark the full reprolint pass and write a "
                    "schema'd BENCH_lint.json.")
    parser.add_argument("--repeats", type=int, default=DEFAULT_REPEATS,
                        help=f"timed repetitions, best-of "
                             f"(default: {DEFAULT_REPEATS})")
    parser.add_argument("--output", default="BENCH_lint.json",
                        help="artifact path (default: BENCH_lint.json)")
    args = parser.parse_args(argv)

    results = run_lint_bench(args.repeats)
    render(results)
    Path(args.output).write_text(json.dumps(results, indent=2) + "\n",
                                 encoding="utf-8")
    say(f"\nwrote {args.output}")
    return 0 if all(b["within_budget"] for b in results["benchmarks"]) else 1


if __name__ == "__main__":
    raise SystemExit(main())
