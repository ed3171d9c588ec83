"""Peak-RSS slope of ``repro-vt generate``: memory per report stored.

Runs ``generate`` as a child process at two population sizes (dynamics
scenario, CLI seed 1000: 2,000 and 20,000 samples, three runs each) and
takes each run's peak resident set from ``os.wait4``.  The slope
between the two sizes' medians is the memory a run needs per report on
top of its fixed cost; the saved file holds about 60 B per report.  The
bench asserts the slope stays at or below ``MAX_KIB_PER_REPORT``.

A child's ``ru_maxrss`` starts from its parent's high-water mark, so
the process that launches the runs imports nothing of the program (and
no numpy): in pytest mode the test starts this file as a script, and
that small process launches the runs.

Dual mode, like the other benches:

* under pytest (``pytest benchmarks/bench_generate_memory.py``) the
  sweep runs once and the slope bound is asserted;
* as a script (``python benchmarks/bench_generate_memory.py``) it
  writes a schema'd ``BENCH_memory.json`` and exits 1 over the bound.

Peak RSS is only read this way on Linux (``ru_maxrss`` in KiB).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Schema identifier for the benchmark artifact (shared across benches).
RESULTS_SCHEMA = "repro-bench/1"

SIZES = (2_000, 20_000)
SEED = 1000
#: Runs per size; the slope is taken between the medians.
REPEATS = 3
#: The bound on the peak-RSS slope, KiB per report.
MAX_KIB_PER_REPORT = 1.0


def say(*args: object) -> None:
    print(*args, flush=True)


def measure_generate(samples: int, out: Path) -> dict:
    """One ``generate`` child: its peak RSS (KiB), reports and file size."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    argv = [sys.executable, "-m", "repro.cli", "--scenario", "dynamics",
            "--samples", str(samples), "--seed", str(SEED),
            "generate", str(out)]
    with tempfile.TemporaryFile() as stdout, \
            tempfile.TemporaryFile() as stderr:
        proc = subprocess.Popen(argv, stdout=stdout, stderr=stderr, env=env)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        stdout.seek(0)
        text = stdout.read().decode()
        stderr.seek(0)
        errors = stderr.read().decode(errors="replace")
    if proc.returncode != 0:
        raise RuntimeError(
            f"generate exited {proc.returncode}: {argv}\n{errors}")
    # "saved 10,568 reports to PATH"
    reports = int(text.split()[1].replace(",", ""))
    return {"peak_rss_kib": usage.ru_maxrss, "reports": reports,
            "file_bytes": out.stat().st_size}


def run_memory_bench() -> dict:
    """Run every size ``REPEATS`` times; returns the artifact payload."""
    entries = []
    with tempfile.TemporaryDirectory() as work:
        for samples in SIZES:
            runs = [measure_generate(samples, Path(work) / f"{samples}.store")
                    for _ in range(REPEATS)]
            peaks = [run["peak_rss_kib"] for run in runs]
            reports = runs[0]["reports"]
            entries.append({
                "name": f"generate_dynamics_{samples}",
                "samples": samples,
                "reports": reports,
                "peak_rss_kib": peaks,
                "median_peak_rss_kib": statistics.median(peaks),
                "file_bytes_per_report": round(
                    runs[0]["file_bytes"] / reports, 2),
            })
    lo, hi = entries[0], entries[-1]
    slope = ((hi["median_peak_rss_kib"] - lo["median_peak_rss_kib"])
             / (hi["reports"] - lo["reports"]))
    return {
        "schema": RESULTS_SCHEMA,
        "suite": "generate_memory",
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "scenario": {"preset": "dynamics", "cli_seed": SEED,
                     "repeats": REPEATS},
        "benchmarks": entries,
        "slope_kib_per_report": round(slope, 4),
        "max_kib_per_report": MAX_KIB_PER_REPORT,
        "within_budget": slope <= MAX_KIB_PER_REPORT,
    }


def render(results: dict) -> None:
    say()
    say(f"generate peak RSS (dynamics, CLI seed "
        f"{results['scenario']['cli_seed']}, median of "
        f"{results['scenario']['repeats']})")
    for entry in results["benchmarks"]:
        say(f"  {entry['samples']:>7,} samples  {entry['reports']:>9,} "
            f"reports  {entry['median_peak_rss_kib'] / 1024:8.1f} MiB  "
            f"(file {entry['file_bytes_per_report']:.1f} B/report)")
    say(f"  slope {results['slope_kib_per_report']:.3f} KiB/report "
        f"(bound {results['max_kib_per_report']:.2f})")


def test_generate_memory_slope(tmp_path):
    """pytest entry point: the sweep in a small child, bound asserted."""
    import pytest

    if not sys.platform.startswith("linux"):
        pytest.skip("ru_maxrss is read in KiB on Linux only")
    output = tmp_path / "BENCH_memory.json"
    proc = subprocess.run([sys.executable, __file__, "--output", str(output)],
                          capture_output=True, text=True)
    say(proc.stdout)
    # Over the bound the script prints FAIL on stdout; a failed run
    # prints the child's stderr.
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert json.loads(output.read_text())["within_budget"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Measure generate's peak-RSS slope per report and "
                    "write a schema'd BENCH_memory.json.")
    parser.add_argument("--output", default="BENCH_memory.json",
                        help="artifact path (default: BENCH_memory.json)")
    args = parser.parse_args(argv)

    results = run_memory_bench()
    render(results)
    Path(args.output).write_text(json.dumps(results, indent=2) + "\n",
                                 encoding="utf-8")
    say(f"\nwrote {args.output}")
    if not results["within_budget"]:
        say(f"FAIL: slope {results['slope_kib_per_report']:.3f} KiB/report "
            f"> {results['max_kib_per_report']:.2f}")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
