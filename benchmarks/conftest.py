"""Shared fixtures for the benchmark harness.

Two scenario runs are shared across all benches:

* ``bench_data`` — the dynamics dataset *S* generator (fresh, top-20,
  multi-report) at a scale where every Section 5-7 analysis has enough
  samples to show the paper's shapes;
* ``bench_paper_data`` — the full population mix behind the dataset
  overview (Tables 2-3, Figure 1).

Benches run their analysis once under ``benchmark.pedantic`` and print the
rendered table/figure so the harness output mirrors the paper's rows.
"""

from __future__ import annotations

import os

import pytest

from repro.analysis.experiment import ExperimentData, run_experiment
from repro.synth.scenario import dynamics_scenario, paper_scenario

#: Scale knobs, overridable for quick runs: REPRO_BENCH_SAMPLES=2000.
BENCH_SAMPLES = int(os.environ.get("REPRO_BENCH_SAMPLES", "20000"))
BENCH_PAPER_SAMPLES = int(os.environ.get("REPRO_BENCH_PAPER_SAMPLES",
                                         str(BENCH_SAMPLES)))
BENCH_SEED = int(os.environ.get("REPRO_BENCH_SEED", "1"))


@pytest.fixture(scope="session")
def bench_data() -> ExperimentData:
    data = run_experiment(dynamics_scenario(BENCH_SAMPLES, seed=BENCH_SEED))
    # Decode the frame and select dataset S once, outside any timed region.
    data.dataset_s
    return data


@pytest.fixture(scope="session")
def bench_paper_data() -> ExperimentData:
    return run_experiment(paper_scenario(BENCH_PAPER_SAMPLES,
                                         seed=BENCH_SEED + 1))


def run_once(benchmark, fn):
    """Run an analysis exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)


_CAPTURE_MANAGER = None


def pytest_configure(config):
    global _CAPTURE_MANAGER
    _CAPTURE_MANAGER = config.pluginmanager.getplugin("capturemanager")


def say(*args: object) -> None:
    """Print past pytest's capture layer.

    The harness's contract is to *print the rows the paper reports*;
    suspending capture keeps those tables visible (and teeable) under
    plain ``pytest benchmarks/ --benchmark-only`` without ``-s``.
    """
    if _CAPTURE_MANAGER is not None:
        with _CAPTURE_MANAGER.global_and_fixture_disabled():
            print(*args)
    else:  # pragma: no cover - outside pytest
        print(*args)
