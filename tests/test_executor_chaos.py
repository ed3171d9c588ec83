"""Chaos acceptance for the worker pool's metrics.

A parallel run that loses a worker reruns the ranges that have no
result yet.  The rerun must not perturb the experiment's injected-registry
metric export by a single byte, and the pool's own scheduling telemetry
(ranges retried, workers lost) must land in the process-wide registry.

The worker death is real: the worker that first takes range shard-005
calls ``os._exit`` after computing it (see
:func:`test_parallel.exit_once`).  Only forked workers inherit that
patch, so these tests need fork.
"""

from __future__ import annotations

from repro.analysis.experiment import run_experiment
from repro.obs import MetricsRegistry, jsonl_lines, set_registry

from test_parallel import POOL_CONFIG, exit_once, needs_fork


@needs_fork
class TestMetricEquivalence:
    """The metric side of the gate: a dead worker must not perturb the
    experiment's injected-registry export by a single byte."""

    def test_chaos_export_byte_identical_to_serial(self, monkeypatch,
                                                   tmp_path):
        serial = MetricsRegistry()
        run_experiment(POOL_CONFIG, metrics=serial)
        exit_once(monkeypatch, tmp_path, after=True)
        chaos = MetricsRegistry()
        data = run_experiment(POOL_CONFIG, workers=2, metrics=chaos)
        assert data.executor_report.workers_lost == 1
        assert jsonl_lines(chaos) == jsonl_lines(serial)

    def test_scheduling_telemetry_lands_process_wide(self, monkeypatch,
                                                     tmp_path):
        exit_once(monkeypatch, tmp_path, after=True)
        registry = MetricsRegistry()
        previous = set_registry(registry)
        try:
            data = run_experiment(POOL_CONFIG, workers=2)
        finally:
            set_registry(previous)
        report = data.executor_report
        assert registry.counter("parallel.shards.retried",
                                executor="fork").value == report.retried >= 1
        assert registry.counter("parallel.workers.lost",
                                executor="fork").value == 1
