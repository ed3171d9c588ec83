"""Parallel scenario engine: sharding, equivalence, the worker pool.

The central contract under test is the serial/parallel equivalence gate:
``run_experiment(config, workers=K)`` must produce a store whose
canonical digest is byte-identical to the serial run's for every K.
Everything else here — partition properties, worker resolution, the
in-process fast path, streaming merge order, and the pool's behaviour
when a worker dies or a range raises — supports that contract.
"""

from __future__ import annotations

import multiprocessing
import os
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.parallel.worker as worker
from repro.analysis.experiment import run_experiment
from repro.cli import main
from repro.errors import ConfigError, ShardFailedError
from repro.obs import MetricsRegistry
from repro.parallel.runner import fork_available, frozen_shard_of
from repro.parallel.scheduler import MAX_POOLS, ExecutorReport
from repro.parallel.sharding import (
    MAX_WORKERS_ENV,
    ShardSpec,
    partition_samples,
    resolve_workers,
)
from repro.parallel.worker import execute_range, run_shard
from repro.store.merge import StreamingMerge
from repro.synth.population import PopulationGenerator
from repro.synth.scenario import ScenarioConfig, tiny_scenario
from repro.vt.samples import Sample
from repro.vt.service import VirusTotalService


# ----------------------------------------------------------------------
# Partitioning
# ----------------------------------------------------------------------


def test_partition_covers_all_samples_contiguously():
    shards = partition_samples(101, 7)
    assert shards[0].start == 0
    assert shards[-1].stop == 101
    for left, right in zip(shards, shards[1:], strict=False):
        assert left.stop == right.start
    assert sum(s.size for s in shards) == 101


def test_partition_is_balanced():
    for n, k in ((100, 7), (5, 3), (1, 1), (64, 8)):
        sizes = [s.size for s in partition_samples(n, k)]
        assert max(sizes) - min(sizes) <= 1


def test_partition_more_shards_than_samples_leaves_empties():
    shards = partition_samples(3, 8)
    assert len(shards) == 8
    assert sum(s.size for s in shards) == 3
    assert sorted(i for s in shards for i in s.indices()) == [0, 1, 2]
    assert any(s.size == 0 for s in shards)


def test_partition_is_pure():
    assert partition_samples(977, 13) == partition_samples(977, 13)


def test_partition_rejects_bad_shard_count():
    with pytest.raises(ConfigError):
        partition_samples(10, 0)
    with pytest.raises(ConfigError):
        partition_samples(-1, 2)


def test_resolve_workers():
    assert resolve_workers(1) == 1
    assert resolve_workers(4) == 4
    assert resolve_workers("auto") >= 1
    for bad in (0, -3, 2.5, "four", None, True):
        with pytest.raises(ConfigError):
            resolve_workers(bad)


def test_shard_spec_indices():
    shard = ShardSpec(shard_index=1, n_shards=3, start=4, stop=9)
    assert shard.size == 5
    assert list(shard.indices()) == [4, 5, 6, 7, 8]


class TestResolveWorkersAuto:
    def test_auto_with_no_cpu_count_clamps_to_one(self, monkeypatch):
        monkeypatch.delenv(MAX_WORKERS_ENV, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert resolve_workers("auto") == 1

    def test_env_caps_auto(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setenv(MAX_WORKERS_ENV, "3")
        assert resolve_workers("auto") == 3

    def test_env_cap_does_not_raise_auto_above_cpu_count(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setenv(MAX_WORKERS_ENV, "16")
        assert resolve_workers("auto") == 2

    def test_explicit_workers_never_capped(self, monkeypatch):
        monkeypatch.setenv(MAX_WORKERS_ENV, "1")
        assert resolve_workers(8) == 8

    @pytest.mark.parametrize("raw", ["zero", "0", "-2", "2.5"])
    def test_bad_env_value_raises(self, monkeypatch, raw):
        monkeypatch.setenv(MAX_WORKERS_ENV, raw)
        with pytest.raises(ConfigError):
            resolve_workers("auto")

    def test_blank_env_value_ignored(self, monkeypatch):
        monkeypatch.setenv(MAX_WORKERS_ENV, "  ")
        assert resolve_workers("auto") >= 1


# ----------------------------------------------------------------------
# Serial/parallel equivalence
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def serial_digest(tiny_store) -> str:
    return tiny_store.digest()


@pytest.mark.parametrize("workers", [2, 3, 4])
def test_parallel_digest_matches_serial(tiny_config, serial_digest, workers):
    data = run_experiment(tiny_config, workers=workers)
    assert data.store.digest() == serial_digest
    assert data.workers == workers
    assert data.service is None


def test_parallel_store_is_fully_queryable(tiny_config, tiny_store):
    parallel = run_experiment(tiny_config, workers=3)
    assert parallel.store.sample_count == tiny_store.sample_count
    for sha in list(tiny_store.samples())[:20]:
        assert [r.scan_time for r in parallel.store.report_series(sha)] == \
            [r.scan_time for r in tiny_store.report_series(sha)]
        assert (parallel.store.sample_file_type(sha)
                == tiny_store.sample_file_type(sha))


def test_workers_exceeding_samples():
    config = tiny_scenario(n_samples=5, seed=13)
    data = run_experiment(config, workers=8)
    assert data.store.digest() == run_experiment(config).store.digest()
    # Empty shards are skipped, so at most n_samples workers really ran.
    assert data.workers <= config.n_samples


def test_single_report_samples_parallelise():
    # forced_report_count=1 → every shard holds only single-report
    # samples, the degenerate case for the merge-key ordering.
    config = tiny_scenario(n_samples=80, seed=5).with_(
        min_reports=1, forced_report_count=1)
    serial = run_experiment(config)
    parallel = run_experiment(config, workers=4)
    assert serial.store.report_count == config.n_samples
    assert parallel.store.digest() == serial.store.digest()


def test_workers_one_never_touches_multiprocessing(monkeypatch):
    def boom(*args, **kwargs):  # pragma: no cover - must not be reached
        raise AssertionError("multiprocessing used with workers=1")

    monkeypatch.setattr(multiprocessing, "get_context", boom)
    monkeypatch.setattr(multiprocessing, "Pool", boom)
    data = run_experiment(tiny_scenario(n_samples=40, seed=1), workers=1)
    assert data.workers == 1
    assert data.service is not None


def test_no_fork_falls_back_to_spawn(monkeypatch):
    """Without fork, 'auto' now degrades to the spawn pool — still a
    real parallel run, still digest-identical to serial."""
    import repro.parallel.runner as runner

    monkeypatch.setattr(runner, "fork_available", lambda: False)
    config = tiny_scenario(n_samples=40, seed=1)
    data = run_experiment(config, workers=4)
    assert data.workers == 4
    assert data.service is None
    assert data.executor_report is not None
    assert data.executor_report.executor == "spawn"
    assert data.store.digest() == run_experiment(config).store.digest()


def test_parallel_run_builds_no_fleet_in_the_parent():
    config = tiny_scenario(n_samples=40, seed=1)
    parallel = run_experiment(config, workers=2)
    assert parallel.fleet is None
    assert parallel.engine_names == run_experiment(config).engine_names


def test_run_experiment_rejects_bad_workers():
    config = tiny_scenario(n_samples=10, seed=0)
    with pytest.raises(ConfigError):
        run_experiment(config, workers=0)
    with pytest.raises(ConfigError):
        run_experiment(config, workers=-2)
    with pytest.raises(ConfigError):
        run_experiment(config, workers="many")


@settings(max_examples=5, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(n_samples=st.integers(min_value=10, max_value=60),
       seed=st.integers(min_value=0, max_value=1000))
def test_digest_equivalence_property(n_samples, seed):
    config = tiny_scenario(n_samples=n_samples, seed=seed)
    reference = run_experiment(config).store.digest()
    for workers in (2, 3, 5):
        data = run_experiment(config, workers=workers)
        assert data.store.digest() == reference, (
            f"digest diverged at workers={workers} "
            f"(n={n_samples}, seed={seed})")


# ----------------------------------------------------------------------
# Streaming merge: completion order must not matter
# ----------------------------------------------------------------------


class TestStreamingMerge:
    @pytest.fixture(scope="class")
    def shard_runs(self):
        config = tiny_scenario(n_samples=90, seed=21)
        shards = [s for s in partition_samples(config.n_samples, 6)
                  if s.size]
        runs = [run_shard(config, shard) for shard in shards]
        return config, runs

    @staticmethod
    def _merged(shard_runs, order, tmp_path):
        config, runs = shard_runs
        streaming = StreamingMerge(block_records=config.block_records)
        for i in order:
            streaming.add(frozen_shard_of(runs[i]))
        store = streaming.finish()
        path = tmp_path / f"{'-'.join(map(str, order))}.store"
        store.save(path)
        return store, path.read_bytes()

    def test_any_completion_order_matches_one_shot_concat(self, shard_runs,
                                                          tmp_path):
        config, runs = shard_runs
        reference, reference_bytes = self._merged(
            shard_runs, list(range(len(runs))), tmp_path)
        serial = run_experiment(config).store
        assert reference.digest() == serial.digest()
        assert reference.report_count == sum(run.report_count
                                             for run in runs)
        rng = random.Random(5)
        for _ in range(3):
            order = list(range(len(runs)))
            rng.shuffle(order)
            store, saved = self._merged(shard_runs, order, tmp_path)
            assert store.digest() == reference.digest()
            assert saved == reference_bytes


# ----------------------------------------------------------------------
# The worker pool: dead workers, raising ranges, accounting
# ----------------------------------------------------------------------

#: 2 workers x 4 ranges per worker = 8 ranges, shard-000 .. shard-007.
POOL_CONFIG = tiny_scenario(n_samples=150, seed=13)
POOL_KEYS = tuple(f"shard-{i:03d}" for i in range(8))

#: The failure tests patch ``worker.run_shard`` in this process; only
#: forked workers inherit the patch.
needs_fork = pytest.mark.skipif(not fork_available(),
                                reason="platform has no fork")


@pytest.fixture(scope="module")
def pool_serial_digest() -> str:
    return run_experiment(POOL_CONFIG).store.digest()


def exit_once(monkeypatch, tmp_path, after: bool) -> None:
    """The worker that first takes range shard-005 dies, before or after
    computing it; every later attempt runs normally.  Ranges are taken
    in key order, so earlier ranges already have results by then."""
    real_run_shard = worker.run_shard
    marker = tmp_path / "exited"

    def run_shard_or_exit(config, shard, **kwargs):
        run = real_run_shard(config, shard, **kwargs) if after else None
        if shard.shard_index == 5 and not marker.exists():
            marker.touch()
            os._exit(1)
        return run if after else real_run_shard(config, shard, **kwargs)

    monkeypatch.setattr(worker, "run_shard", run_shard_or_exit)


@needs_fork
@pytest.mark.parametrize("after", [False, True], ids=["before", "after"])
def test_dead_worker_ranges_rerun_to_serial_digest(
        monkeypatch, tmp_path, pool_serial_digest, after):
    exit_once(monkeypatch, tmp_path, after)
    data = run_experiment(POOL_CONFIG, workers=2)
    assert data.store.digest() == pool_serial_digest
    report = data.executor_report
    assert report.workers_lost == 1
    # Only the ranges without a result are rerun.
    assert 1 <= report.retried < len(POOL_KEYS)


@needs_fork
def test_workers_that_always_exit_name_every_unfinished_range(monkeypatch):
    monkeypatch.setattr(worker, "run_shard",
                        lambda *args, **kwargs: os._exit(1))
    with pytest.raises(ShardFailedError) as excinfo:
        run_experiment(POOL_CONFIG, workers=2)
    err = excinfo.value
    assert err.shard_keys == POOL_KEYS
    assert err.report.workers_lost == MAX_POOLS
    assert err.__cause__ is None


def boom(config, shard, **kwargs):
    raise ValueError("boom")


@needs_fork
def test_raising_range_fails_at_once_with_its_cause(monkeypatch):
    monkeypatch.setattr(worker, "run_shard", boom)
    with pytest.raises(ShardFailedError) as excinfo:
        run_experiment(POOL_CONFIG, workers=2)
    err = excinfo.value
    assert isinstance(err.__cause__, ValueError)
    assert str(err.__cause__) == "boom"
    assert len(err.shard_keys) == 1 and err.shard_keys[0] in POOL_KEYS
    assert "ValueError: boom" in str(err)
    assert err.report.retried == 0


@needs_fork
def test_cli_prints_a_raising_range_and_exits_2(monkeypatch, tmp_path,
                                               capsys):
    monkeypatch.setattr(worker, "run_shard", boom)
    status = main(["--samples", "150", "--workers", "2", "generate",
                   str(tmp_path / "out.store")])
    assert status == 2
    err = capsys.readouterr().err
    assert err.startswith("repro-vt: error: 1 shard range(s) failed: shard-")
    assert err.rstrip().endswith("ValueError: boom")
    assert not (tmp_path / "out.store").exists()


class TestExecutorReport:
    def test_publish_records_into_given_registry(self):
        registry = MetricsRegistry()
        report = ExecutorReport(executor="fork", tasks=12, retried=3,
                                workers_lost=2)
        report.publish(registry)
        labels = {"executor": "fork"}
        assert registry.counter("parallel.tasks.total",
                                **labels).value == 12
        assert registry.counter("parallel.shards.retried",
                                **labels).value == 3
        assert registry.counter("parallel.workers.lost",
                                **labels).value == 2


# ----------------------------------------------------------------------
# Worker internals
# ----------------------------------------------------------------------


def test_execute_range_covers_exact_slice():
    config = tiny_scenario(n_samples=30, seed=9)
    generator = PopulationGenerator(config)
    expected = {generator.sha_for(i) for i in range(10, 20)}
    run = execute_range(config, 10, 20)
    assert set(run.store.samples()) == expected


def test_run_shard_ships_all_merge_keys():
    config = tiny_scenario(n_samples=30, seed=9)
    shard = partition_samples(config.n_samples, 3)[1]
    result = run_shard(config, shard)
    shipped = sum(len(m.keys) for m in result.months.values())
    assert shipped == result.report_count
    for month in result.months.values():
        times = [t for batch in month.decode() for t in batch.scan_time.tolist()]
        keys = month.keys.tolist()
        assert list(zip(times, keys)) == sorted(zip(times, keys))
        assert all(shard.start <= index < shard.stop for index in keys)


def test_iter_range_bounds_checked():
    generator = PopulationGenerator(tiny_scenario(n_samples=10, seed=0))
    with pytest.raises(IndexError):
        list(generator.iter_range(-1, 5))
    with pytest.raises(IndexError):
        list(generator.iter_range(0, 11))


# ----------------------------------------------------------------------
# Benchmark artifact schema
# ----------------------------------------------------------------------


def test_bench_artifact_schema(tmp_path):
    import importlib.util
    from pathlib import Path

    bench_path = (Path(__file__).resolve().parent.parent
                  / "benchmarks" / "bench_parallel_scaling.py")
    spec = importlib.util.spec_from_file_location("bench_parallel", bench_path)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)

    out = tmp_path / "BENCH_parallel.json"
    rc = bench.main(["--samples", "60", "--workers", "1,2",
                     "--output", str(out)])
    assert rc == 0
    results = __import__("json").loads(out.read_text())

    assert results["schema"] == "repro-bench/1"
    assert results["python"]
    assert results["cpu_count"] >= 1
    assert results["scenario"]["n_samples"] == 60
    assert results["equivalent"] is True
    names = set()
    for entry in results["benchmarks"]:
        for key in ("name", "workers", "wall_seconds", "speedup",
                    "reports", "dataset_digest", "digest_matches_serial"):
            assert key in entry, f"missing {key}"
        assert entry["wall_seconds"] >= 0
        assert len(entry["dataset_digest"]) == 64
        names.add(entry["name"])
    assert len(names) == len(results["benchmarks"])
    assert any(e["workers"] == 1 for e in results["benchmarks"])
    overhead = results["metrics_overhead"]
    for key in ("n_samples", "reports", "disabled_seconds",
                "enabled_seconds", "enabled_over_disabled"):
        assert key in overhead, f"missing metrics_overhead.{key}"
    assert overhead["enabled_over_disabled"] > 0


# ----------------------------------------------------------------------
# Spec immutability (the in-place mutation fix)
# ----------------------------------------------------------------------


def test_run_does_not_mutate_generator_specs():
    config = ScenarioConfig(seed=21, n_samples=60)  # mixed fresh/pre-window
    specs = list(PopulationGenerator(config))
    run_experiment(config)
    for spec in specs:
        assert spec.sample.times_submitted == 0
        assert spec.sample.last_submission_date is None
        assert spec.sample.last_analysis_date is None


def test_register_backfills_prewindow_state_on_the_clone():
    original = Sample(sha256="a" * 64, file_type="Win32 EXE",
                      malicious=False, first_seen=-500)
    clone = original.clone()
    service = VirusTotalService(seed=0)
    service.register(clone)
    # The pre-window sample arrives with one historical submission …
    assert clone.times_submitted == 1
    assert clone.last_submission_date == -500
    # … and the source object is untouched.
    assert original.times_submitted == 0
    assert original.last_submission_date is None


def test_register_does_not_backfill_fresh_samples():
    fresh = Sample(sha256="b" * 64, file_type="Win32 EXE",
                   malicious=False, first_seen=100)
    service = VirusTotalService(seed=0)
    service.register(fresh)
    assert fresh.times_submitted == 0
    assert fresh.last_submission_date is None
