"""Parallel experiment orchestration: fan out shard ranges, merge stores.

``run_parallel`` partitions the scenario into more ranges than workers
(:data:`RANGES_PER_WORKER` per worker, so a worker that finishes early
takes the next range), runs them on the worker pool
(:mod:`repro.parallel.scheduler`), and streams completed frozen shards
into the merge (:class:`~repro.store.merge.StreamingMerge`).  The result
is bit-identical to a serial run: per-shard bytes are a pure function of
``(config, range)``, merge keys reproduce the serial ingest order, and
the merge re-blocks purely by record sequence, so neither worker count,
completion order nor a worker's death can perturb the final store.

Workers fork where the platform can and spawn otherwise.  The
single-range case still short-circuits to the in-process serial path.
"""

from __future__ import annotations

import multiprocessing

from repro.parallel.scheduler import ShardScheduler
from repro.parallel.sharding import partition_samples
from repro.parallel.worker import ShardRun
from repro.store.merge import FrozenShard, StreamingMerge
from repro.synth.scenario import ScenarioConfig
from repro.vt.engines import EngineFleet

#: Shard ranges per worker.
RANGES_PER_WORKER = 4


def fork_available() -> bool:
    """Whether this platform supports fork-based worker processes.

    Tests monkeypatch ``runner.fork_available`` to simulate fork-less
    platforms.
    """
    return "fork" in multiprocessing.get_all_start_methods()


def frozen_shard_of(run: ShardRun) -> FrozenShard:
    """Repackage one worker's result for the merge."""
    return FrozenShard(months=run.months)


def run_parallel(
    config: ScenarioConfig,
    fleet: EngineFleet | None = None,
    workers: int = 2,
    metrics=None,
):
    """Run one scenario across ``workers`` processes; returns the data.

    The returned :class:`~repro.analysis.experiment.ExperimentData` has
    ``service=None`` — worker services die with their processes, and no
    analysis pipeline needs a live service (the CLI's load-from-store
    path already runs without one).  Callers that need the service (e.g.
    the snapshot-campaign comparison) run serially.  Its ``fleet`` is
    the one passed in (``None`` by default), as on the load-from-store
    path: the parent builds no fleet of its own.

    With an enabled ``metrics`` registry each worker records into its
    own registry and ships a snapshot; the snapshots are folded into
    ``metrics`` in shard order and the merged store's whole-run gauges
    are published, so the final export is byte-identical to a serial
    run's (the metric side of the equivalence gate).  Pool accounting —
    ranges, resubmissions, lost workers — goes to the process-wide
    registry instead, via
    :meth:`~repro.parallel.scheduler.ExecutorReport.publish`.
    """
    from repro.analysis.experiment import ExperimentData, run_experiment

    ranges = [s for s in partition_samples(config.n_samples,
                                           workers * RANGES_PER_WORKER)
              if s.size]
    if len(ranges) <= 1:
        return run_experiment(config, fleet=fleet, workers=1,
                              metrics=metrics)
    workers_started = min(workers, len(ranges))

    with_metrics = metrics is not None and metrics.enabled
    tasks = {f"shard-{shard.shard_index:03d}":
             (config, shard, fleet, with_metrics) for shard in ranges}

    streaming = StreamingMerge(block_records=config.block_records,
                               metrics=metrics)
    snapshots: dict[int, object] = {}
    events_total = 0

    def on_result(run: ShardRun) -> None:
        nonlocal events_total
        events_total += run.events_executed
        if with_metrics and run.metrics is not None:
            snapshots[run.shard_index] = run.metrics
        streaming.add(frozen_shard_of(run))

    # Fork is safe here: no thread runs in this process when a pool forks
    # (the pool forks every worker before it starts its own threads, and
    # a finished pool's threads are joined before the next one starts).
    method = "fork" if fork_available() else "spawn"
    report = ShardScheduler(method, tasks, on_result).run(workers_started)

    if with_metrics:
        for shard_index in sorted(snapshots):
            metrics.merge(snapshots[shard_index])
    store = streaming.finish()
    store.publish_metrics()
    report.publish()
    return ExperimentData(
        config=config,
        fleet=fleet,
        service=None,
        store=store,
        events_executed=events_total,
        workers=workers_started,
        metrics=metrics,
        executor_report=report,
    )
