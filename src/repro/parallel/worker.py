"""The per-shard generate→scan→ingest loop.

:func:`execute_range` is the single implementation of the experiment's
scan loop: the serial runner calls it over ``[0, n_samples)`` in
process, and each parallel worker calls it over its shard's range with
its own :class:`~repro.vt.service.VirusTotalService`, engine fleet and
:class:`~repro.store.reportstore.ReportStore`.  Both paths scan each
sample's whole schedule through
:meth:`~repro.vt.service.VirusTotalService.scan_by_month`: a sample's
scans draw only from its private ``scan_rng``, in scan order, so its
rows are exactly those of a serial run — per-report bytes are identical
by construction — and the records come back in global time order.

:func:`run_shard` wraps ``execute_range`` for a worker process: it runs
the shard, freezes the store, and repackages it as a picklable
:class:`ShardRun` carrying each month's compressed blocks plus one merge
key per record — its global sample index — which, with the record's
scan time, puts shards back together in serial order.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field

import numpy as np

from repro.obs.registry import NULL_REGISTRY, MetricsRegistry, MetricsSnapshot
from repro.parallel.sharding import ShardSpec
from repro.store.merge import FrozenMonth
from repro.store.reportstore import ReportStore
from repro.synth.population import PopulationGenerator
from repro.synth.scenario import ScenarioConfig
from repro.vt.engines import EngineFleet, default_fleet
from repro.vt.samples import Sample
from repro.vt.service import VirusTotalService

@dataclass
class RangeRun:
    """Everything one in-process scan-loop execution produced."""

    service: VirusTotalService
    fleet: EngineFleet
    store: ReportStore
    events_executed: int
    #: Per-month merge keys — each record's global sample index — one
    #: per ingested record in ingest order.
    keys_by_month: dict[int, np.ndarray] = field(repr=False)


@dataclass
class ShardRun:
    """A worker's result: frozen month payloads plus their merge keys."""

    shard_index: int
    months: dict[int, FrozenMonth]
    events_executed: int
    report_count: int
    #: Snapshot of the worker's metrics registry (None when the driver
    #: ran without observability).  Folded into the parent registry in
    #: shard order; merge commutativity makes the order irrelevant.
    metrics: MetricsSnapshot | None = None


def execute_range(
    config: ScenarioConfig,
    start: int,
    stop: int,
    fleet: EngineFleet | None = None,
    collect_keys: bool = False,
    metrics=None,
) -> RangeRun:
    """Generate, scan and store samples ``[start, stop)`` of the scenario.

    Registers a *clone* of every generated sample, so the generator's
    spec objects are never mutated (the pre-window submission backfill
    happens at registration time, on the clone), then scans every
    schedule through
    :meth:`~repro.vt.service.VirusTotalService.scan_by_month` and
    ingests its event-ordered month batches.  With ``collect_keys`` the
    per-record merge keys are taken from the same ordered arrays — the
    worker path; the serial path skips the bookkeeping.

    ``metrics`` is handed to the service and the store.  Everything this
    loop records is per-sample work (partition-invariant), so the merged
    registries of a sharded run reproduce the serial registry exactly.
    """
    if metrics is None:
        metrics = NULL_REGISTRY
    if fleet is None:
        fleet = default_fleet(config.seed)
    service = VirusTotalService(fleet=fleet, params=config.behavior,
                                seed=config.seed, metrics=metrics)
    store = ReportStore(block_records=config.block_records, metrics=metrics)

    samples: list[Sample] = []
    indices: list[int] = []
    counts: list[int] = []
    times = array("q")
    for index, spec in PopulationGenerator(config).iter_range(start, stop):
        sample = spec.sample.clone()
        service.register(sample)
        samples.append(sample)
        indices.append(index)
        counts.append(len(spec.scan_times))
        times.extend(spec.scan_times)

    keys_by_month: dict[int, np.ndarray] = {}
    executed = len(times)
    metrics.counter("run.events.total").inc(executed)
    index_of = np.asarray(indices, np.int64)
    for month, batch, owner in service.scan_by_month(
            samples, counts, times, [sample.fresh for sample in samples]):
        store.ingest_arrays(batch)
        if collect_keys:
            keys_by_month[month] = index_of[owner]
    store.close()

    return RangeRun(service=service, fleet=fleet, store=store,
                    events_executed=executed, keys_by_month=keys_by_month)


def run_shard(
    config: ScenarioConfig,
    shard: ShardSpec,
    fleet: EngineFleet | None = None,
    with_metrics: bool = False,
) -> ShardRun:
    """Execute one shard and package the frozen store for the driver.

    With ``with_metrics`` the shard records into its own fresh registry
    and ships the picklable snapshot back with the result.
    """
    registry = MetricsRegistry() if with_metrics else None
    run = execute_range(config, shard.start, shard.stop, fleet=fleet,
                        collect_keys=True, metrics=registry)
    store = run.store
    months = {
        month: FrozenMonth(blocks=list(mshard.blocks),
                           report_count=mshard.report_count,
                           keys=run.keys_by_month[month])
        for month, mshard in store.shards.items()
    }
    return ShardRun(
        shard_index=shard.shard_index,
        months=months,
        events_executed=run.events_executed,
        report_count=store.report_count,
        metrics=registry.snapshot() if registry is not None else None,
    )


def _run_shard_task(args: tuple[ScenarioConfig, ShardSpec,
                                EngineFleet | None, bool]) -> ShardRun:
    """The pool's submitted function: one argument tuple in, one
    :class:`ShardRun` out (module-level, so spawned workers can import
    it)."""
    config, shard, fleet, with_metrics = args
    return run_shard(config, shard, fleet=fleet, with_metrics=with_metrics)
