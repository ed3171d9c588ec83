"""The per-shard generate→scan→ingest loop.

:func:`execute_range` is the single implementation of the experiment's
scan loop: the serial runner calls it over ``[0, n_samples)`` in
process, and each parallel worker calls it over its shard's range with
its own :class:`~repro.vt.service.VirusTotalService`, engine fleet and
:class:`~repro.store.reportstore.ReportStore`.  Both paths scan each
sample's whole schedule in one kernel pass: a sample's scans draw only
from its private ``scan_rng``, in scan order, so its rows are exactly
those of a serial run — per-report bytes are identical by construction —
and the records are then ingested in global time order.

:func:`run_shard` wraps ``execute_range`` for a worker process: it runs
the shard, freezes the store, and repackages it as a picklable
:class:`ShardRun` carrying each month's compressed blocks plus one merge
key per record — its global sample index — which, with the record's
scan time, puts shards back together in serial order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from repro.obs.registry import NULL_REGISTRY, MetricsRegistry, MetricsSnapshot
from repro.parallel.sharding import ShardSpec
from repro.store.columnar import ColumnarBatch, month_indices
from repro.store.merge import FrozenMonth
from repro.store.reportstore import ReportStore
from repro.synth.population import PopulationGenerator
from repro.synth.scenario import ScenarioConfig
from repro.vt.engines import EngineFleet, default_fleet
from repro.vt.samples import Sample
from repro.vt.service import ScanBatch, VirusTotalService

#: Scans per kernel pass (and per progress callback).  Large enough to
#: amortise the per-pass numpy overhead over the paper's 1.5 scans per
#: sample; small enough that a pass's float64 draws stay near a megabyte
#: and a worker beats well inside the 30 s heartbeat deadline.
SCAN_CHUNK_REPORTS = 2_000

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
    progress=None,
) -> RangeRun:
    """Generate, scan and store samples ``[start, stop)`` of the scenario.

    Registers a *clone* of every generated sample, so the generator's
    spec objects are never mutated (the pre-window submission backfill
    happens at registration time, on the clone).  Samples are scanned
    in chunks of about ``SCAN_CHUNK_REPORTS`` scans, each chunk one
    :meth:`~repro.vt.service.VirusTotalService.scan_batch` pass over
    whole schedules.  The scans are then put in event order
    ``(scan_time, sample index, ordinal)`` and ingested as one columnar
    batch per month.  With ``collect_keys`` the per-record merge keys
    are taken from the same ordered arrays — the worker path; the
    serial path skips the bookkeeping.

    ``metrics`` is handed to the service and the store.  Everything this
    loop records is per-sample work (partition-invariant), so the merged
    registries of a sharded run reproduce the serial registry exactly.

    ``progress`` (optional zero-arg callable) is invoked after every
    chunk.  It must not affect simulation state: the executor layer
    hangs throttled heartbeat emission off it.
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
    parts: list[ScanBatch] = []
    times: list[int] = []
    first = 0

    def scan_chunk(group: list[Sample], group_counts: list[int]) -> None:
        parts.append(service.scan_batch(group, group_counts, times,
                                        [sample.fresh for sample in group]))
        times.clear()
        if progress is not None:
            progress()

    for index, spec in PopulationGenerator(config).iter_range(start, stop):
        sample = spec.sample.clone()
        service.register(sample)
        samples.append(sample)
        indices.append(index)
        counts.append(len(spec.scan_times))
        times += spec.scan_times
        if len(times) >= SCAN_CHUNK_REPORTS:
            scan_chunk(samples[first:], counts[first:])
            first = len(samples)
    if times:
        scan_chunk(samples[first:], counts[first:])

    keys_by_month: dict[int, np.ndarray] = {}
    executed = sum(counts)
    metrics.counter("run.events.total").inc(executed)
    if executed:
        index_of = np.asarray(indices, np.int64)
        for month, batch, owner in _month_batches(fleet, samples, counts,
                                                  parts):
            store.ingest_arrays(batch)
            if collect_keys:
                keys_by_month[month] = index_of[owner]
    store.close()

    return RangeRun(service=service, fleet=fleet, store=store,
                    events_executed=executed, keys_by_month=keys_by_month)


def _month_batches(
    fleet: EngineFleet,
    samples: list[Sample],
    counts: list[int],
    parts: list[ScanBatch],
) -> Iterator[tuple[int, ColumnarBatch, np.ndarray]]:
    """Every scan in ``(scan_time, sample, ordinal)`` order, as one
    columnar batch per month plus each record's position in ``samples``.

    Each sample's scans draw only from its private ``scan_rng``, in scan
    order, so scanning sample by sample yields exactly the rows a global
    time-ordered replay would; only the record order needs restoring.
    The label and version planes are gathered one month at a time.
    """
    count = np.asarray(counts, np.int64)
    owner = np.repeat(np.arange(len(samples)), count)
    ordinal = np.arange(len(owner)) - np.repeat(np.cumsum(count) - count,
                                                count)
    scan_time = np.concatenate([part.scan_time for part in parts])
    order = np.lexsort((ordinal, owner, scan_time))
    owner = owner[order]
    when = scan_time[order]
    ftypes: dict[str, int] = {}
    ftype_codes = np.array([ftypes.setdefault(s.file_type, len(ftypes))
                            for s in samples], "<u2")
    columns = {
        "scan_time": when,
        "positives": np.concatenate(
            [part.positives for part in parts])[order].astype("<u2"),
        "total": np.concatenate(
            [part.total for part in parts])[order].astype("<u2"),
        "first_submission": np.array(
            [s.first_seen for s in samples], "<i8")[owner],
        "last_submission": np.array(
            [v for part in parts for v in part.last_submission], "<i8")[owner],
        "last_analysis": when,
        "times_submitted": np.array(
            [v for part in parts for v in part.times_submitted], "<u4")[owner],
        "n_engines": np.full(len(when), len(fleet), "<u2"),
        "ftype_codes": ftype_codes[owner],
        "shas": np.array([bytes.fromhex(s.sha256) for s in samples],
                         "S32")[owner],
    }
    labels = np.concatenate([part.labels for part in parts])
    months = month_indices(when)
    bounds = np.flatnonzero(np.diff(months)) + 1
    for lo, hi in zip([0, *bounds.tolist()], [*bounds.tolist(), len(when)]):
        yield int(months[lo]), ColumnarBatch(
            **{name: column[lo:hi] for name, column in columns.items()},
            ftypes=tuple(ftypes),
            labels=labels[order[lo:hi]].ravel(),
            versions=fleet.versions_at(when[lo:hi]).ravel(),
        ), owner[lo:hi]


def run_shard(
    config: ScenarioConfig,
    shard: ShardSpec,
    fleet: EngineFleet | None = None,
    with_metrics: bool = False,
    progress=None,
) -> ShardRun:
    """Execute one shard and package the frozen store for the driver.

    With ``with_metrics`` the shard records into its own fresh registry
    and ships the picklable snapshot back with the result.
    """
    registry = MetricsRegistry() if with_metrics else None
    run = execute_range(config, shard.start, shard.stop, fleet=fleet,
                        collect_keys=True, metrics=registry,
                        progress=progress)
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
    """Module-level pool target (must be importable by worker processes)."""
    config, shard, fleet, with_metrics = args
    return run_shard(config, shard, fleet=fleet, with_metrics=with_metrics)
