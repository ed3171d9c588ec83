"""Scenario driver for the resilient collector.

:func:`run_collection` is the chaos-capable sibling of
:func:`repro.analysis.experiment.run_experiment`: it generates the same
deterministic population and scans it through the same
:meth:`~repro.vt.service.VirusTotalService.scan_by_month`, then
publishes each minute's reports to the feed archive and the premium
feed and consumes the feed through a
:class:`~repro.collect.collector.FeedCollector` stepping minute by
minute — optionally with a :class:`~repro.faults.FaultPlan` injecting
failures along the way.  A clean run's store therefore equals
``run_experiment``'s.

Crash/resume is modelled faithfully: ``stop_at`` kills a run after a
given minute *without* flushing (only what the collector persisted on
its own cadence survives), and a second call with ``resume_from`` loads
the store snapshot + checkpoint, rebuilds the server side — the service
and the archive, which a collector crash never touches — from minute 0,
publishes to the feed from the resume point on, and lets the collector
detect and backfill whatever the dead process lost.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

from repro.collect.backoff import BackoffPolicy
from repro.collect.checkpoint import load_checkpoint
from repro.collect.collector import CollectorStats, FeedCollector
from repro.errors import CheckpointError
from repro.faults.chaos import ChaosFeed, chaos_wrap
from repro.faults.plan import FaultPlan
from repro.store.columnar import ColumnarBatch
from repro.store.reportstore import ReportStore
from repro.synth.population import PopulationGenerator
from repro.synth.scenario import ScenarioConfig
from repro.vt.api import VTClient
from repro.vt.engines import EngineFleet, default_fleet
from repro.vt.clock import DEFAULT_ARCHIVE_RETENTION_MINUTES
from repro.vt.feed import FeedArchive, PremiumFeed
from repro.vt.service import VirusTotalService

#: Default checkpoint cadence: once per simulated day.
DEFAULT_PERSIST_EVERY = 24 * 60


@dataclass(frozen=True)
class CollectionPaths:
    """Well-known file layout inside a collection working directory."""

    root: Path

    @property
    def store(self) -> Path:
        return self.root / "store.rpr"

    @property
    def checkpoint(self) -> Path:
        return self.root / "checkpoint.json"

    @property
    def deadletters(self) -> Path:
        return self.root / "deadletters.jsonl"


@dataclass
class CollectionResult:
    """Everything a test or analysis needs from one collection run."""

    config: ScenarioConfig
    plan: FaultPlan | None
    service: VirusTotalService
    archive: FeedArchive
    store: ReportStore
    collector: FeedCollector
    chaos_feed: ChaosFeed | None
    crashed: bool
    paths: CollectionPaths | None

    @property
    def stats(self) -> CollectorStats:
        return self.collector.stats()


def collection_paths(out_dir: str | Path) -> CollectionPaths:
    return CollectionPaths(Path(out_dir))


def auto_resume_minute(out_dir: str | Path) -> int:
    """The minute a crashed run in ``out_dir`` should resume from."""
    paths = collection_paths(out_dir)
    if not paths.checkpoint.exists():
        raise CheckpointError(f"no checkpoint to resume from in {paths.root}")
    return load_checkpoint(paths.checkpoint).last_minute + 1


def run_collection(
    config: ScenarioConfig,
    *,
    plan: FaultPlan | None = None,
    fleet: EngineFleet | None = None,
    out_dir: str | Path | None = None,
    persist_every: int | None = DEFAULT_PERSIST_EVERY,
    resume_from: int | None = None,
    stop_at: int | None = None,
    until_minute: int | None = None,
    archive_retention: int = DEFAULT_ARCHIVE_RETENTION_MINUTES,
    backoff: BackoffPolicy | None = None,
    metrics=None,
) -> CollectionResult:
    """Run one scenario through the resilient collection pipeline.

    ``plan`` defaults to ``config.fault_plan``; ``None``/disabled means
    the chaos layer is bypassed entirely (the collector drives the raw
    objects).  ``until_minute`` truncates the simulation horizon — handy
    for tests that only need the first weeks of the window.  ``stop_at``
    simulates a crash: the run returns (``crashed=True``) right after
    stepping that minute, without the final backfill/persist.
    ``resume_from`` continues a crashed run from its ``out_dir``; use
    :func:`auto_resume_minute` to pick the minute after the checkpoint.
    ``metrics`` threads one registry through the service, store,
    collector and chaos wrappers.
    """
    if plan is None:
        plan = config.fault_plan
    paths = collection_paths(out_dir) if out_dir is not None else None
    if resume_from is not None:
        if paths is None:
            raise CheckpointError("resume requires out_dir")
        if not paths.checkpoint.exists() or not paths.store.exists():
            raise CheckpointError(
                f"cannot resume: missing checkpoint or store snapshot "
                f"in {paths.root}"
            )
    elif paths is not None:
        # A fresh run owns its working directory: stale state from a
        # previous run must not be mistaken for something to resume.
        paths.root.mkdir(parents=True, exist_ok=True)
        paths.checkpoint.unlink(missing_ok=True)
        paths.deadletters.unlink(missing_ok=True)

    if fleet is None:
        fleet = default_fleet(config.seed)
    service = VirusTotalService(fleet=fleet, params=config.behavior,
                                seed=config.seed, metrics=metrics)
    archive = FeedArchive(retention_minutes=archive_retention)
    feed = PremiumFeed()
    if resume_from is not None:
        store = ReportStore.load(paths.store, reopen=True, metrics=metrics)
    else:
        store = ReportStore(block_records=config.block_records,
                            metrics=metrics)
    client = VTClient(service, premium=True, archive=archive)

    try:
        cfeed, cstore, cclient = chaos_wrap(feed, store, client, plan,
                                            metrics=metrics)
        collector = FeedCollector(
            cfeed,
            cstore,
            cclient,
            checkpoint_path=paths.checkpoint if paths else None,
            store_path=paths.store if paths else None,
            deadletter_path=paths.deadletters if paths else None,
            backoff=backoff,
            persist_every=persist_every if paths else None,
            seed=config.seed,
            metrics=metrics,
        )

        # Same deterministic population as run_experiment.  Register
        # clones: the service applies the pre-window submission backfill
        # at registration time, and the generator's spec objects stay
        # pristine for any later re-run from the same specs.
        samples: list = []
        schedules: list[tuple[int, ...]] = []
        for spec in PopulationGenerator(config):
            sample = spec.sample.clone()
            service.register(sample)
            samples.append(sample)
            schedules.append(spec.scan_times)

        end = max((times[-1] + 1 for times in schedules if times), default=0)
        if until_minute is not None:
            end = min(end, until_minute)
        start = resume_from if resume_from is not None else 0
        # The service scans every schedule up front, up to the minute
        # the run stops at (a crash leaves it where the crash found it).
        horizon = end if stop_at is None else min(end, stop_at + 1)
        counts = [bisect_left(times, horizon) for times in schedules]
        times = array("q")
        for k, sample_times in zip(counts, schedules, strict=True):
            times.extend(sample_times[:k])
        months = service.scan_by_month(samples, counts, times,
                                       [sample.fresh for sample in samples])
        minutes = _minutes(months)
        next_minute, batch, lo, hi = next(minutes, (end, None, 0, 0))

        crashed = False
        for minute in range(end):
            if minute == next_minute:
                # The archive is server-side and sees every minute; the
                # collector's subscription begins at ``start``.
                reports = [batch.report(slot) for slot in range(lo, hi)]
                archive.publish(reports)
                if minute >= start:
                    feed.publish(reports)
                next_minute, batch, lo, hi = next(minutes, (end, None, 0, 0))
            if minute >= start:
                collector.step(minute)
                if stop_at is not None and minute >= stop_at:
                    crashed = True  # simulated crash: no finalize/flush
                    break
        if not crashed:
            collector.finalize()
    except BaseException:
        # A simulated crash (stop_at) exits normally via `crashed`;
        # a real exception abandons the run, so release the store
        # (resume-loaded or fresh) before propagating.
        store.close()
        raise

    return CollectionResult(
        config=config,
        plan=plan,
        service=service,
        archive=archive,
        store=cstore.wrapped if hasattr(cstore, "wrapped") else cstore,
        collector=collector,
        chaos_feed=cfeed if isinstance(cfeed, ChaosFeed) else None,
        crashed=crashed,
        paths=paths,
    )


def _minutes(
    months: Iterator[tuple[int, ColumnarBatch, np.ndarray]],
) -> Iterator[tuple[int, ColumnarBatch, int, int]]:
    """``(minute, batch, lo, hi)``: slots ``[lo, hi)`` of ``batch`` hold
    that minute's scans, for every minute with scans, in time order."""
    for _, batch, _ in months:
        scan_time = batch.scan_time
        cuts = (np.flatnonzero(np.diff(scan_time)) + 1).tolist()
        for lo, hi in zip([0, *cuts], [*cuts, len(batch)]):
            yield int(scan_time[lo]), batch, lo, hi
