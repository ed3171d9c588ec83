"""End-to-end experiment runner.

Reproduces the paper's data pipeline at scenario scale:

1. generate the sample population and its scan schedule
   (:mod:`repro.synth`);
2. replay every submission/rescan against the VirusTotal simulator in
   global time order (:mod:`repro.vt`);
3. consume the premium feed minute by minute into the report store
   (:mod:`repro.store`), exactly as the authors' collection loop did;
4. expose the store plus one cached analysis frame (AV-Rank series,
   dataset *S* and the per-engine label planes, decoded in one pass) to
   the figure/table pipelines.

The event loop itself lives in :mod:`repro.parallel.worker` so the
serial path and the sharded workers run literally the same code; with
``workers > 1`` the run fans out across processes and the shard stores
are merged bit-identically to the serial result (see
:mod:`repro.parallel`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from repro.core.avrank import AVRankSeries, select_dataset_s
from repro.obs import get_registry
from repro.parallel.sharding import resolve_workers
from repro.store.columnar import SeriesFrame
from repro.store.merge import MergeStats
from repro.store.reportstore import ReportStore
from repro.synth.scenario import ScenarioConfig
from repro.vt.engines import EngineFleet
from repro.vt.filetypes import TOP20_FILE_TYPES
from repro.vt.service import VirusTotalService


@dataclass
class ExperimentData:
    """Everything an analysis pipeline needs from one scenario run."""

    config: ScenarioConfig
    fleet: EngineFleet
    #: The live service of a serial in-process run.  ``None`` when the
    #: store was produced by parallel workers (their services die with
    #: the worker processes) or loaded from disk; no analysis pipeline
    #: needs it, only the snapshot-campaign comparison does.
    service: VirusTotalService | None
    store: ReportStore
    events_executed: int = 0
    #: Worker processes that produced the store (1 = in-process serial).
    workers: int = 1
    #: How the shard merge moved data (parallel runs only).
    merge_stats: MergeStats | None = None
    #: The metrics registry the run recorded into (None when the caller
    #: ran without observability; possibly the process-wide registry).
    metrics: object | None = None
    #: Failure-handling accounting of the elastic executor (parallel
    #: runs only): attempts, retries, lost workers, stolen ranges.
    executor_report: object | None = None
    _series: list[AVRankSeries] | None = field(default=None, repr=False)

    @property
    def engine_names(self) -> tuple[str, ...]:
        return self.fleet.names

    @cached_property
    def frame(self) -> SeriesFrame:
        """The store grouped per sample, with planes: the one decode pass
        that the series, dataset *S* and the §7 analyses all read."""
        return self.store.series_frame()

    def series(self) -> list[AVRankSeries]:
        """AV-Rank series for every sample (cached), from :attr:`frame`;
        bit-identical to ``collect_series(store.iter_sample_reports())``."""
        if self._series is None:
            self._series = self.frame.to_series()
        return self._series

    def store_cache_stats(self):
        """Retrieval-layer counters accumulated by the analyses so far."""
        return self.store.cache_stats()

    @cached_property
    def dataset_s(self) -> list[AVRankSeries]:
        """The paper's dataset *S*: fresh, top-20 types, multi-report."""
        return select_dataset_s(self.series(), frozenset(TOP20_FILE_TYPES))

    @cached_property
    def multi_report(self) -> list[AVRankSeries]:
        """All series with more than one report (§5.1's 63 M analogue)."""
        return [s for s in self.series() if s.multi]


def run_experiment(
    config: ScenarioConfig,
    fleet: EngineFleet | None = None,
    workers: int | str = 1,
    metrics=None,
    executor=None,
) -> ExperimentData:
    """Generate, scan and store one scenario; returns the loaded data.

    ``fleet`` overrides the default engine fleet — used by ablations
    (e.g. a fleet with copy rules stripped); with ``workers > 1`` the
    override is shipped to every worker, so ablations parallelise too.

    ``workers`` runs the scenario as that many sharded processes
    (``"auto"`` = CPU count, clamped by ``REPRO_MAX_WORKERS``).  The
    result is bit-identical to the serial run — same reports, same store
    layout, same canonical digest — with one difference:
    ``data.service`` is ``None``, since worker services die with their
    processes.  ``workers=1`` executes entirely in process, never
    touching :mod:`multiprocessing`.

    ``executor`` selects and tunes the elastic executor for parallel
    runs: ``None``/an executor kind string (``auto``, ``in-process``,
    ``fork``, ``spawn``) or a full
    :class:`~repro.parallel.scheduler.ExecutorPolicy`.  ``auto``
    prefers fork and falls back to spawn where fork is unavailable.

    ``metrics`` injects a registry for the run; with ``None`` the
    process-wide registry is used (the disabled null object unless
    :func:`repro.obs.enable` was called).  Serial and parallel runs of
    the same config export byte-identical metrics — see
    ``tests/test_obs_golden.py``.
    """
    if metrics is None:
        metrics = get_registry()
    n_workers = resolve_workers(workers)
    if n_workers > 1:
        from repro.parallel.runner import run_parallel

        return run_parallel(config, fleet=fleet, workers=n_workers,
                            metrics=metrics, executor=executor)

    from repro.parallel.worker import execute_range

    run = execute_range(config, 0, config.n_samples, fleet=fleet,
                        metrics=metrics)
    run.store.publish_metrics()
    return ExperimentData(
        config=config,
        fleet=run.fleet,
        service=run.service,
        store=run.store,
        events_executed=run.events_executed,
        metrics=metrics,
    )
