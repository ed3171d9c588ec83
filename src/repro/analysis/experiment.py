"""End-to-end experiment runner.

Reproduces the paper's data pipeline at scenario scale:

1. generate the sample population and its scan schedule
   (:mod:`repro.synth`);
2. scan every sample's schedule against the VirusTotal simulator, a
   fresh sample's first scan as an upload and every other as a rescan
   (:mod:`repro.vt`), in array passes over many samples at once;
3. ingest the scans into the report store (:mod:`repro.store`) in the
   global time order the authors' minute-by-minute feed collection
   would have stored them;
4. expose the store plus one cached analysis frame (AV-Rank
   trajectories and the per-engine label planes, decoded in one pass)
   and its dataset *S* sub-frame to the figure/table pipelines.

The scan loop itself lives in :mod:`repro.parallel.worker` so the
serial path and the sharded workers run literally the same code; with
``workers > 1`` the run fans out across processes and the shard stores
are merged bit-identically to the serial result (see
:mod:`repro.parallel`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING

from repro.core.avrank import AVRankSeries
from repro.obs import get_registry
from repro.parallel.sharding import resolve_workers
from repro.store.columnar import SeriesFrame
from repro.store.reportstore import ReportStore
from repro.vt.engines import ENGINE_NAMES
from repro.vt.filetypes import TOP20_FILE_TYPES

if TYPE_CHECKING:
    from repro.synth.scenario import ScenarioConfig
    from repro.vt.engines import EngineFleet
    from repro.vt.service import VirusTotalService


@dataclass
class ExperimentData:
    """Everything an analysis pipeline needs from one scenario run."""

    config: ScenarioConfig
    #: The fleet that scanned the store; ``None`` when the store was
    #: loaded from disk, whose reports name no engines, or produced by
    #: parallel workers without a fleet override (each worker built
    #: its own default fleet).
    fleet: EngineFleet | None
    #: The live service of a serial in-process run.  ``None`` when the
    #: store was produced by parallel workers (their services die with
    #: the worker processes) or loaded from disk; no analysis pipeline
    #: needs it, only the snapshot-campaign comparison does.
    service: VirusTotalService | None
    store: ReportStore
    events_executed: int = 0
    #: Worker processes that produced the store (1 = in-process serial).
    workers: int = 1
    #: The metrics registry the run recorded into (None when the caller
    #: ran without observability; possibly the process-wide registry).
    metrics: object | None = None
    #: Worker-pool accounting (parallel runs only): ranges,
    #: resubmitted ranges, lost workers.
    executor_report: object | None = None
    _series: list[AVRankSeries] | None = field(default=None, repr=False)

    @property
    def engine_names(self) -> tuple[str, ...]:
        """The fleet's engine names; the default fleet's when the data
        keeps no fleet, as for a loaded store or a parallel run (they do
        not depend on the fleet's seed)."""
        return self.fleet.names if self.fleet is not None else ENGINE_NAMES

    @cached_property
    def frame(self) -> SeriesFrame:
        """The store grouped per sample, with planes: the one decode pass
        that every dataset-level analysis (§5-§8) reads."""
        return self.store.series_frame()

    def series(self) -> list[AVRankSeries]:
        """AV-Rank series for every sample (cached), from :attr:`frame`;
        bit-identical to ``collect_series(store.iter_sample_reports())``.
        For per-sample callers: no analysis pipeline reads it."""
        if self._series is None:
            self._series = self.frame.to_series()
        return self._series

    @cached_property
    def dataset_s(self) -> SeriesFrame:
        """The paper's dataset *S* (§5.3.1) — fresh, top-20 types,
        multi-report and dynamic — as a sub-frame of :attr:`frame`."""
        return self.frame.select(self.frame.dataset_s_mask(TOP20_FILE_TYPES))


def run_experiment(
    config: ScenarioConfig,
    fleet: EngineFleet | None = None,
    workers: int | str = 1,
    metrics=None,
) -> ExperimentData:
    """Generate, scan and store one scenario; returns the loaded data.

    ``fleet`` overrides the default engine fleet — used by ablations
    (e.g. a fleet with copy rules stripped); with ``workers > 1`` the
    override is shipped to every worker, so ablations parallelise too.

    ``workers`` runs the scenario as that many sharded processes
    (``"auto"`` = CPU count, clamped by ``REPRO_MAX_WORKERS``).  The
    result is bit-identical to the serial run — same reports, same store
    layout, same canonical digest — with two differences:
    ``data.service`` is ``None``, since worker services die with their
    processes, and ``data.fleet`` is the ``fleet`` passed in (``None``
    by default).  ``workers=1`` executes entirely in process, never
    touching :mod:`multiprocessing`.  Workers fork where the platform can
    and spawn otherwise; a range that raises fails the run with
    :class:`~repro.errors.ShardFailedError` chained to the worker's
    exception.

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
                            metrics=metrics)

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
