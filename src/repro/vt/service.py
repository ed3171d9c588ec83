"""The VirusTotal scanning service simulator.

:class:`VirusTotalService` owns the sample registry and the engine fleet,
and produces :class:`~repro.vt.reports.ScanReport` records.  Its three
entry points implement exactly the paper's Table 1 semantics:

==========  ===================  =====================  ================
operation   last_analysis_date   last_submission_date   times_submitted
==========  ===================  =====================  ================
upload      update               update                 increment
rescan      update               unchanged              unchanged
report      unchanged            unchanged              unchanged
==========  ===================  =====================  ================

Every *analysis* (upload or rescan) fans the sample out to all 70 engines:
each engine either times out (probability ``1 - activity``, reported as
*undetected*) or answers with its current verdict from the sample's
:class:`~repro.vt.behavior.DetectionPlan`.  The ``positives`` count over
responding engines is the paper's AV-Rank.

Every analysis runs through one array kernel over a group of samples'
scans (:meth:`VirusTotalService._scan`): plans and version schedules are
compiled into tables once, and each sample's random stream is drawn in
one ``getrandbits`` call.  :meth:`~VirusTotalService.scan_batch` hands
whole scan schedules to it and returns arrays (the experiment runner's
path); :meth:`~VirusTotalService.upload` and
:meth:`~VirusTotalService.rescan` call it with one scan and wrap the row
in a :class:`~repro.vt.reports.ScanReport`.  A one-scan call takes a
plain-vector branch and keeps the plan, with its compiled table, on the
sample for its next scan; at that size the group path's bookkeeping
would cost more than the scan.  A batch keeps no plan: a later scan
rebuilds it and fast-forwards its stream by ``Sample.scan_draws``.

Listeners (e.g. the premium feed) receive every report that upload and
rescan generate; the batch entry refuses to run while any is attached.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from repro.errors import ConfigError, NotFoundError
from repro.obs.registry import NULL_REGISTRY
from repro.vt.behavior import BehaviorContext, BehaviorParams, PlanTable, build_plan
from repro.vt.clock import MINUTES_PER_DAY
from repro.vt.engines import EngineFleet, default_fleet
from repro.vt.reports import ScanReport
from repro.vt.samples import Sample, validate_sha256

ReportListener = Callable[[ScanReport], None]

_WORD_SHIFTS = np.array([5, 6], np.uint32)
_WORD_SCALE = np.array([2.0 ** -27, 2.0 ** -53])


def random_doubles(raw: bytes) -> np.ndarray:
    """The ``random()`` values a ``getrandbits`` draw stands for.

    ``random()`` consumes two 32-bit words ``w0, w1`` and returns
    ``((w0 >> 5) * 2**26 + (w1 >> 6)) / 2**53``.  ``getrandbits(64 * n)``
    generates the same ``2 * n`` words, in the same order, from least to
    most significant, so ``raw`` (its ``to_bytes(8 * n, "little")``)
    read as ``<u4`` holds them in generation order: the doubles and the
    generator's final state equal ``n`` calls to ``random()``.  Every
    step below is exact in float64.
    """
    words = np.frombuffer(raw, "<u4").reshape(-1, 2)
    return (words >> _WORD_SHIFTS).dot(_WORD_SCALE)

#: Fixed bucket edges for the per-report positives (AV-Rank) histogram.
POSITIVES_EDGES: tuple[int, ...] = (0, 1, 2, 3, 5, 8, 13, 21, 34, 55, 70)

#: Fixed bucket edges (simulator minutes) for the interval between
#: consecutive analyses of one sample — the paper's rescan-latency axis.
RESCAN_INTERVAL_EDGES: tuple[int, ...] = (
    60, 6 * 60, MINUTES_PER_DAY, 3 * MINUTES_PER_DAY, 7 * MINUTES_PER_DAY,
    14 * MINUTES_PER_DAY, 30 * MINUTES_PER_DAY, 90 * MINUTES_PER_DAY,
    180 * MINUTES_PER_DAY,
)


@dataclass
class ScanBatch:
    """The arrays of one kernel pass over a group of samples' scans.

    Per-scan arrays have one row per scan, in the caller's order.  The
    per-sample lists include the Table 1 submission fields, which are
    constant across a sample's scans because an upload can only be its
    first scan of the group.
    """

    scan_time: np.ndarray   #: int64 [scans]
    labels: np.ndarray      #: uint8 [scans, engines] — 0/1/2 (timeout)
    positives: np.ndarray   #: int64 [scans] — the AV-Rank
    total: np.ndarray       #: int64 [scans] — responding engines
    ends: list[int]         #: [samples] — exclusive end row
    last_submission: list[int]  #: [samples]
    times_submitted: list[int]  #: [samples]


class VirusTotalService:
    """An in-process stand-in for the VirusTotal backend."""

    #: How often a copying follower's availability tracks its leader's.
    COPIED_AVAILABILITY_FIDELITY = 0.9

    def __init__(
        self,
        fleet: EngineFleet | None = None,
        params: BehaviorParams | None = None,
        seed: int = 0,
        metrics=None,
    ) -> None:
        self.fleet = fleet if fleet is not None else default_fleet(seed)
        self.params = params if params is not None else BehaviorParams()
        self.seed = seed
        self.ctx = BehaviorContext(self.fleet, self.params, seed)
        self._samples: dict[str, Sample] = {}
        #: Each sample's last analysis: the report of an upload/rescan, or
        #: (batch, sample position) after scan_batch.
        self._last_report: dict[str, ScanReport | tuple[ScanBatch, int]] = {}
        self._listeners: list[ReportListener] = []
        self.reports_generated = 0
        # Observability: pre-bound handles (no-ops on the null registry).
        # Everything recorded here is per-sample work, so a sharded run's
        # merged registries reproduce a serial run's exactly.
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        self._m_register = self.metrics.counter("vt.register.total")
        self._m_upload = self.metrics.counter("vt.scan.total", kind="upload")
        self._m_rescan = self.metrics.counter("vt.scan.total", kind="rescan")
        self._m_reports = self.metrics.counter("vt.report.total")
        self._m_positives = self.metrics.histogram(
            "vt.report.positives", edges=POSITIVES_EDGES)
        self._m_interval = self.metrics.histogram(
            "vt.rescan.interval_minutes", edges=RESCAN_INTERVAL_EDGES)

    # ------------------------------------------------------------------
    # Registry
    # ------------------------------------------------------------------

    def register(self, sample: Sample) -> None:
        """Make a sample known to the service without submitting it.

        A pre-window sample (negative ``first_seen``) that has never been
        submitted gets its historical submission backfilled here: such a
        file already exists on the service, so its Table 1 fields must
        read as "submitted once, at first_seen".  This used to be every
        runner's job (mutating generator spec objects in place); doing it
        at registration time keeps the adjustment in one place and leaves
        the caller's objects alone when clones are registered.
        """
        if (not sample.fresh and sample.times_submitted == 0
                and sample.last_submission_date is None):
            sample.times_submitted = 1
            sample.last_submission_date = sample.first_seen
        if sample.sha256 not in self._samples:
            self._m_register.inc()
        self._samples[sample.sha256] = sample

    def known(self, sha256: str) -> bool:
        """Whether the service has ever seen this hash."""
        return validate_sha256(sha256) in self._samples

    def get_sample(self, sha256: str) -> Sample:
        """Look up a registered sample, raising NotFoundError otherwise."""
        key = validate_sha256(sha256)
        try:
            return self._samples[key]
        except KeyError:
            raise NotFoundError(key) from None

    def samples(self) -> Iterable[Sample]:
        """All registered samples."""
        return self._samples.values()

    # ------------------------------------------------------------------
    # Listeners (feed integration)
    # ------------------------------------------------------------------

    def add_listener(self, listener: ReportListener) -> None:
        """Subscribe a callable to every newly generated report."""
        self._listeners.append(listener)

    def remove_listener(self, listener: ReportListener) -> None:
        self._listeners.remove(listener)

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------

    def scan_batch(
        self,
        samples: Sequence[Sample],
        counts: Sequence[int],
        times: Sequence[int],
        uploads: Sequence[bool],
    ) -> ScanBatch:
        """Analyse many registered samples' scan schedules in one pass.

        ``samples[i]`` is scanned ``counts[i]`` times, at the next
        ``counts[i]`` entries of the flat ``times`` (each sample's in
        increasing order); its first scan is an upload when
        ``uploads[i]`` is true, every other scan a rescan.  The result
        equals that sequence of :meth:`upload`/:meth:`rescan` calls, in
        the arrays of a :class:`ScanBatch` instead of report objects.

        No report object is built, so attached listeners would miss
        every scan: the call raises :class:`~repro.errors.ConfigError`
        instead.  Inconsistent arguments (mismatched lengths, a count
        below 1, ``sum(counts) != len(times)``) raise it too, before any
        sample's stream or Table 1 fields move.
        """
        if self._listeners:
            raise ConfigError(
                f"scan_batch delivers no reports, but {len(self._listeners)} "
                f"listener(s) are attached; scan through upload()/rescan()")
        return self._scan(samples, counts, times, uploads)

    def _scan(
        self,
        samples: Sequence[Sample],
        counts: Sequence[int],
        times: Sequence[int],
        uploads: Sequence[bool],
    ) -> ScanBatch:
        """The scan kernel behind every analysis (see :meth:`scan_batch`).

        Each sample's stream is consumed exactly as ``counts[i]``
        sequential scans would: per scan one ``random()`` per engine for
        availability, then one per fired copy rule (in follower order)
        for the follower tracking its leader's availability.
        """
        # Checked up front: the loop below moves each sample's stream
        # and Table 1 fields, which a failed call must leave alone.
        if not samples or not len(samples) == len(counts) == len(uploads):
            raise ConfigError(
                f"{len(samples)} samples, {len(counts)} scan counts and "
                f"{len(uploads)} upload flags")
        if min(counts) < 1:
            raise ConfigError(f"scan counts must be >= 1, got {min(counts)}")
        if sum(counts) != len(times):
            raise ConfigError(
                f"{sum(counts)} scans counted but {len(times)} times given")
        fleet = self.fleet
        width = len(fleet)
        # A one-scan call (upload/rescan) attaches the plan it builds and
        # keeps the plan's compiled table: snapshot campaigns and the
        # collector come back to a sample scan by scan, and compiling
        # costs about a third of a scan.  A batch covers whole schedules
        # and keeps neither: plans, their streams and their tables would
        # otherwise stay in memory for the service's life.  A plan built
        # for a sample whose earlier plan was let go skips the
        # ``scan_draws`` doubles already drawn, so the stream resumes
        # exactly where the last scan left it.
        keep = len(times) == 1
        tables: list[PlanTable] = []
        raws: list[bytes] = []
        ends: list[int] = []
        last_submission: list[int] = []
        times_submitted: list[int] = []
        prior_analysis: list[int | None] = []
        pos = 0
        for sample, k, upload in zip(samples, counts, uploads, strict=True):
            plan = sample.plan
            if plan is None:
                plan = build_plan(sample, self.ctx)
                if sample.scan_draws:
                    plan.scan_rng.getrandbits(64 * sample.scan_draws)
                if keep:
                    sample.plan = plan
            table = plan.compile(width, keep=keep)
            tables.append(table)
            draws = k * (width + len(table.followers))
            raws.append(plan.scan_rng.getrandbits(64 * draws)
                        .to_bytes(8 * draws, "little"))
            sample.scan_draws += draws
            # Table 1: an upload can only be a sample's first scan here,
            # so the submission fields are constant across its scans.
            if upload:
                sample.record_submission(times[pos])
            last_submission.append(
                sample.first_seen if sample.last_submission_date is None
                else sample.last_submission_date)
            times_submitted.append(max(sample.times_submitted, 1))
            prior_analysis.append(sample.last_analysis_date)
            pos += k
            ends.append(pos)
            sample.record_analysis(times[pos - 1])

        when = np.asarray(times, np.int64)
        n = len(when)
        doubles = random_doubles(b"".join(raws))
        if n == 1:
            # One scan, the upload/rescan shape: plain vectors.  Through
            # the group path's padding and keyed search a one-scan call
            # costs 1.4-2x the per-engine loop this kernel replaced.
            (table,) = tables
            timeout = doubles[:width] >= fleet.activity
            if len(table.followers):
                hit = doubles[width:] < self.COPIED_AVAILABILITY_FIDELITY
                timeout[table.followers[hit]] = timeout[table.leaders[hit]]
            row = bisect_right(table.times, times[0])
            labels = table.rows[row:row + 1].copy()
            timeout = timeout.reshape(1, width)
        else:
            timeout, labels = self._group_verdicts(tables, counts, when,
                                                   doubles)
        labels[timeout] = 2  # undetected
        batch = ScanBatch(
            scan_time=when,
            labels=labels,
            positives=np.add.reduce(labels == 1, axis=1),
            total=width - np.add.reduce(timeout, axis=1),
            ends=ends,
            last_submission=last_submission,
            times_submitted=times_submitted,
        )
        for s, sample in enumerate(samples):
            self._last_report[sample.sha256] = (batch, s)

        n_uploads = sum(uploads)
        self.reports_generated += n
        self._m_upload.inc(n_uploads)
        self._m_rescan.inc(n - n_uploads)
        self._m_reports.inc(n)
        if self.metrics.enabled:
            for positives in batch.positives.tolist():
                self._m_positives.observe(positives)
            prior = np.empty(n, np.int64)
            prior[1:] = when[:-1]
            known = np.ones(n, bool)
            starts = [end - k for end, k in zip(ends, counts, strict=True)]
            prior[starts] = [p or 0 for p in prior_analysis]
            known[starts] = [p is not None for p in prior_analysis]
            for interval in (when - prior)[known].tolist():
                self._m_interval.observe(interval)
        return batch

    def _group_verdicts(
        self,
        tables: list[PlanTable],
        counts: Sequence[int],
        when: np.ndarray,
        doubles: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Timeouts and latent verdicts of a group's scans.

        Samples fire different numbers of copy rules, so scans have
        ragged draw rows; they are padded with 1.0 (never below a
        probability) to the widest.  Transition times are keyed by
        sample so one ``searchsorted`` finds every scan's table row.
        """
        width = len(self.fleet)
        m = len(tables)
        sid = np.repeat(np.arange(m), counts)
        n_fol = np.array([len(t.followers) for t in tables], np.int64)
        f_max = max(n_fol.tolist(), default=0)
        change_times: list[int] = []
        for table in tables:
            change_times += table.times
        draws = np.full((len(when), width + f_max), 1.0)
        draws[np.arange(width + f_max) < width + n_fol[sid, None]] = doubles
        timeout = draws[:, :width] >= self.fleet.activity
        if f_max:
            fired = np.arange(f_max) < n_fol[:, None]
            fol = np.zeros((m, f_max), np.int64)
            lead = np.zeros((m, f_max), np.int64)
            fol[fired] = np.concatenate([t.followers for t in tables])
            lead[fired] = np.concatenate([t.leaders for t in tables])
            scan, slot = np.nonzero(
                draws[:, width:] < self.COPIED_AVAILABILITY_FIDELITY)
            owner = sid[scan]
            timeout[scan, fol[owner, slot]] = timeout[scan, lead[owner, slot]]

        rows = np.concatenate([t.rows for t in tables])
        row = sid
        if change_times:
            ct = np.array(change_times, np.int64)
            lo = min(ct.min(), when.min())
            span = max(ct.max(), when.max()) - lo + 1
            keys = (np.repeat(np.arange(m) * span,
                              [len(t.times) for t in tables]) + (ct - lo))
            row = sid + keys.searchsorted(sid * span + (when - lo),
                                          side="right")
        return timeout, rows[row]

    def _report(self, sample: Sample, batch: ScanBatch, s: int) -> ScanReport:
        """Sample ``s``'s last scan in ``batch`` as a report object."""
        row = batch.ends[s] - 1
        when = int(batch.scan_time[row])
        return ScanReport(
            sha256=sample.sha256,
            file_type=sample.file_type,
            scan_time=when,
            positives=int(batch.positives[row]),
            total=int(batch.total[row]),
            labels=batch.labels[row].tobytes(),
            versions=tuple(self.fleet.versions_at(when).tolist()),
            first_submission_date=sample.first_seen,
            last_submission_date=batch.last_submission[s],
            last_analysis_date=when,
            times_submitted=batch.times_submitted[s],
        )

    def _analyze(self, sample: Sample, timestamp: int,
                 upload: bool) -> ScanReport:
        """Run all engines over a sample once and emit the report."""
        report = self._report(
            sample, self._scan([sample], [1], [timestamp], [upload]), 0)
        # The report is shared with the listeners and is smaller than the
        # one-scan batch, which it replaces.
        self._last_report[sample.sha256] = report
        self._emit(report)
        return report

    def _emit(self, report: ScanReport) -> None:
        """Fan a freshly generated report out to every listener.

        The delivery interposition point: fault layers that model lossy
        or flaky fan-out (see :mod:`repro.faults`) wrap the consumption
        side of the feed, but a subclass can override this to perturb
        delivery for *all* listeners at once.
        """
        for listener in self._listeners:
            listener(report)

    # ------------------------------------------------------------------
    # Table 1 operations
    # ------------------------------------------------------------------

    def upload(self, sample: Sample | str, timestamp: int) -> ScanReport:
        """Submit a file: registers it if new, updates all three Table 1
        fields, and runs an analysis."""
        if isinstance(sample, str):
            sample = self.get_sample(sample)
        elif sample.sha256 not in self._samples:
            self.register(sample)
        return self._analyze(sample, timestamp, upload=True)

    def rescan(self, sha256: str, timestamp: int) -> ScanReport:
        """Re-analyse an existing file: only last_analysis_date moves."""
        return self._analyze(self.get_sample(sha256), timestamp, upload=False)

    def report(self, sha256: str) -> ScanReport:
        """Return the most recent report without generating a new one."""
        sample = self.get_sample(sha256)
        try:
            last = self._last_report[sample.sha256]
        except KeyError:
            raise NotFoundError(sample.sha256) from None
        if isinstance(last, ScanReport):
            return last
        return self._report(sample, *last)
