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
scans (:meth:`VirusTotalService.scan_batch`): plans and version
schedules are compiled into tables, and each sample's random stream is
drawn in one ``getrandbits`` call.  No plan is kept: a later scan rebuilds it and
fast-forwards its stream by ``Sample.scan_draws``.
:meth:`~VirusTotalService.scan_by_month` is the scan path of every run —
the experiment runner, the collection driver and the snapshot campaign:
it scans whole schedules through :meth:`~VirusTotalService.scan_batch`
and yields the records in event order, one columnar batch per month.
:meth:`~VirusTotalService.upload` and :meth:`~VirusTotalService.rescan`
call the kernel with one scan and wrap the row in a report object; the
service delivers reports to nobody, so a feed receives what its caller
publishes to it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.errors import ConfigError, NotFoundError
from repro.obs.registry import NULL_REGISTRY
from repro.store.columnar import ColumnarBatch, month_indices
from repro.vt.behavior import BehaviorContext, BehaviorParams, PlanTable, build_plan
from repro.vt.clock import MINUTES_PER_DAY
from repro.vt.engines import EngineFleet, default_fleet
from repro.vt.reports import ScanReport
from repro.vt.samples import Sample, validate_sha256

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

#: Scans per kernel pass of :meth:`VirusTotalService.scan_by_month`.
#: Large enough to amortise the per-pass numpy overhead over the paper's
#: 1.5 scans per sample; small enough that a pass's float64 draws stay
#: near a megabyte.
SCAN_CHUNK_REPORTS = 2_000


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
        #: Each sample's last scan call: (batch, sample position).
        self._last_report: dict[str, tuple[ScanBatch, int]] = {}
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

        Inconsistent arguments (mismatched lengths, a count below 1,
        ``sum(counts) != len(times)``) raise
        :class:`~repro.errors.ConfigError` before any sample's stream or
        Table 1 fields move.

        This is the scan kernel behind every analysis.  Each sample's
        stream is consumed exactly as ``counts[i]`` sequential scans
        would: per scan one ``random()`` per engine for availability,
        then one per fired copy rule (in follower order) for the
        follower tracking its leader's availability.
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
        width = len(self.fleet)
        # No plan is kept: plans, their streams and their tables would
        # otherwise stay in memory for the service's life.  A plan built
        # for a sample already scanned skips the ``scan_draws`` doubles
        # drawn before, so the stream resumes exactly where the last scan
        # left it.  A plan a caller attached to the sample is used as is.
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
            table = PlanTable.compile(plan, width)
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
        timeout, labels = self._group_verdicts(
            tables, counts, when, random_doubles(b"".join(raws)))
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

    def scan_by_month(
        self,
        samples: Sequence[Sample],
        counts: Sequence[int],
        times: Sequence[int],
        uploads: Sequence[bool],
    ) -> Iterator[tuple[int, ColumnarBatch, np.ndarray]]:
        """Scan whole schedules, then hand back every scan in event order.

        The arguments are :meth:`scan_batch`'s, except that a count may
        be 0: that sample is not scanned.  The scans all run in this
        call, in passes of about :data:`SCAN_CHUNK_REPORTS` scans.  Each
        sample's scans draw only from its private ``scan_rng``, in scan
        order, so scanning sample by sample yields exactly the rows a
        time-ordered replay of single scans would; only the record order
        needs restoring.  The returned iterator yields ``(month, batch,
        owner)`` per month in ``(scan_time, sample, ordinal)`` order:
        ``batch`` is a :class:`~repro.store.columnar.ColumnarBatch` of
        the month's records and ``owner`` each record's position in
        ``samples``.
        """
        if not len(samples) == len(counts) == len(uploads):
            raise ConfigError(
                f"{len(samples)} samples, {len(counts)} scan counts and "
                f"{len(uploads)} upload flags")
        if min(counts, default=0) < 0:
            raise ConfigError(f"scan counts must be >= 0, got {min(counts)}")
        if sum(counts) != len(times):
            raise ConfigError(
                f"{sum(counts)} scans counted but {len(times)} times given")
        last_submission = np.zeros(len(samples), "<i8")
        times_submitted = np.zeros(len(samples), "<u4")
        parts: list[ScanBatch] = []
        group: list[int] = []
        lo = hi = 0
        for i, k in enumerate(counts):
            if k:
                group.append(i)
            hi += k
            if group and (hi - lo >= SCAN_CHUNK_REPORTS or i == len(counts) - 1):
                part = self.scan_batch([samples[j] for j in group],
                                       [counts[j] for j in group],
                                       times[lo:hi],
                                       [uploads[j] for j in group])
                last_submission[group] = part.last_submission
                times_submitted[group] = part.times_submitted
                parts.append(part)
                group = []
                lo = hi
        if not parts:
            return iter(())
        return _month_batches(self.fleet, samples, counts, parts,
                              last_submission, times_submitted)

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

    def _report(self, sample: Sample, batch: ScanBatch, s: int,
                row: int) -> ScanReport:
        """Scan ``row`` of sample ``s`` in ``batch`` as a report object."""
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
        """Run all engines over a sample once and return the report."""
        return self._report(
            sample, self.scan_batch([sample], [1], [timestamp], [upload]), 0, 0)

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

    def report(self, sha256: str, now: int) -> ScanReport:
        """The latest analysis at or before minute ``now``; runs none.

        The answer comes from the sample's last scan call, which holds
        its whole schedule when a run scanned it through
        :meth:`scan_by_month`, and is its latest analysis when it was
        scanned one call at a time forward in time (upload/rescan).
        Raises :class:`~repro.errors.NotFoundError` for an unknown sample
        and for one with no analysis at or before ``now``.
        """
        sample = self.get_sample(sha256)
        try:
            batch, s = self._last_report[sample.sha256]
        except KeyError:
            raise NotFoundError(sample.sha256) from None
        first = batch.ends[s - 1] if s else 0
        row = first + int(batch.scan_time[first:batch.ends[s]].searchsorted(
            now, side="right")) - 1
        if row < first:
            raise NotFoundError(sample.sha256)
        return self._report(sample, batch, s, row)


def _month_batches(
    fleet: EngineFleet,
    samples: Sequence[Sample],
    counts: Sequence[int],
    parts: list[ScanBatch],
    last_submission: np.ndarray,
    times_submitted: np.ndarray,
) -> Iterator[tuple[int, ColumnarBatch, np.ndarray]]:
    """The scans of ``parts`` as :meth:`VirusTotalService.scan_by_month`
    yields them; the label and version planes are gathered one month at
    a time."""
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
        "last_submission": last_submission[owner],
        "last_analysis": when,
        "times_submitted": times_submitted[owner],
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
