"""Differential tests: the simulator's scan kernel against per-report oracles.

``VirusTotalService.scan_batch`` answers every analysis — ``upload``/
``rescan`` one scan at a time, ``scan_by_month`` and direct calls over
whole schedules of many samples — from compiled plan and version tables
and one ``getrandbits`` draw per sample.  The oracles below are the
per-engine loops it replaced, kept here unchanged: ``label_at_oracle``
is ``DetectionPlan.label_at``'s old transition walk and ``oracle_scan``
is the old ``_analyze`` body (one ``random()`` per engine, one per fired
copy rule, ``label_at`` and ``version_at`` per engine).  Random plans
and schedules go through every entry shape, and each scan's labels,
versions, AV-Rank, responder count and Table 1 fields, the metrics, and
every sample's generator state afterwards must match the oracles
exactly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigError, NotFoundError
from repro.obs import MetricsRegistry
from repro.store.columnar import month_indices
from repro.vt.behavior import DetectionPlan, PlanTable, build_plan
from repro.vt.engines import CopyRule, Engine, EngineFleet, default_fleet
from repro.vt.samples import Sample, sha256_of
from repro.vt.service import VirusTotalService, random_doubles

_TIMEOUT = 2


# ---------------------------------------------------------------------------
# Oracles


def label_at_oracle(plan: DetectionPlan, engine_idx: int, timestamp: int) -> int:
    """Latent verdict (0/1) of an engine at ``timestamp``."""
    label = 0
    for when, verdict in plan.transitions.get(engine_idx, ()):
        if timestamp >= when:
            label = verdict
        else:
            break
    return label


@dataclass
class OracleScan:
    labels: bytes
    versions: tuple[int, ...]
    positives: int
    total: int
    last_submission: int
    times_submitted: int
    interval: int | None


def oracle_scan(fleet: EngineFleet, sample: Sample, timestamp: int,
                upload: bool) -> OracleScan:
    """One analysis, engine by engine, with Table 1 side effects."""
    if upload:
        sample.record_submission(timestamp)
    plan = sample.plan
    rng = plan.scan_rng
    n = len(fleet)
    labels = bytearray(n)
    engines = fleet.engines
    active = [rng.random() < engines[idx].activity for idx in range(n)]
    for follower in sorted(plan.copied):
        if rng.random() < VirusTotalService.COPIED_AVAILABILITY_FIDELITY:
            active[follower] = active[plan.copied[follower]]
    positives = 0
    total = 0
    for idx in range(n):
        if not active[idx]:
            labels[idx] = _TIMEOUT
            continue
        total += 1
        if label_at_oracle(plan, idx, timestamp):
            labels[idx] = 1
            positives += 1
    versions = tuple(fleet.version_at(i, timestamp) for i in range(n))
    previous = sample.last_analysis_date
    sample.record_analysis(timestamp)
    return OracleScan(
        labels=bytes(labels),
        versions=versions,
        positives=positives,
        total=total,
        last_submission=(sample.last_submission_date
                         if sample.last_submission_date is not None
                         else sample.first_seen),
        times_submitted=max(sample.times_submitted, 1),
        interval=None if previous is None else timestamp - previous,
    )


# ---------------------------------------------------------------------------
# Fleets and random cases


def _small_fleet() -> EngineFleet:
    """Five engines with frequent timeouts and short update cycles, so
    leaders time out under their followers and versions bump often."""
    return EngineFleet([
        Engine("L0", activity=0.5, update_interval_days=0.5,
               version_interval_days=1.0),
        Engine("L1", activity=0.7, update_interval_days=1.0,
               version_interval_days=1.0),
        Engine("F2", activity=0.8, update_interval_days=0.5,
               version_interval_days=2.0,
               copies=CopyRule("L0", fidelity=0.9)),
        Engine("F3", activity=0.4, update_interval_days=2.0,
               version_interval_days=2.0,
               copies=CopyRule("L1", fidelity=0.5)),
        Engine("I4", activity=1.0, update_interval_days=3.0),
    ], seed=5)


FLEETS = {
    "default": default_fleet(11),
    "no-copy": default_fleet(11, copy_rules=False),
    "small": _small_fleet(),
}


def _followers(fleet: EngineFleet) -> dict[int, int]:
    return {idx: fleet.index[engine.copies.leader]
            for idx, engine in enumerate(fleet.engines) if engine.copies}


def _bump_times(fleet: EngineFleet) -> list[int]:
    times = sorted({t for name in fleet.names
                    for t in fleet.version_schedule(name)})
    return [times[0] - 1, times[0], *times[1:40:3]]


@dataclass
class SampleCase:
    transitions: dict[int, tuple[tuple[int, int], ...]]
    copied: dict[int, int]
    seed: int
    times: list[int]
    upload: bool
    submitted: int
    last_submission: int | None
    last_analysis: int | None


@st.composite
def _sample_case(draw, fleet: EngineFleet) -> SampleCase:
    n = len(fleet)
    bumps = _bump_times(fleet)
    # A small pool of change times makes equal-time transitions common:
    # flaps and hazards (0 and 1 at one minute) across and within engines.
    pool = st.sampled_from([-5_000, 0, 1_000, 1_000, 2_500, 40_000,
                            bumps[3], bumps[7]])
    engines = draw(st.lists(st.integers(0, n - 1), max_size=6, unique=True))
    transitions = {}
    for idx in engines:
        entries = draw(st.lists(st.tuples(pool, st.integers(0, 1)),
                                min_size=1, max_size=5))
        transitions[idx] = tuple(sorted(entries))
    followers = _followers(fleet)
    fired = draw(st.lists(st.sampled_from(sorted(followers)), unique=True)
                 if followers else st.just([]))
    change_times = sorted({w for trans in transitions.values()
                           for w, _ in trans})
    probe = st.sampled_from(change_times + bumps) | st.integers(-10_000,
                                                                 700_000)
    times = sorted(draw(st.sets(probe, min_size=1, max_size=6)))
    return SampleCase(
        transitions=transitions,
        copied={f: followers[f] for f in fired},
        seed=draw(st.integers(0, 2**32 - 1)),
        times=times,
        upload=draw(st.booleans()),
        submitted=draw(st.integers(0, 2)),
        last_submission=draw(st.none() | st.just(times[0] - 7)),
        last_analysis=draw(st.none() | st.just(times[0] - 90)),
    )


@st.composite
def _cases(draw) -> tuple[str, list[SampleCase]]:
    name = draw(st.sampled_from(sorted(FLEETS)))
    samples = draw(st.lists(_sample_case(FLEETS[name]), min_size=1,
                            max_size=5))
    return name, samples


def _sample(i: int, case: SampleCase) -> Sample:
    # Fresh (first_seen >= 0), so registering it backfills nothing.
    sample = Sample(sha256=sha256_of(f"kernel:{i}"), file_type="Win32 EXE",
                    malicious=True, first_seen=3_000)
    sample.times_submitted = case.submitted
    sample.last_submission_date = case.last_submission
    sample.last_analysis_date = case.last_analysis
    sample.plan = DetectionPlan(
        transitions=dict(case.transitions),
        scan_rng=random.Random(case.seed),
        copied=dict(case.copied),
    )
    return sample


def _service(fleet: EngineFleet, cases: list[SampleCase]):
    registry = MetricsRegistry()
    service = VirusTotalService(fleet=fleet, seed=3, metrics=registry)
    samples = [_sample(i, case) for i, case in enumerate(cases)]
    for sample in samples:
        service.register(sample)
    return service, samples, registry


def _oracle(fleet: EngineFleet, cases: list[SampleCase]):
    """Per-sample oracle scans plus the expected metric observations."""
    samples = [_sample(i, case) for i, case in enumerate(cases)]
    scans = [[oracle_scan(fleet, sample, when, case.upload and j == 0)
              for j, when in enumerate(case.times)]
             for sample, case in zip(samples, cases, strict=True)]
    expected = MetricsRegistry()
    positives = expected.histogram("vt.report.positives",
                                   edges=(0, 1, 2, 3, 5, 8, 13, 21, 34, 55, 70))
    intervals = expected.histogram(
        "vt.rescan.interval_minutes",
        edges=(60, 360, 1440, 4320, 10080, 20160, 43200, 129600, 259200))
    for per_sample in scans:
        for scan in per_sample:
            positives.observe(scan.positives)
            if scan.interval is not None:
                intervals.observe(scan.interval)
    return samples, scans, expected


def _histograms(registry: MetricsRegistry) -> dict:
    snap = registry.snapshot()
    return {key: snap.histograms[key] for key in sorted(snap.histograms)}


def _check_state(samples, oracle_samples, service, oracle_scans):
    for sample, expected, scans in zip(samples, oracle_samples, oracle_scans,
                                       strict=True):
        assert (sample.plan.scan_rng.getstate()
                == expected.plan.scan_rng.getstate())
        assert sample.times_submitted == expected.times_submitted
        assert sample.last_submission_date == expected.last_submission_date
        assert sample.last_analysis_date == expected.last_analysis_date
        last = scans[-1]
        report = service.report(sample.sha256, sample.last_analysis_date)
        assert report.labels == last.labels
        assert report.versions == last.versions
        assert (report.positives, report.total) == (last.positives, last.total)
        assert report.last_submission_date == last.last_submission
        assert report.times_submitted == last.times_submitted
        assert report.scan_time == report.last_analysis_date
        assert report.first_submission_date == sample.first_seen


def _check_batch(batch, fleet, cases, oracle_scans):
    row = 0
    for s, (case, scans) in enumerate(zip(cases, oracle_scans, strict=True)):
        for when, scan in zip(case.times, scans, strict=True):
            assert batch.scan_time[row] == when
            assert batch.labels[row].tobytes() == scan.labels
            assert tuple(fleet.versions_at(when).tolist()) == scan.versions
            assert batch.positives[row] == scan.positives
            assert batch.total[row] == scan.total
            assert batch.last_submission[s] == scan.last_submission
            assert batch.times_submitted[s] == scan.times_submitted
            row += 1
    assert batch.ends[-1] == row


# ---------------------------------------------------------------------------
# The differential


class TestKernelMatchesOracle:
    @settings(max_examples=60, deadline=None)
    @given(case=_cases())
    def test_group_pass(self, case):
        """All samples in one ``scan_batch`` pass (the runner's shape)."""
        name, cases = case
        fleet = FLEETS[name]
        service, samples, registry = _service(fleet, cases)
        oracle_samples, scans, expected = _oracle(fleet, cases)
        batch = service.scan_batch(
            samples, [len(c.times) for c in cases],
            [t for c in cases for t in c.times], [c.upload for c in cases])
        _check_batch(batch, fleet, cases, scans)
        _check_state(samples, oracle_samples, service, scans)
        assert _histograms(registry) == _histograms(expected)
        n = sum(len(c.times) for c in cases)
        uploads = sum(c.upload for c in cases)
        assert registry.counter("vt.scan.total", kind="upload").value == uploads
        assert registry.counter("vt.scan.total", kind="rescan").value == n - uploads
        assert registry.counter("vt.report.total").value == n
        assert service.reports_generated == n

    @settings(max_examples=60, deadline=None)
    @given(case=_cases())
    def test_one_sample_per_pass(self, case):
        """Each sample's whole schedule alone (k >= 1 scans, one sample)."""
        name, cases = case
        fleet = FLEETS[name]
        service, samples, registry = _service(fleet, cases)
        oracle_samples, scans, expected = _oracle(fleet, cases)
        for sample, c, sample_scans in zip(samples, cases, scans, strict=True):
            batch = service.scan_batch([sample], [len(c.times)], c.times,
                                       [c.upload])
            _check_batch(batch, fleet, [c], [sample_scans])
        _check_state(samples, oracle_samples, service, scans)
        assert _histograms(registry) == _histograms(expected)

    @settings(max_examples=60, deadline=None)
    @given(case=_cases())
    def test_scan_by_month(self, case):
        """Whole schedules through ``scan_by_month``: every scan once, in
        ``(scan_time, sample, ordinal)`` order, one batch per month."""
        name, cases = case
        fleet = FLEETS[name]
        service, samples, registry = _service(fleet, cases)
        oracle_samples, scans, expected = _oracle(fleet, cases)
        months = service.scan_by_month(
            samples, [len(c.times) for c in cases],
            [t for c in cases for t in c.times], [c.upload for c in cases])
        got = [(month, batch.report(slot), int(owner[slot]))
               for month, batch, owner in months
               for slot in range(len(batch))]
        events = sorted((when, s, j) for s, c in enumerate(cases)
                        for j, when in enumerate(c.times))
        assert [owner for _, _, owner in got] == [s for _, s, _ in events]
        assert [month for month, _, _ in got] == month_indices(
            np.array([when for when, _, _ in events])).tolist()
        for (_, report, _), (when, s, j) in zip(got, events, strict=True):
            scan = scans[s][j]
            assert report.sha256 == samples[s].sha256
            assert report.scan_time == report.last_analysis_date == when
            assert report.labels == scan.labels
            assert report.versions == scan.versions
            assert (report.positives, report.total) == (scan.positives,
                                                        scan.total)
            assert report.last_submission_date == scan.last_submission
            assert report.times_submitted == scan.times_submitted
        _check_state(samples, oracle_samples, service, scans)
        assert _histograms(registry) == _histograms(expected)

    @settings(max_examples=60, deadline=None)
    @given(case=_cases())
    def test_upload_and_rescan(self, case):
        """One scan per call, through the Table 1 entry points."""
        name, cases = case
        fleet = FLEETS[name]
        service, samples, registry = _service(fleet, cases)
        oracle_samples, scans, expected = _oracle(fleet, cases)
        for sample, c, sample_scans in zip(samples, cases, scans, strict=True):
            for j, (when, scan) in enumerate(
                    zip(c.times, sample_scans, strict=True)):
                report = (service.upload(sample, when) if c.upload and j == 0
                          else service.rescan(sample.sha256, when))
                assert report.labels == scan.labels
                assert report.versions == scan.versions
                assert report.positives == scan.positives
                assert report.total == scan.total
                assert report.last_submission_date == scan.last_submission
                assert report.times_submitted == scan.times_submitted
                assert report.last_analysis_date == when
        _check_state(samples, oracle_samples, service, scans)
        assert _histograms(registry) == _histograms(expected)


def sample_labels(scans, row: int, engines) -> set[int]:
    return {scans[0][row].labels[idx] for idx in engines}


class TestEdges:
    def test_follower_copies_a_leader_timeout(self):
        """The stream must contain scans where the copy rule fired, the
        follower's own draw said "responding" and the leader timed out —
        and the kernel must report the follower as timed out there."""
        fleet = FLEETS["small"]
        case = SampleCase(transitions={0: ((0, 1),), 2: ((0, 1),)},
                          copied={2: 0, 3: 1}, seed=7,
                          times=list(range(1, 401)), upload=True,
                          submitted=0, last_submission=None,
                          last_analysis=None)
        service, (sample,), _ = _service(fleet, [case])
        batch = service.scan_batch([sample], [400], case.times, [True])

        rng = random.Random(7)
        copied_timeouts = 0
        for row in range(400):
            own = [rng.random() < e.activity for e in fleet.engines]
            hits = [rng.random() < 0.9 for _ in (2, 3)]
            if hits[0] and own[2] and not own[0]:
                copied_timeouts += 1
                assert batch.labels[row, 2] == _TIMEOUT
        assert copied_timeouts > 10

    def test_scans_at_transitions_bumps_and_before_the_first_bump(self):
        fleet = FLEETS["default"]
        first_bump = min(fleet.version_schedule(name)[0]
                         for name in fleet.names)
        case = SampleCase(transitions={5: ((100, 0), (100, 1), (200, 0)),
                                       9: ((100, 0), (100, 1))},
                          copied={}, seed=1,
                          times=[first_bump - 1, first_bump, 100, 200],
                          upload=False, submitted=1, last_submission=None,
                          last_analysis=None)
        service, samples, _ = _service(fleet, [case])
        oracle_samples, scans, _ = _oracle(fleet, [case])
        batch = service.scan_batch(samples, [4], case.times, [False])
        _check_batch(batch, fleet, [case], scans)
        assert scans[0][0].versions == (0,) * len(fleet)
        assert scans[0][1].versions != scans[0][0].versions
        # (100, 0) and (100, 1) at one minute: the sorted-last verdict wins.
        assert sample_labels(scans, 2, (5, 9)) <= {1, _TIMEOUT}
        assert sample_labels(scans, 3, (5,)) <= {0, _TIMEOUT}

    @pytest.mark.parametrize("counts, times, uploads", [
        ([1, 0], [10], [True, True]),          # an empty schedule
        ([1, 1], [10], [True, True]),          # too few times
        ([1, 1], [10, 20, 30], [True, True]),  # too many times
        ([2], [10, 20], [True, True]),         # fewer counts than samples
        ([1, 1], [10, 20], [True]),            # fewer upload flags
    ])
    def test_batch_rejects_inconsistent_schedules(self, counts, times,
                                                  uploads):
        """A bad call raises before any sample's stream or Table 1
        fields move — the first sample's included."""
        fleet = FLEETS["small"]
        case = SampleCase({}, {}, 1, [10], True, 0, None, None)
        service, samples, registry = _service(fleet, [case, case])
        before = [(s.plan.scan_rng.getstate(), s.scan_draws,
                   s.times_submitted, s.last_submission_date,
                   s.last_analysis_date)
                  for s in samples]
        with pytest.raises(ConfigError):
            service.scan_batch(samples, counts, times, uploads)
        assert [(s.plan.scan_rng.getstate(), s.scan_draws,
                 s.times_submitted, s.last_submission_date,
                 s.last_analysis_date)
                for s in samples] == before
        assert service.reports_generated == 0
        assert registry.counter("vt.report.total").value == 0
        with pytest.raises(NotFoundError):
            service.report(samples[0].sha256, 10)


class TestScanByMonth:
    def test_unscanned_samples_are_skipped(self):
        fleet = FLEETS["small"]
        case = SampleCase({}, {}, 1, [10], True, 0, None, None)
        service, samples, _ = _service(fleet, [case, case, case])
        months = list(service.scan_by_month(samples, [2, 0, 1], [40, 60, 50],
                                            [True, True, False]))
        assert len(months) == 1
        _, batch, owner = months[0]
        assert owner.tolist() == [0, 2, 0]
        assert batch.scan_time.tolist() == [40, 50, 60]
        assert service.reports_generated == 3
        assert samples[1].last_analysis_date is None
        with pytest.raises(NotFoundError):
            service.report(samples[1].sha256, 100)

    def test_nothing_to_scan(self):
        fleet = FLEETS["small"]
        case = SampleCase({}, {}, 1, [10], True, 0, None, None)
        service, samples, _ = _service(fleet, [case])
        assert list(service.scan_by_month(samples, [0], [], [True])) == []
        assert list(service.scan_by_month([], [], [], [])) == []
        assert service.reports_generated == 0

    @pytest.mark.parametrize("counts, times, uploads", [
        ([1, -1], [], [True, True]),           # a negative count
        ([1, 1], [10], [True, True]),          # too few times
        ([2], [10, 20], [True, True]),         # fewer counts than samples
        ([1, 1], [10, 20], [True]),            # fewer upload flags
    ])
    def test_rejects_inconsistent_schedules(self, counts, times, uploads):
        fleet = FLEETS["small"]
        case = SampleCase({}, {}, 1, [10], True, 0, None, None)
        service, samples, _ = _service(fleet, [case, case])
        with pytest.raises(ConfigError):
            service.scan_by_month(samples, counts, times, uploads)
        assert service.reports_generated == 0


class TestDroppedPlan:
    """A scan call builds each plan it needs, draws from it and lets it
    go; a later scan rebuilds the plan and skips the ``scan_draws``
    doubles already drawn.  Every scan must equal a twin's whose plan
    stayed attached throughout."""

    def test_rebuilt_plan_resumes_the_stream(self):
        fleet = FLEETS["default"]
        service = VirusTotalService(fleet=fleet, seed=3)
        twin_service = VirusTotalService(fleet=fleet, seed=3)
        sample = Sample(sha256=sha256_of("resume:0"), file_type="Win32 EXE",
                        malicious=True, first_seen=3_000)
        twin = sample.clone()
        service.register(sample)
        twin_service.register(twin)
        twin.plan = build_plan(twin, twin_service.ctx)
        # Fired copy rules add draws per scan, so a count of engines
        # alone would not resume the stream.
        per_scan = len(fleet) + len(twin.plan.copied)
        assert twin.plan.copied

        for schedule, upload in (([3_000, 9_000, 40_000], True),
                                 ([41_000, 70_000], False)):
            batch = service.scan_batch([sample], [len(schedule)], schedule,
                                       [upload])
            expected = twin_service.scan_batch([twin], [len(schedule)],
                                               schedule, [upload])
            assert sample.plan is None
            assert np.array_equal(batch.labels, expected.labels)
            assert np.array_equal(batch.total, expected.total)
            assert (service.report(sample.sha256, schedule[-1])
                    == twin_service.report(twin.sha256, schedule[-1]))
        assert sample.scan_draws == twin.scan_draws == 5 * per_scan

        for when in (90_000, 91_000, 200_000):
            assert (service.rescan(sample.sha256, when)
                    == twin_service.rescan(twin.sha256, when))
            assert sample.plan is None
        assert sample.scan_draws == twin.scan_draws == 8 * per_scan


# ---------------------------------------------------------------------------
# The pieces the kernel rests on


@pytest.mark.parametrize("k", [1, 3, 70, 77, 350])
def test_getrandbits_draws_equal_sequential_random(k):
    """``random_doubles(getrandbits(64 k))`` is ``k`` calls to ``random()``
    — values and generator state — on this interpreter's Mersenne
    Twister (the CPython detail the kernel's stream rests on)."""
    for seed in range(300):
        bulk, sequential = random.Random(seed), random.Random(seed)
        raw = bulk.getrandbits(64 * k).to_bytes(8 * k, "little")
        expected = [sequential.random() for _ in range(k)]
        assert random_doubles(raw).tolist() == expected
        assert bulk.getstate() == sequential.getstate()


@st.composite
def _plans(draw) -> DetectionPlan:
    pool = st.integers(-50, 50)
    transitions = {}
    for idx in draw(st.lists(st.integers(0, 9), unique=True, max_size=6)):
        entries = draw(st.lists(st.tuples(pool, st.integers(0, 1)),
                                min_size=1, max_size=6))
        transitions[idx] = tuple(sorted(entries))
    return DetectionPlan(transitions=transitions,
                         scan_rng=random.Random(0))


@settings(max_examples=200, deadline=None)
@given(plan=_plans())
def test_label_at_matches_transition_walk(plan):
    for idx in range(12):
        for t in range(-52, 53):
            assert plan.label_at(idx, t) == label_at_oracle(plan, idx, t)
    table = PlanTable.compile(plan, 10)
    rows = np.frombuffer(table.rows, np.uint8).reshape(-1, 10)
    assert list(table.times) == sorted(set(table.times))
    assert len(rows) == len(table.times) + 1
    assert not rows[0].any()


@pytest.mark.parametrize("name", sorted(FLEETS))
def test_versions_at_matches_version_at(name):
    fleet = FLEETS[name]
    probes = np.array(sorted(set(_bump_times(fleet)
                                 + [t + 1 for t in _bump_times(fleet)]
                                 + [-10**7, 10**7])))
    table = fleet.versions_at(probes)
    assert table.dtype == np.dtype("<u4")
    for row, t in zip(table, probes.tolist(), strict=True):
        assert row.tolist() == [fleet.version_at(i, t)
                                for i in range(len(fleet))]
