"""Additional property-based tests: store and monitor."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.monitor import StabilityCriteria, StabilityMonitor
from repro.store.reportstore import ReportStore
from repro.vt.clock import WINDOW_MINUTES
from repro.vt.reports import ScanReport, encode_labels

# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------


@st.composite
def report_strategy(draw, sha=None):
    n = draw(st.integers(3, 12))
    labels = draw(st.lists(st.sampled_from([-1, 0, 1]),
                           min_size=n, max_size=n))
    scan_time = draw(st.integers(0, WINDOW_MINUTES - 1))
    sha = sha or draw(
        st.text(alphabet="0123456789abcdef", min_size=64, max_size=64)
    )
    return ScanReport(
        sha256=sha,
        file_type=draw(st.sampled_from(["Win32 EXE", "TXT", "PDF"])),
        scan_time=scan_time,
        positives=sum(1 for v in labels if v == 1),
        total=sum(1 for v in labels if v != -1),
        labels=encode_labels(labels),
        versions=tuple(range(n)),
        first_submission_date=draw(st.integers(-10**6, scan_time)),
        last_submission_date=scan_time,
        last_analysis_date=scan_time,
        times_submitted=draw(st.integers(1, 5)),
    )


# ---------------------------------------------------------------------------
# Store round-trips
# ---------------------------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(st.lists(report_strategy(), min_size=1, max_size=25))
def test_store_preserves_every_report(reports):
    store = ReportStore(block_records=4)
    store.ingest_batch(reports)
    stored = sorted(
        (r.sha256, r.scan_time, r.positives, r.labels)
        for r in store.iter_reports()
    )
    original = sorted(
        (r.sha256, r.scan_time, r.positives, r.labels) for r in reports
    )
    assert stored == original


@settings(max_examples=15, deadline=None)
@given(st.lists(report_strategy(), min_size=1, max_size=15))
def test_store_save_load_round_trip(reports):
    import tempfile
    from pathlib import Path

    store = ReportStore(block_records=3)
    store.ingest_batch(reports)
    store.close()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "roundtrip.store"
        store.save(path)
        loaded = ReportStore.load(path)
    assert loaded.report_count == store.report_count
    assert set(loaded.samples()) == set(store.samples())


# ---------------------------------------------------------------------------
# Stability monitor invariants
# ---------------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 20), min_size=1, max_size=15))
def test_monitor_never_stable_before_min_reports(ranks):
    monitor = StabilityMonitor(
        criteria=StabilityCriteria(fluctuation=20, min_reports=len(ranks) + 1,
                                   min_days=0.0),
    )
    for i, rank in enumerate(ranks):
        report = ScanReport(
            sha256="ab" * 32, file_type="TXT", scan_time=i * 10_000,
            positives=rank, total=20,
            labels=encode_labels([1] * rank + [0] * (20 - rank)),
            versions=tuple(range(20)),
            last_analysis_date=i * 10_000,
        )
        assert monitor.observe(report) is False


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 5), min_size=3, max_size=15))
def test_monitor_constant_series_stabilizes(ranks):
    constant = [ranks[0]] * len(ranks)
    monitor = StabilityMonitor(
        criteria=StabilityCriteria(fluctuation=0, min_reports=2,
                                   min_days=0.0),
    )
    outcomes = []
    for i, rank in enumerate(constant):
        report = ScanReport(
            sha256="cd" * 32, file_type="TXT", scan_time=i * 10_000,
            positives=rank, total=5,
            labels=encode_labels([1] * rank + [0] * (5 - rank)),
            versions=tuple(range(5)),
            last_analysis_date=i * 10_000,
        )
        outcomes.append(monitor.observe(report))
    assert outcomes[-1] is True
    assert monitor.alerts == 0
