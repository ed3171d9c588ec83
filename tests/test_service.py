"""Unit tests for the VirusTotal service simulator (repro.vt.service)."""

import pytest

from repro.errors import NotFoundError
from repro.vt import clock
from repro.vt.samples import Sample, sha256_of
from repro.vt.service import VirusTotalService


@pytest.fixture()
def service():
    return VirusTotalService(seed=3)


def _sample(token: str = "svc", malicious: bool = True) -> Sample:
    return Sample(
        sha256=sha256_of(token),
        file_type="Win32 EXE",
        malicious=malicious,
        first_seen=clock.minutes(days=5),
    )


class TestRegistry:
    def test_register_and_lookup(self, service):
        s = _sample()
        service.register(s)
        assert service.known(s.sha256)
        assert service.get_sample(s.sha256) is s

    def test_unknown_hash_raises(self, service):
        with pytest.raises(NotFoundError):
            service.get_sample(sha256_of("ghost"))

    def test_samples_iterates_registry(self, service):
        service.register(_sample("a"))
        service.register(_sample("b"))
        assert len(list(service.samples())) == 2


class TestAnalysis:
    def test_upload_generates_report(self, service):
        s = _sample()
        report = service.upload(s, s.first_seen)
        assert report.sha256 == s.sha256
        assert report.file_type == "Win32 EXE"
        assert len(report.labels) == 70
        assert 0 <= report.positives <= report.total <= 70

    def test_rescan_requires_known_sample(self, service):
        with pytest.raises(NotFoundError):
            service.rescan(sha256_of("ghost"), 100)

    def test_report_returns_latest_without_new_analysis(self, service):
        s = _sample()
        first = service.upload(s, s.first_seen)
        generated = service.reports_generated
        got = service.report(s.sha256, s.first_seen + 100)
        assert got == first
        assert service.reports_generated == generated

    def test_report_is_the_latest_analysis_at_or_before_now(self, service):
        """A whole schedule scanned in one call answers as of ``now``:
        the scan a twin scanned call by call had last made by then."""
        s = _sample()
        service.register(s)
        t = s.first_seen
        service.scan_batch([s], [3], [t, t + 100, t + 200], [True])
        twin_service = VirusTotalService(seed=3)
        twin = _sample()
        expected = [twin_service.upload(twin, t),
                    twin_service.rescan(twin.sha256, t + 100),
                    twin_service.rescan(twin.sha256, t + 200)]
        with pytest.raises(NotFoundError):
            service.report(s.sha256, t - 1)
        assert service.report(s.sha256, t) == expected[0]
        assert service.report(s.sha256, t + 199) == expected[1]
        assert service.report(s.sha256, t + 10_000) == expected[2]

    def test_report_without_analysis_raises(self, service):
        s = _sample()
        service.register(s)
        with pytest.raises(NotFoundError):
            service.report(s.sha256, s.first_seen)

    def test_positives_counts_malicious_labels(self, service):
        s = _sample()
        report = service.upload(s, s.first_seen + clock.minutes(days=400))
        labels = report.engine_labels()
        assert report.positives == sum(1 for v in labels if v == 1)
        assert report.total == sum(1 for v in labels if v != -1)

    def test_malicious_sample_eventually_detected(self, service):
        s = _sample("verymal")
        late = s.first_seen + clock.minutes(days=400)
        report = service.upload(s, late)
        assert report.positives > 0

    def test_benign_sample_mostly_zero(self, service):
        ranks = []
        for i in range(30):
            s = _sample(f"ben{i}", malicious=False)
            ranks.append(service.upload(s, s.first_seen).positives)
        assert sum(1 for r in ranks if r == 0) >= 25

    def test_scans_are_deterministic_given_schedule(self):
        def run():
            service = VirusTotalService(seed=9)
            s = _sample("det")
            out = [service.upload(s, s.first_seen).positives]
            for d in (3, 9, 30):
                out.append(
                    service.rescan(
                        s.sha256, s.first_seen + clock.minutes(days=d)
                    ).positives
                )
            return out

        assert run() == run()


class TestTable1Semantics:
    """The paper's Table 1: field update rules per API operation."""

    def test_upload_updates_all_three_fields(self, service):
        s = _sample()
        t1 = s.first_seen
        report = service.upload(s, t1)
        assert report.times_submitted == 1
        assert report.last_submission_date == t1
        assert report.last_analysis_date == t1

        t2 = t1 + clock.minutes(days=2)
        report2 = service.upload(s.sha256, t2)
        assert report2.times_submitted == 2
        assert report2.last_submission_date == t2
        assert report2.last_analysis_date == t2

    def test_rescan_updates_only_analysis_date(self, service):
        s = _sample()
        t1 = s.first_seen
        service.upload(s, t1)
        t2 = t1 + clock.minutes(days=3)
        report = service.rescan(s.sha256, t2)
        assert report.last_analysis_date == t2
        assert report.last_submission_date == t1  # unchanged
        assert report.times_submitted == 1  # unchanged

    def test_report_changes_nothing(self, service):
        s = _sample()
        t1 = s.first_seen
        uploaded = service.upload(s, t1)
        fetched = service.report(s.sha256, t1)
        assert fetched.last_analysis_date == uploaded.last_analysis_date
        assert fetched.last_submission_date == uploaded.last_submission_date
        assert fetched.times_submitted == uploaded.times_submitted

    def test_first_submission_date_preserved(self, service):
        s = _sample()
        service.upload(s, s.first_seen)
        later = service.rescan(s.sha256, s.first_seen + 10_000)
        assert later.first_submission_date == s.first_seen
