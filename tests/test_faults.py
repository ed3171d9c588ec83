"""Tests for the fault-injection layer (repro.faults)."""

import pytest

from repro.errors import (
    ConfigError,
    CorruptRecordError,
    ServiceUnavailableError,
    TransientError,
)
from repro.faults import (
    ChaosClient,
    ChaosFeed,
    ChaosStore,
    FaultPlan,
    OutageWindow,
    chaos_wrap,
    corrupt_payload,
    corrupt_report,
    hashed_fraction,
    standard_chaos_plan,
)
from repro.store import codec
from repro.store.reportstore import ReportStore
from repro.vt.api import VTClient
from repro.vt.feed import PremiumFeed
from repro.vt.samples import Sample, sha256_of
from repro.vt.service import VirusTotalService

from conftest import make_report


@pytest.fixture()
def service():
    return VirusTotalService(seed=8)


def _upload(service, token, when):
    s = Sample(sha256=sha256_of(token), file_type="TXT",
               malicious=False, first_seen=when)
    return service.upload(s, when)


class TestOutageWindow:
    def test_contains(self):
        window = OutageWindow(10, 20)
        assert 10 in window and 19 in window
        assert 9 not in window and 20 not in window

    def test_minutes(self):
        assert OutageWindow(10, 25).minutes == 15

    def test_invalid_rejected(self):
        with pytest.raises(ConfigError):
            OutageWindow(20, 10)
        with pytest.raises(ConfigError):
            OutageWindow(-1, 10)


class TestFaultPlan:
    def test_rates_validated(self):
        with pytest.raises(ConfigError):
            FaultPlan(transient_rate=1.5)
        with pytest.raises(ConfigError):
            FaultPlan(corrupt_rate=-0.1)
        with pytest.raises(ConfigError):
            FaultPlan(max_consecutive_failures=0)

    def test_overlapping_outages_rejected(self):
        with pytest.raises(ConfigError):
            FaultPlan(outages=(OutageWindow(0, 100), OutageWindow(50, 150)))

    def test_outages_sorted(self):
        plan = FaultPlan(outages=(OutageWindow(200, 300), OutageWindow(0, 100)))
        assert [w.start for w in plan.outages] == [0, 200]

    def test_decisions_are_deterministic(self):
        plan = FaultPlan(seed=5, transient_rate=0.3, duplicate_rate=0.3,
                         corrupt_rate=0.3)
        first = [(plan.poll_fails(m, 0), plan.duplicates("ab" * 32, m),
                  plan.corrupts("ab" * 32, m)) for m in range(500)]
        second = [(plan.poll_fails(m, 0), plan.duplicates("ab" * 32, m),
                   plan.corrupts("ab" * 32, m)) for m in range(500)]
        assert first == second
        assert any(any(t) for t in first)  # the plan actually fires

    def test_different_seeds_differ(self):
        a = FaultPlan(seed=1, transient_rate=0.3)
        b = FaultPlan(seed=2, transient_rate=0.3)
        assert ([a.poll_fails(m, 0) for m in range(500)]
                != [b.poll_fails(m, 0) for m in range(500)])

    def test_consecutive_failure_cap_guarantees_progress(self):
        plan = FaultPlan(transient_rate=1.0, store_failure_rate=1.0,
                         max_consecutive_failures=2)
        assert plan.poll_fails(7, 0) and plan.poll_fails(7, 1)
        assert not plan.poll_fails(7, 2)
        assert not plan.store_write_fails("ab" * 32, 7, 2)
        assert not plan.api_fails("report", "ab" * 32, 2)

    def test_disabled(self):
        assert FaultPlan().disabled
        assert not FaultPlan(transient_rate=0.1).disabled
        assert not FaultPlan(outages=(OutageWindow(0, 10),)).disabled
        assert not standard_chaos_plan().disabled

    def test_in_outage(self):
        plan = FaultPlan(outages=(OutageWindow(100, 200),))
        assert plan.in_outage(150)
        assert not plan.in_outage(99) and not plan.in_outage(200)


def _binomial_ok(hits: int, trials: int, rate: float,
                 sigmas: float = 4.0) -> bool:
    """Whether ``hits`` of ``trials`` is within ``sigmas`` standard
    deviations of a Binomial(trials, rate) mean."""
    mean = trials * rate
    return abs(hits - mean) <= sigmas * (mean * (1.0 - rate)) ** 0.5


class TestRealisedRates:
    """The configured rate is the rate that occurs: per decision, for a
    retry after a failure, and for two fault kinds on one delivery."""

    def test_hashed_fraction_is_roughly_uniform(self):
        # Structured shard keys must still draw uniformly, or configured
        # rates are fiction.
        draws = [hashed_fraction(0, "exec", "crash_before",
                                 f"shard-{i:03d}", 0) for i in range(400)]
        hits = sum(1 for d in draws if d < 0.15)
        assert 30 <= hits <= 90  # 400 × 0.15 = 60 expected
        assert 0.40 <= sum(draws) / len(draws) <= 0.60

    @pytest.mark.parametrize("seed", [0, 3])
    @pytest.mark.parametrize("rate", [0.01, 0.05, 0.2])
    def test_poll_retry_after_failure_fails_at_the_rate(self, seed, rate):
        plan = FaultPlan(seed=seed, transient_rate=rate)
        minutes = 40_000
        failed = [m for m in range(minutes) if plan.poll_fails(m, 0)]
        assert _binomial_ok(len(failed), minutes, rate)
        again = sum(plan.poll_fails(m, 1) for m in failed)
        assert _binomial_ok(again, len(failed), rate)

    @pytest.mark.parametrize("seed", [0, 3])
    def test_api_and_store_retries_fail_at_the_rate(self, seed):
        rate = 0.2
        plan = FaultPlan(seed=seed, transient_rate=rate,
                         store_failure_rate=rate)
        shas = [sha256_of(f"delivery-{i}") for i in range(10_000)]
        api = [s for s in shas if plan.api_fails("report", s, 0)]
        store = [s for i, s in enumerate(shas)
                 if plan.store_write_fails(s, i, 0)]
        assert _binomial_ok(len(api), len(shas), rate)
        assert _binomial_ok(len(store), len(shas), rate)
        assert _binomial_ok(sum(plan.api_fails("report", s, 1) for s in api),
                            len(api), rate)
        index = {s: i for i, s in enumerate(shas)}
        assert _binomial_ok(
            sum(plan.store_write_fails(s, index[s], 1) for s in store),
            len(store), rate)

    @pytest.mark.parametrize("seed", [0, 3])
    def test_fault_kinds_on_one_delivery_are_independent(self, seed):
        rate = 0.05
        plan = FaultPlan(seed=seed, drop_rate=rate, duplicate_rate=rate,
                         corrupt_rate=rate)
        deliveries = [(sha256_of(f"delivery-{i}"), i) for i in range(50_000)]
        dup = [plan.duplicates(s, t) for s, t in deliveries]
        bad = [plan.corrupts(s, t) for s, t in deliveries]
        drop = [plan.drops(s, t) for s, t in deliveries]
        n = len(deliveries)
        for kind in (dup, bad, drop):
            assert _binomial_ok(sum(kind), n, rate)
        for other in (bad, drop):
            both = sum(a and b for a, b in zip(dup, other, strict=True))
            assert _binomial_ok(both, n, rate * rate)


class TestInjectors:
    def test_corrupt_payload_always_undecodable(self):
        report = make_report(labels=[1, 0, -1, 0, 1])
        record = codec.encode_report(report)
        plan = FaultPlan(seed=0)
        for i in range(200):
            mangled = corrupt_payload(record, plan.corruption_rng("x", i))
            with pytest.raises(CorruptRecordError):
                codec.decode_report(mangled)

    def test_corrupt_report_is_deterministic(self):
        report = make_report()
        plan = FaultPlan(seed=3)
        a = corrupt_report(report, plan.corruption_rng(report.sha256, 5))
        b = corrupt_report(report, plan.corruption_rng(report.sha256, 5))
        assert a == b


class TestChaosFeed:
    def _feed(self, service, plan):
        return ChaosFeed(PremiumFeed(service), plan)

    def test_outage_loses_reports_and_raises(self, service):
        plan = FaultPlan(outages=(OutageWindow(100, 200),))
        feed = self._feed(service, plan)
        feed.attach()
        _upload(service, "a", 150)
        with pytest.raises(ServiceUnavailableError):
            feed.poll(until_minute=151)
        assert feed.reports_lost_to_outage == 1
        assert feed.outage_polls == 1
        assert feed.pending() == 0  # the buffered copy is gone

    def test_outage_spares_later_reports(self, service):
        plan = FaultPlan(outages=(OutageWindow(100, 200),))
        feed = self._feed(service, plan)
        feed.attach()
        _upload(service, "a", 150)
        _upload(service, "b", 250)
        with pytest.raises(ServiceUnavailableError):
            feed.poll(until_minute=151)
        batch = feed.poll(until_minute=251)
        assert [r.scan_time for r in batch] == [250]

    def test_transient_failures_then_success(self, service):
        plan = FaultPlan(transient_rate=1.0, max_consecutive_failures=2)
        feed = self._feed(service, plan)
        feed.attach()
        _upload(service, "a", 50)
        for _ in range(2):
            with pytest.raises(TransientError):
                feed.poll(until_minute=51)
        batch = feed.poll(until_minute=51)  # third attempt must succeed
        assert len(batch) == 1
        assert feed.transient_failures == 2

    def test_transient_status_codes(self, service):
        plan = FaultPlan(transient_rate=1.0, max_consecutive_failures=2)
        feed = self._feed(service, plan)
        feed.attach()
        with pytest.raises(TransientError) as first:
            feed.poll(until_minute=1)
        with pytest.raises(TransientError) as second:
            feed.poll(until_minute=1)
        assert first.value.status == 429
        assert second.value.status == 500

    def test_retry_fails_again_at_the_rate(self, service):
        # The second attempt's 500 is as common as two independent
        # failures in a row.
        plan = FaultPlan(seed=3, transient_rate=0.2)
        feed = self._feed(service, plan)
        feed.attach()
        statuses = []
        for minute in range(1, 2001):
            while True:
                try:
                    feed.poll(until_minute=minute)
                    break
                except TransientError as exc:
                    statuses.append(exc.status)
        assert _binomial_ok(statuses.count(500), 2000, 0.2 * 0.2)

    def test_duplicates_are_appended(self, service):
        plan = FaultPlan(duplicate_rate=1.0)
        feed = self._feed(service, plan)
        feed.attach()
        _upload(service, "a", 50)
        batch = feed.poll(until_minute=51)
        assert len(batch) == 2 and batch[0] == batch[1]
        assert feed.reports_duplicated == 1

    def test_corruption_delivers_bytes(self, service):
        plan = FaultPlan(corrupt_rate=1.0)
        feed = self._feed(service, plan)
        feed.attach()
        _upload(service, "a", 50)
        batch = feed.poll(until_minute=51)
        assert len(batch) == 1 and isinstance(batch[0], bytes)
        with pytest.raises(CorruptRecordError):
            codec.decode_report(batch[0])
        assert feed.reports_corrupted == 1

    def test_drops_are_counted(self, service):
        plan = FaultPlan(drop_rate=1.0)
        feed = self._feed(service, plan)
        feed.attach()
        _upload(service, "a", 50)
        assert feed.poll(until_minute=51) == []
        assert feed.reports_dropped == 1

    def test_passthrough_surface(self, service):
        feed = self._feed(service, FaultPlan(duplicate_rate=0.5))
        with feed:
            _upload(service, "a", 50)
            assert feed.pending() == 1
        assert feed.cursor == 0
        assert feed.batches_served == 0


class TestChaosStore:
    def test_write_failures_then_success(self):
        plan = FaultPlan(store_failure_rate=1.0, max_consecutive_failures=2)
        store = ChaosStore(ReportStore(), plan)
        report = make_report()
        for _ in range(2):
            with pytest.raises(TransientError):
                store.ingest_unique(report)
        assert store.ingest_unique(report) is True
        # A later write of the same key starts a fresh failure sequence…
        for _ in range(2):
            with pytest.raises(TransientError):
                store.ingest_unique(report)
        # …but once through, the replay is recognised as a duplicate.
        assert store.ingest_unique(report) is False
        assert store.write_failures == 4
        assert store.report_count == 1  # delegation works

    def test_wrapped_exposes_the_real_store(self):
        inner = ReportStore()
        assert ChaosStore(inner, FaultPlan(store_failure_rate=0.1)).wrapped is inner


class TestChaosClient:
    def test_report_endpoint_fails_transiently(self, service):
        plan = FaultPlan(transient_rate=1.0, max_consecutive_failures=1)
        report = _upload(service, "a", 50)
        client = ChaosClient(VTClient(service, premium=True), plan)
        with pytest.raises(TransientError):
            client.report(report.sha256, 60)
        assert client.report(report.sha256, 60).sha256 == report.sha256
        assert client.report.transient_failures == 1


class TestChaosWrap:
    def test_disabled_plan_returns_originals(self, service):
        feed = PremiumFeed(service)
        store = ReportStore()
        client = VTClient(service, premium=True)
        for plan in (None, FaultPlan()):
            assert chaos_wrap(feed, store, client, plan) == (feed, store, client)

    def test_enabled_plan_wraps(self, service):
        feed = PremiumFeed(service)
        store = ReportStore()
        client = VTClient(service, premium=True)
        cfeed, cstore, cclient = chaos_wrap(feed, store, client,
                                            standard_chaos_plan())
        assert isinstance(cfeed, ChaosFeed)
        assert isinstance(cstore, ChaosStore)
        assert isinstance(cclient, ChaosClient)

    def test_none_client_stays_none(self, service):
        _, _, cclient = chaos_wrap(PremiumFeed(service), ReportStore(), None,
                                   standard_chaos_plan())
        assert cclient is None
