"""Tests for the HTTP serving layer (repro.serve).

``handle_request`` is exercised socket-free for everything behavioural
(auth, quotas, routing, response bytes); one smoke test drives the real
``ThreadingHTTPServer`` over a loopback socket.  The rate limiter runs on
an injected fake clock throughout — no test sleeps.
"""

import json
import threading

import pytest

from repro.analysis.experiment import run_experiment
from repro.errors import ConfigError
from repro.serve import (
    FREE_TIER,
    PREMIUM_TIER,
    ReportServer,
    TenantRegistry,
    TierLimits,
)
from repro.serve.http import LATENCY_EDGES
from repro.serve.ratelimit import TenantLimiter
from repro.store import ReportStore
from repro.vt.feed import FeedArchive
from tests.conftest import make_report, make_sha


class FakeClock:
    """A settable monotonic clock for the limiter."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def _tiny_store() -> ReportStore:
    store = ReportStore(block_records=4)
    for i in range(6):
        sha = make_sha(f"serve{i}")
        for rep in range(3):
            store.ingest(make_report(
                sha=sha, scan_time=100 * rep + i,
                labels=[1] * rep + [0] * (5 - rep)))
    store.close()
    return store


@pytest.fixture()
def store(store_block_format):
    return _tiny_store()


@pytest.fixture()
def clock():
    return FakeClock()


@pytest.fixture()
def server(store, clock):
    tenants = TenantRegistry()
    tenants.add("free-key", "free")
    tenants.add("prem-key", "premium")
    archive = FeedArchive.from_store(store, retention_minutes=150)
    return ReportServer(store, tenants, archive, clock=clock)


def _get(server, path, key=None):
    headers = {} if key is None else {"x-apikey": key}
    return server.handle_request("GET", path, headers)


def _body(raw: bytes) -> dict:
    return json.loads(raw)


class TestAuth:
    def test_missing_key_is_401(self, server, store):
        sha = next(iter(store.samples()))
        status, body, _ = _get(server, f"/files/{sha}")
        assert status == 401
        assert _body(body)["error"]["code"] == "AuthenticationRequiredError"

    def test_unknown_key_is_403(self, server, store):
        sha = next(iter(store.samples()))
        status, body, _ = _get(server, f"/files/{sha}", key="nope")
        assert status == 403
        assert _body(body)["error"]["code"] == "WrongCredentialsError"

    def test_header_name_is_case_insensitive(self, server, store):
        sha = next(iter(store.samples()))
        status, _, _ = server.handle_request(
            "GET", f"/files/{sha}", {"X-Apikey": "prem-key"})
        assert status == 200

    def test_non_get_is_405(self, server, store):
        sha = next(iter(store.samples()))
        status, _, headers = server.handle_request(
            "POST", f"/files/{sha}", {"x-apikey": "prem-key"})
        assert status == 405
        assert headers["Allow"] == "GET"


class TestFileEndpoint:
    def test_latest_report_served(self, server, store):
        sha = next(iter(store.samples()))
        status, body, headers = _get(server, f"/files/{sha}", key="prem-key")
        assert status == 200
        assert headers["Content-Type"] == "application/json"
        doc = _body(body)
        assert doc["sha256"] == sha
        assert doc["scan_time"] == store.latest_report(sha).scan_time

    def test_unknown_hash_is_404(self, server):
        status, body, _ = _get(server, "/files/" + "0" * 64, key="prem-key")
        assert status == 404
        assert _body(body)["error"]["code"] == "NotFoundError"

    def test_malformed_hash_is_404(self, server):
        status, body, _ = _get(server, "/files/deadbeef", key="prem-key")
        assert status == 404

    def test_lookup_decodes_at_most_one_block_cold(self, server, store):
        """The acceptance criterion: a hot-hash request decodes ≤1 block
        on a cold cache (the pre-index server full-scanned the store)."""
        sha = next(iter(store.samples()))
        store.drop_caches()
        before = store.cache_stats().blocks_decoded
        status, _, _ = _get(server, f"/files/{sha}", key="prem-key")
        assert status == 200
        assert store.cache_stats().blocks_decoded - before <= 1

    def test_series_trajectory(self, server, store):
        sha = next(iter(store.samples()))
        status, body, _ = _get(server, f"/files/{sha}/series",
                               key="prem-key")
        assert status == 200
        doc = _body(body)
        assert doc["sha256"] == sha
        assert doc["count"] == 3
        times = [p["scan_time"] for p in doc["series"]]
        assert times == sorted(times)
        assert [p["positives"] for p in doc["series"]] == [0, 1, 2]


class TestRateLimiting:
    def test_free_fifth_request_in_a_minute_is_429(self, server, store):
        sha = next(iter(store.samples()))
        for _ in range(4):
            status, _, _ = _get(server, f"/files/{sha}", key="free-key")
            assert status == 200
        status, body, headers = _get(server, f"/files/{sha}", key="free-key")
        assert status == 429
        assert _body(body)["error"]["code"] == "QuotaExceededError"
        retry = int(headers["Retry-After"])
        assert retry >= 1
        assert retry <= 15  # one token refills in 60/4 s

    def test_retry_after_is_honest(self, server, store, clock):
        sha = next(iter(store.samples()))
        for _ in range(4):
            _get(server, f"/files/{sha}", key="free-key")
        _, _, headers = _get(server, f"/files/{sha}", key="free-key")
        clock.advance(int(headers["Retry-After"]))
        status, _, _ = _get(server, f"/files/{sha}", key="free-key")
        assert status == 200

    def test_premium_is_never_limited(self, server, store):
        sha = next(iter(store.samples()))
        for _ in range(50):
            status, _, _ = _get(server, f"/files/{sha}", key="prem-key")
            assert status == 200

    def test_refused_request_consumes_no_day_quota(self, clock):
        """Check-all-then-consume: a minute-window refusal must not
        drain the day bucket."""
        limiter = TenantLimiter(clock=clock)
        tenants = TenantRegistry()
        tenant = tenants.add("k", TierLimits("tiny", per_minute=1, per_day=2))
        assert limiter.check(tenant).allowed          # spends 1 of each
        refused = limiter.check(tenant)               # minute empty
        assert not refused.allowed
        assert limiter.remaining(tenant)["day"] == pytest.approx(1.0)
        clock.advance(60)                             # minute refills
        assert limiter.check(tenant).allowed          # day's last token
        worst = limiter.check(tenant)
        assert not worst.allowed
        # Both windows now refuse; the wait is the day window's (hours).
        assert worst.retry_after > 3600

    def test_hammer_single_tenant_admits_exactly_capacity(self):
        """Eight threads racing one tenant's bucket admit exactly
        ``capacity`` requests: the check and the consume happen under
        one lock at one clock instant, so concurrent callers can never
        double-spend a token (the regression this guards was a fresh
        clock read between check and consume minting extra admissions).
        """
        limiter = TenantLimiter(clock=lambda: 0.0)  # frozen: no refill
        tenants = TenantRegistry()
        tenant = tenants.add(
            "hammer", TierLimits("burst", per_minute=32, per_day=None))
        admitted = []
        barrier = threading.Barrier(8)

        def worker() -> None:
            barrier.wait()
            for _ in range(16):
                if limiter.check(tenant).allowed:
                    admitted.append(1)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(admitted) == 32

    def test_limits_are_per_tenant(self, server, store):
        tenants = server.tenants
        tenants.add("free-2", "free")
        sha = next(iter(store.samples()))
        for _ in range(4):
            assert _get(server, f"/files/{sha}", key="free-key")[0] == 200
        assert _get(server, f"/files/{sha}", key="free-key")[0] == 429
        assert _get(server, f"/files/{sha}", key="free-2")[0] == 200

    def test_free_tier_matches_published_limits(self):
        assert FREE_TIER.per_minute == 4
        assert FREE_TIER.per_day == 500
        assert PREMIUM_TIER.unlimited


class TestFeedEndpoint:
    def test_premium_gets_batch(self, server, store):
        horizon = server.archive.horizon
        status, body, _ = _get(server, f"/feeds/files/{horizon}",
                               key="prem-key")
        assert status == 200
        doc = _body(body)
        assert doc["minute"] == horizon
        assert doc["count"] == len(doc["reports"]) > 0

    def test_free_key_is_403(self, server):
        status, body, _ = _get(server, "/feeds/files/100", key="free-key")
        assert status == 403
        assert _body(body)["error"]["code"] == "ForbiddenError"

    def test_expired_minute_is_structured_404(self, server):
        floor = server.archive.oldest_available
        assert floor > 0
        status, body, _ = _get(server, f"/feeds/files/{floor - 1}",
                               key="prem-key")
        assert status == 404
        err = _body(body)["error"]
        assert err["code"] == "ArchiveExpiredError"
        assert err["minute"] == floor - 1
        assert err["oldest_available"] == floor

    def test_boundary_minute_is_served(self, server):
        floor = server.archive.oldest_available
        status, _, _ = _get(server, f"/feeds/files/{floor}", key="prem-key")
        assert status == 200

    def test_no_archive_is_404(self, store, clock):
        tenants = TenantRegistry()
        tenants.add("p", "premium")
        bare = ReportServer(store, tenants, archive=None, clock=clock)
        status, body, _ = _get(bare, "/feeds/files/100", key="p")
        assert status == 404
        assert _body(body)["error"]["code"] == "NotFoundError"


class TestTenantRegistry:
    def test_spec_parsing(self):
        tenants = TenantRegistry()
        tenant = tenants.add_spec("abc:premium")
        assert tenant.key == "abc" and tenant.premium

    def test_bad_specs_rejected(self):
        tenants = TenantRegistry()
        with pytest.raises(ConfigError):
            tenants.add_spec("no-tier")
        with pytest.raises(ConfigError):
            tenants.add_spec("k:gold")
        with pytest.raises(ConfigError):
            tenants.add_spec(":free")

    def test_duplicate_key_rejected(self):
        tenants = TenantRegistry()
        tenants.add("k", "free")
        with pytest.raises(ConfigError):
            tenants.add("k", "premium")


class TestDeterministicResponses:
    def test_serial_and_parallel_stores_serve_identical_bytes(
            self, tiny_config, tiny_store):
        """The serving-layer face of the equivalence gate: digest-equal
        stores must serve byte-identical responses on every endpoint."""
        parallel = run_experiment(tiny_config, workers=2).store
        assert parallel.digest() == tiny_store.digest()

        def server_over(store):
            tenants = TenantRegistry()
            tenants.add("p", "premium")
            archive = FeedArchive.from_store(store)
            return ReportServer(store, tenants, archive,
                                clock=lambda: 0.0)

        a, b = server_over(tiny_store), server_over(parallel)
        shas = sorted(tiny_store.samples())[:10]
        paths = [f"/files/{sha}" for sha in shas]
        paths += [f"/files/{sha}/series" for sha in shas]
        horizon = a.archive.horizon
        paths += [f"/feeds/files/{m}"
                  for m in range(max(0, horizon - 3), horizon + 1)]
        paths += ["/files/" + "0" * 64, "/feeds/files/999999999"]
        for path in paths:
            ra = a.handle_request("GET", path, {"x-apikey": "p"})
            rb = b.handle_request("GET", path, {"x-apikey": "p"})
            assert ra == rb, path

    def test_response_bytes_are_canonical_json(self, server, store):
        sha = next(iter(store.samples()))
        _, body, _ = _get(server, f"/files/{sha}", key="prem-key")
        doc = _body(body)
        recanon = json.dumps(doc, sort_keys=True,
                             separators=(",", ":")).encode()
        assert body == recanon


class TestMetrics:
    def test_requests_and_rejections_counted(self, store, clock):
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        tenants = TenantRegistry()
        tenants.add("p", "premium")
        srv = ReportServer(store, tenants, clock=clock, metrics=registry)
        sha = next(iter(store.samples()))
        _get(srv, f"/files/{sha}", key="p")
        _get(srv, f"/files/{sha}")                 # 401
        _get(srv, f"/files/{sha}", key="wrong")    # 403
        assert registry.counter("serve.requests",
                                endpoint="file", status=200).value == 1
        assert registry.counter("serve.rejected.auth").value == 2
        hist = registry.histogram(
            "serve.latency.seconds", edges=LATENCY_EDGES, endpoint="file")
        assert hist.count == 3


class TestSocketLayer:
    def test_loopback_round_trip(self, store):
        import urllib.error
        import urllib.request

        tenants = TenantRegistry()
        tenants.add("p", "premium")
        srv = ReportServer(store, tenants,
                           archive=FeedArchive.from_store(store), port=0)
        host, port = srv.address
        srv.start()
        try:
            sha = next(iter(store.samples()))
            req = urllib.request.Request(
                f"http://{host}:{port}/files/{sha}",
                headers={"x-apikey": "p"})
            with urllib.request.urlopen(req, timeout=10) as resp:
                assert resp.status == 200
                over_socket = resp.read()
            direct = srv.handle_request(
                "GET", f"/files/{sha}", {"x-apikey": "p"})[1]
            assert over_socket == direct
            bad = urllib.request.Request(f"http://{host}:{port}/files/{sha}")
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(bad, timeout=10)
            assert excinfo.value.code == 401
        finally:
            srv.shutdown()

    def test_concurrent_requests_are_consistent(self, store):
        """N threads hammering one sample all read the same bytes (the
        store lock keeps the LRU safe under ThreadingHTTPServer)."""
        import threading
        import urllib.request

        tenants = TenantRegistry()
        tenants.add("p", "premium")
        srv = ReportServer(store, tenants, port=0)
        host, port = srv.address
        srv.start()
        sha = next(iter(store.samples()))
        expected = srv.handle_request(
            "GET", f"/files/{sha}", {"x-apikey": "p"})[1]
        results: list[bytes] = []
        errors: list[Exception] = []

        def hit():
            try:
                req = urllib.request.Request(
                    f"http://{host}:{port}/files/{sha}",
                    headers={"x-apikey": "p"})
                with urllib.request.urlopen(req, timeout=10) as resp:
                    results.append(resp.read())
            except Exception as exc:  # collected for the assert below
                errors.append(exc)

        threads = [threading.Thread(target=hit) for _ in range(8)]
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            srv.shutdown()
        assert not errors
        assert len(results) == 8
        assert all(r == expected for r in results)
