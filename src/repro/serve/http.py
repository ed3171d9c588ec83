"""The HTTP front-end over a frozen report store.

``repro.serve`` turns the store substrate into the thing the paper
measured: an online service answering per-file report queries and a
premium per-minute feed, with API keys and tiered quotas.  Three
endpoints, mirroring the real API's shapes:

``GET /files/{sha256}``
    The sample's latest report (the default single-file lookup).
``GET /files/{sha256}/series``
    The sample's full AV-Rank trajectory — the label-dynamics view the
    paper is built on.
``GET /feeds/files/{minute}``
    That minute's feed batch from the :class:`~repro.vt.feed.FeedArchive`
    (premium keys only; expired minutes return a structured 404).

The request path is split from the socket machinery:
:meth:`ReportServer.handle_request` takes ``(method, path, headers)``
and returns ``(status, body_bytes, headers)`` — fully testable without
binding a port, and the property the byte-identical serial-vs-parallel
serving tests rely on.  The socket layer is a stdlib
:class:`~http.server.ThreadingHTTPServer` (no new dependencies); store
access is serialised under one lock because the block cache's LRU
mutates on every read.

Responses are deterministic: JSON with sorted keys and canonical
separators, so two stores that are digest-equal serve byte-identical
bodies.
"""

from __future__ import annotations

import json
import re
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Iterable, Mapping

from repro.errors import ArchiveExpiredError, UnknownSampleError
from repro.obs.registry import NULL_REGISTRY
from repro.serve.auth import Tenant, TenantRegistry
from repro.serve.ratelimit import ClockFn, TenantLimiter
from repro.vt.feed import FeedArchive
from repro.vt.reports import ScanReport

#: The API-key request header (the real service's convention).
API_KEY_HEADER = "x-apikey"

_FILE_ROUTE = re.compile(r"^/files/([0-9a-f]{64})$")
_SERIES_ROUTE = re.compile(r"^/files/([0-9a-f]{64})/series$")
_FEED_ROUTE = re.compile(r"^/feeds/files/(\d+)$")

#: Fixed latency bucket edges (seconds) for the request-duration span —
#: tighter than the default edges because in-process serves are fast.
LATENCY_EDGES: tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
    0.01, 0.025, 0.05, 0.1, 0.25, 1.0,
)

Response = tuple[int, bytes, "dict[str, str]"]


def _json_bytes(doc: dict) -> bytes:
    """Canonical response encoding: sorted keys, no whitespace."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("utf-8")


def report_doc(report: ScanReport) -> dict:
    """A report as the JSON document the service returns."""
    return {
        "sha256": report.sha256,
        "file_type": report.file_type,
        "scan_time": report.scan_time,
        "positives": report.positives,
        "total": report.total,
        "labels": report.engine_labels(),
        "versions": list(report.versions),
        "first_submission_date": report.first_submission_date,
        "last_submission_date": report.last_submission_date,
        "last_analysis_date": report.last_analysis_date,
        "times_submitted": report.times_submitted,
    }


def series_doc(sha256: str, reports: Iterable[ScanReport]) -> dict:
    """A sample's AV-Rank trajectory document."""
    points = [
        {"scan_time": r.scan_time, "positives": r.positives, "total": r.total}
        for r in reports
    ]
    return {"sha256": sha256, "count": len(points), "series": points}


def _error(status: int, code: str, message: str,
           headers: dict[str, str] | None = None, **extra) -> Response:
    doc = {"error": {"code": code, "message": message, **extra}}
    out = {"Content-Type": "application/json"}
    if headers:
        out.update(headers)
    return status, _json_bytes(doc), out


def _ok(doc: dict) -> Response:
    return 200, _json_bytes(doc), {"Content-Type": "application/json"}


class ReportServer:
    """The serving layer: routing, auth, quotas, and the socket wrapper.

    ``store`` must be a loaded :class:`~repro.store.ReportStore`;
    ``archive`` (optional) backs the feed endpoint — without one, feed
    requests return 404.  ``clock`` feeds the rate limiter (injectable
    for tests; real monotonic seconds by default).
    """

    def __init__(
        self,
        store,
        tenants: TenantRegistry,
        archive: FeedArchive | None = None,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        clock: ClockFn | None = None,
        metrics=None,
    ) -> None:
        self.store = store
        self.tenants = tenants
        self.archive = archive
        self.host = host
        self.port = port
        self.limiter = TenantLimiter(clock=clock)
        # The block cache's LRU mutates on every read, so concurrent
        # handler threads serialise store/archive access here.
        self._store_lock = threading.Lock()
        self._httpd: ThreadingHTTPServer | None = None
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        self._m_rejected_auth = self.metrics.counter("serve.rejected.auth")
        self._m_rejected_rate = self.metrics.counter("serve.rejected.ratelimit")

    # ------------------------------------------------------------------
    # Request handling (socket-free; the testable surface)
    # ------------------------------------------------------------------

    def handle_request(self, method: str, path: str,
                       headers: Mapping[str, str]) -> Response:
        """Serve one request; returns ``(status, body, headers)``.

        Pipeline order matches the real service: authentication, then
        quota (refused requests consume no tokens; admitted ones count
        against the key whatever the final status), then routing.
        """
        endpoint = self._endpoint_of(path)
        with self.metrics.span("serve.latency.seconds",
                               edges=LATENCY_EDGES, endpoint=endpoint):
            status, body, out = self._dispatch(method, path, headers)
        self.metrics.counter("serve.requests",
                             endpoint=endpoint, status=status).inc()
        return status, body, out

    @staticmethod
    def _endpoint_of(path: str) -> str:
        if _FILE_ROUTE.match(path):
            return "file"
        if _SERIES_ROUTE.match(path):
            return "series"
        if _FEED_ROUTE.match(path):
            return "feed"
        return "unknown"

    def _dispatch(self, method: str, path: str,
                  headers: Mapping[str, str]) -> Response:
        if method != "GET":
            return _error(405, "MethodNotAllowedError",
                          f"method {method} is not allowed",
                          headers={"Allow": "GET"})

        key = None
        for name, value in headers.items():
            if name.lower() == API_KEY_HEADER:
                key = value
                break
        if key is None:
            self._m_rejected_auth.inc()
            return _error(401, "AuthenticationRequiredError",
                          f"missing {API_KEY_HEADER} header")
        tenant = self.tenants.lookup(key)
        if tenant is None:
            self._m_rejected_auth.inc()
            return _error(403, "WrongCredentialsError",
                          "unknown API key")

        decision = self.limiter.check(tenant)
        if not decision.allowed:
            self._m_rejected_rate.inc()
            retry = decision.retry_after_seconds
            return _error(
                429, "QuotaExceededError",
                f"quota exceeded for tier {tenant.tier.name!r}; "
                f"retry in {retry}s",
                headers={"Retry-After": str(retry)},
            )

        match = _FILE_ROUTE.match(path)
        if match:
            return self._serve_file(match.group(1))
        match = _SERIES_ROUTE.match(path)
        if match:
            return self._serve_series(match.group(1))
        match = _FEED_ROUTE.match(path)
        if match:
            return self._serve_feed(tenant, int(match.group(1)))
        return _error(404, "NotFoundError", f"unrecognised path {path!r}")

    def _serve_file(self, sha256: str) -> Response:
        try:
            with self._store_lock:
                report = self.store.latest_report(sha256)
        except UnknownSampleError:
            return _error(404, "NotFoundError",
                          f"sample not found: {sha256}")
        return _ok(report_doc(report))

    def _serve_series(self, sha256: str) -> Response:
        try:
            with self._store_lock:
                reports = self.store.report_series(sha256)
        except UnknownSampleError:
            return _error(404, "NotFoundError",
                          f"sample not found: {sha256}")
        return _ok(series_doc(sha256, reports))

    def _serve_feed(self, tenant: Tenant, minute: int) -> Response:
        if not tenant.premium:
            return _error(403, "ForbiddenError",
                          "the feed requires a premium API key")
        if self.archive is None:
            return _error(404, "NotFoundError",
                          "this deployment serves no feed archive")
        try:
            with self._store_lock:
                reports = self.archive.batch(minute)
        except ArchiveExpiredError as exc:
            return _error(
                404, "ArchiveExpiredError", str(exc),
                minute=exc.minute, oldest_available=exc.horizon,
            )
        doc = {
            "minute": minute,
            "count": len(reports),
            "reports": [report_doc(r) for r in reports],
        }
        return _ok(doc)

    # ------------------------------------------------------------------
    # Socket layer (stdlib ThreadingHTTPServer)
    # ------------------------------------------------------------------

    def _ensure_httpd(self) -> ThreadingHTTPServer:
        if self._httpd is None:
            self._httpd = ThreadingHTTPServer(
                (self.host, self.port), _make_handler(self))
            self.port = self._httpd.server_address[1]
        return self._httpd

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` (binds on first use)."""
        httpd = self._ensure_httpd()
        return httpd.server_address[0], httpd.server_address[1]

    def start(self) -> threading.Thread:
        """Serve in a daemon thread (tests, embedding); returns it."""
        httpd = self._ensure_httpd()
        thread = threading.Thread(target=httpd.serve_forever,
                                  name="repro-serve", daemon=True)
        thread.start()
        return thread

    def serve_forever(self) -> None:
        """Serve on the calling thread until :meth:`shutdown`."""
        self._ensure_httpd().serve_forever()

    def shutdown(self) -> None:
        """Stop the socket loop and release the port."""
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
            self._httpd = None


def _make_handler(server: ReportServer) -> type[BaseHTTPRequestHandler]:
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        server_version = "repro-serve/1"

        def do_GET(self) -> None:  # noqa: N802 (http.server API)
            status, body, headers = server.handle_request(
                "GET", self.path, dict(self.headers.items()))
            self._reply(status, body, headers)

        def do_POST(self) -> None:  # noqa: N802 (http.server API)
            status, body, headers = server.handle_request(
                "POST", self.path, dict(self.headers.items()))
            self._reply(status, body, headers)

        def _reply(self, status: int, body: bytes,
                   headers: dict[str, str]) -> None:
            self.send_response(status)
            for name, value in headers.items():
                self.send_header(name, value)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, format: str, *args) -> None:
            # Access logging goes through the metrics registry, not
            # stderr (library code never prints).
            pass

    return Handler
