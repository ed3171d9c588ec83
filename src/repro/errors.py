"""Exception hierarchy for the :mod:`repro` package.

Every error raised by this library derives from :class:`ReproError`, so
callers can catch one type at an API boundary.  Sub-hierarchies mirror the
package layout: the VirusTotal simulator raises :class:`VTError` subclasses
(matching the HTTP-level failures the real service returns), the report
store raises :class:`StoreError` subclasses, and the analysis layer raises
:class:`AnalysisError` subclasses.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigError(ReproError):
    """A scenario or component was configured with invalid parameters."""


# --------------------------------------------------------------------------
# VirusTotal simulator errors (mirror the real service's API failures)
# --------------------------------------------------------------------------


class VTError(ReproError):
    """Base class for VirusTotal service simulator errors."""


class NotFoundError(VTError):
    """The requested sample hash is not known to the service (HTTP 404)."""

    def __init__(self, sha256: str) -> None:
        super().__init__(f"sample not found: {sha256}")
        self.sha256 = sha256


class InvalidHashError(VTError):
    """The supplied string is not a well-formed SHA-256 hex digest."""

    def __init__(self, value: str) -> None:
        super().__init__(f"not a valid sha256 hex digest: {value!r}")
        self.value = value


class QuotaExceededError(VTError):
    """The API key's request quota was exhausted (HTTP 429)."""

    def __init__(self, used: int, limit: int) -> None:
        super().__init__(f"API quota exceeded: {used}/{limit} requests")
        self.used = used
        self.limit = limit


class PermissionError_(VTError):
    """The API key lacks the privilege for the requested endpoint."""

    def __init__(self, endpoint: str) -> None:
        super().__init__(f"API key lacks privileges for endpoint: {endpoint}")
        self.endpoint = endpoint


class TransientError(ReproError):
    """A retryable failure (HTTP 429/5xx class, or a backend write timeout).

    The request itself was well-formed; retrying with backoff is the
    correct response.  ``status`` carries the HTTP-style status code the
    real service would have returned.  Deliberately parented on
    :class:`ReproError` rather than :class:`VTError`: the store's fault
    layer raises it for injected write failures too, and the collector
    retries all transient failures uniformly.
    """

    def __init__(self, detail: str = "transient service failure",
                 status: int = 500) -> None:
        super().__init__(f"{detail} (HTTP {status})")
        self.status = status


class ServiceUnavailableError(TransientError):
    """The endpoint is down for a sustained period (HTTP 503).

    Raised by the feed during an outage window: unlike a one-off
    :class:`TransientError`, an immediate retry is pointless — the caller
    should record the gap and backfill once the service recovers.
    """

    def __init__(self, detail: str = "service unavailable") -> None:
        super().__init__(detail, status=503)


class ArchiveExpiredError(VTError):
    """A feed-archive minute older than the retention window was requested.

    Mirrors the real feed's bounded catch-up window: per-minute batches
    can be re-fetched only for the last N days.
    """

    def __init__(self, minute: int, horizon: int) -> None:
        super().__init__(
            f"feed archive no longer holds minute {minute} "
            f"(retention horizon is minute {horizon})"
        )
        self.minute = minute
        self.horizon = horizon


# --------------------------------------------------------------------------
# Report store errors
# --------------------------------------------------------------------------


class StoreError(ReproError):
    """Base class for report-store failures."""


class CorruptRecordError(StoreError):
    """A stored record failed checksum or structural validation."""


class UnknownSampleError(StoreError, KeyError):
    """A sample hash was requested that the store has never ingested."""

    def __init__(self, sha256: str) -> None:
        StoreError.__init__(self, f"store has no reports for sample {sha256}")
        self.sha256 = sha256


class BlockAddressError(StoreError, IndexError):
    """A ``(block, slot)`` address points past the shard's records.

    Dual-inherits :class:`IndexError` (like :class:`UnknownSampleError`
    does :class:`KeyError`) so positional-access callers keep their
    idiomatic ``except IndexError`` while the API boundary exports a
    :class:`ReproError` — the exception contract reprolint's RPL104
    enforces over the store surface.
    """

    def __init__(self, detail: str) -> None:
        StoreError.__init__(self, detail)


class ShardClosedError(StoreError):
    """An ingest was attempted on a store that was already finalised."""


# --------------------------------------------------------------------------
# Parallel-executor errors
# --------------------------------------------------------------------------


class ExecutorError(ReproError):
    """Base class for worker-pool failures (scheduling layer)."""


class ShardFailedError(ExecutorError):
    """One or more shard ranges produced no result.

    Either a range raised — the worker's exception is ``__cause__`` and
    its type and text end the message — or worker processes kept dying
    until the pool budget ran out, and ``shard_keys`` lists every range
    still without a result.  ``report`` is the run's
    :class:`~repro.parallel.scheduler.ExecutorReport`.
    """

    def __init__(self, shard_keys, report=None) -> None:
        keys = tuple(sorted(shard_keys))
        super().__init__(
            f"{len(keys)} shard range(s) failed: {', '.join(keys)}")
        self.shard_keys = keys
        self.report = report

    def __str__(self) -> str:
        # Read at display time: ``raise ... from exc`` sets the cause
        # after __init__ has run.
        cause = self.__cause__
        text = super().__str__()
        if cause is None:
            return text
        return f"{text}: {type(cause).__name__}: {cause}"


# --------------------------------------------------------------------------
# Collector errors
# --------------------------------------------------------------------------


class CollectError(ReproError):
    """Base class for resilient-collector failures."""


class CheckpointError(CollectError):
    """A collector checkpoint file is missing fields, corrupt, or does not
    match the store it claims to describe."""


# --------------------------------------------------------------------------
# Static-analysis (reprolint) errors
# --------------------------------------------------------------------------


class LintError(ReproError):
    """The linter itself failed: unreadable file, syntax error, bad config.

    Distinct from *findings* — a finding is a successful lint result and
    maps to exit code 1; a :class:`LintError` is an internal error and
    maps to exit code 2 (the CLI-wide convention).
    """


# --------------------------------------------------------------------------
# Analysis errors
# --------------------------------------------------------------------------


class AnalysisError(ReproError):
    """Base class for analysis-layer failures."""


class InsufficientDataError(AnalysisError):
    """An analysis needs more observations than the input provides."""

    def __init__(self, needed: int, got: int, what: str = "observations") -> None:
        super().__init__(f"need at least {needed} {what}, got {got}")
        self.needed = needed
        self.got = got
