"""Deterministic fault plans.

A :class:`FaultPlan` is a *seeded, stateless* description of every fault
the chaos layer may inject: feed outage windows, transient HTTP-style
failures, dropped/duplicated/corrupted report deliveries, and store
write failures.  Every decision is a pure function of ``(seed, key)`` —
computed by hashing, never by consuming a shared RNG stream — so a run
that crashes and resumes sees exactly the faults a straight run would
have seen, and two runs with the same plan are bit-identical.  That is
the property the chaos acceptance test leans on: the faulty run must be
*reproducibly* faulty.

Per-call fault decisions are additionally capped by
``max_consecutive_failures``: the N-th retry of the same operation never
fails, so a collector with a deeper retry budget always makes progress.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

from repro.errors import ConfigError
from repro.vt.clock import MINUTES_PER_DAY


def hashed_fraction(seed: int, *key: object) -> float:
    """A deterministic uniform draw in ``[0, 1)`` keyed on ``(seed, key)``.

    The one keyed draw of the fault layer: every delivery-fault decision
    uses it.  sha256 keeps
    the draws of related keys independent — a retry's draw
    (``attempt=1``) says nothing about the first attempt's, and two
    fault kinds on one delivery co-occur at the product of their
    rates — which a linear hash such as crc32 does not.  A draw costs
    about twice a crc32 one, and only a rate above zero pays it.
    """
    token = f"{seed}|" + "|".join(str(k) for k in key)
    digest = hashlib.sha256(token.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / float(2 ** 64)


def hashed_chance(seed: int, rate: float, *key: object) -> bool:
    """A deterministic Bernoulli draw keyed on ``(seed, key)``."""
    if rate <= 0.0:
        return False
    return hashed_fraction(seed, *key) < rate


@dataclass(frozen=True)
class OutageWindow:
    """A half-open minute interval ``[start, end)`` during which the feed
    listener is effectively detached: reports of those minutes are lost
    from the delivery path (the archive still retains them)."""

    start: int
    end: int

    def __post_init__(self) -> None:
        if self.start < 0 or self.end <= self.start:
            raise ConfigError(
                f"outage window must satisfy 0 <= start < end, "
                f"got [{self.start}, {self.end})"
            )

    def __contains__(self, minute: int) -> bool:
        return self.start <= minute < self.end

    @property
    def minutes(self) -> int:
        return self.end - self.start


@dataclass(frozen=True)
class FaultPlan:
    """Everything the chaos layer may do to one collection run."""

    seed: int = 0
    #: Feed outage windows (non-overlapping, sorted by start).
    outages: tuple[OutageWindow, ...] = ()
    #: Per-attempt probability that a feed poll or backfill/report API
    #: call fails with a retryable :class:`~repro.errors.TransientError`.
    transient_rate: float = 0.0
    #: Per-report probability the feed silently drops a delivery.
    drop_rate: float = 0.0
    #: Per-report probability the feed delivers a report twice.
    duplicate_rate: float = 0.0
    #: Per-report probability the delivered payload arrives corrupted
    #: (truncated or bit-damaged wire bytes).
    corrupt_rate: float = 0.0
    #: Per-attempt probability a store write raises a transient failure.
    store_failure_rate: float = 0.0
    #: Retries of the same operation beyond this attempt index always
    #: succeed, guaranteeing progress under any retry budget deeper than
    #: this.
    max_consecutive_failures: int = 2

    def __post_init__(self) -> None:
        for name in ("transient_rate", "drop_rate", "duplicate_rate",
                     "corrupt_rate", "store_failure_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigError(f"{name} must be in [0,1], got {value}")
        if self.max_consecutive_failures < 1:
            raise ConfigError("max_consecutive_failures must be >= 1")
        ordered = sorted(self.outages, key=lambda w: w.start)
        for a, b in zip(ordered, ordered[1:], strict=False):
            if b.start < a.end:
                raise ConfigError(
                    f"outage windows overlap: [{a.start},{a.end}) and "
                    f"[{b.start},{b.end})"
                )
        object.__setattr__(self, "outages", tuple(ordered))

    # ------------------------------------------------------------------
    # Keyed decisions
    # ------------------------------------------------------------------

    def _chance(self, rate: float, *key: object) -> bool:
        """A deterministic Bernoulli draw keyed on ``(seed, key)``."""
        return hashed_chance(self.seed, rate, *key)

    @property
    def disabled(self) -> bool:
        """Whether this plan can never inject anything."""
        return (not self.outages
                and self.transient_rate == 0.0
                and self.drop_rate == 0.0
                and self.duplicate_rate == 0.0
                and self.corrupt_rate == 0.0
                and self.store_failure_rate == 0.0)

    def in_outage(self, minute: int) -> bool:
        return any(minute in w for w in self.outages)

    def poll_fails(self, minute: int, attempt: int) -> bool:
        if attempt >= self.max_consecutive_failures:
            return False
        return self._chance(self.transient_rate, "poll", minute, attempt)

    def api_fails(self, kind: str, key: object, attempt: int) -> bool:
        """Transient failure for an API endpoint call (backfill, report)."""
        if attempt >= self.max_consecutive_failures:
            return False
        return self._chance(self.transient_rate, "api", kind, key, attempt)

    def drops(self, sha256: str, scan_time: int) -> bool:
        return self._chance(self.drop_rate, "drop", sha256, scan_time)

    def duplicates(self, sha256: str, scan_time: int) -> bool:
        return self._chance(self.duplicate_rate, "dup", sha256, scan_time)

    def corrupts(self, sha256: str, scan_time: int) -> bool:
        return self._chance(self.corrupt_rate, "corrupt", sha256, scan_time)

    def store_write_fails(self, sha256: str, scan_time: int,
                          attempt: int) -> bool:
        if attempt >= self.max_consecutive_failures:
            return False
        return self._chance(self.store_failure_rate,
                            "store", sha256, scan_time, attempt)

    def corruption_rng(self, sha256: str, scan_time: int) -> random.Random:
        """The keyed RNG that decides *how* one payload is mangled."""
        return random.Random(f"{self.seed}:mangle:{sha256}:{scan_time}")


def standard_chaos_plan(seed: int = 0) -> FaultPlan:
    """The reference chaos mix used by tests, CI smoke and the benchmark.

    One multi-day feed outage (well inside the archive's 7-day catch-up
    window), a steady trickle of transient poll/API failures, duplicated
    deliveries, corrupted payloads and store write failures.  Silent
    drops are left at zero: they are the one fault class that is
    *undetectable* by construction, so the standard plan keeps exact
    recovery possible.
    """
    return FaultPlan(
        seed=seed,
        outages=(OutageWindow(10 * MINUTES_PER_DAY, 13 * MINUTES_PER_DAY),),
        transient_rate=0.01,
        duplicate_rate=0.05,
        corrupt_rate=0.03,
        store_failure_rate=0.005,
        max_consecutive_failures=2,
    )
