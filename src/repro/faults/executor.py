"""Deterministic executor fault plans: crash, hang, corrupt-payload.

The elastic executor (:mod:`repro.parallel.scheduler`) retries shard
ranges when workers crash, hang past their heartbeat deadline, or ship a
corrupted result payload.  This module describes those faults the same
way :class:`~repro.faults.plan.FaultPlan` describes delivery faults:
every decision is a pure function of ``(seed, shard key, attempt)`` —
hashed, never drawn from a shared RNG stream — so a chaos run injects
exactly the same crashes and hangs every time, on every executor, and
the chaos acceptance gate (chaos run converges to the fault-free serial
digest) is meaningful.

Fault kinds, in the order the worker applies them:

* **crash-before-result** — the worker dies (``os._exit``) immediately
  after claiming the shard, before any compute;
* **crash-mid-shard** — the worker computes the shard, then dies before
  the result ships (from the scheduler's view: work lost mid-flight);
* **hang-past-deadline** — the worker computes the shard, then goes
  silent for ``hang_seconds`` before shipping; the scheduler's heartbeat
  deadline fires first and the range is stolen by another worker (the
  late result is digest-checked and discarded);
* **corrupt-payload** — the shipped payload bytes are mangled after the
  honest digest was computed, so the scheduler's integrity check rejects
  the result and the shard is retried, never merged.

The in-process executor cannot kill or stall its own process, so it
translates crash and hang decisions into in-band retryable failures —
the scheduler's retry/steal accounting still exercises identically.

Attempts at or beyond ``max_faulty_attempts`` never fault, mirroring
``FaultPlan.max_consecutive_failures``: any retry budget deeper than the
faulty prefix is guaranteed to make progress.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError
from repro.faults.plan import hashed_chance, hashed_fraction

_RATE_FIELDS = (
    "crash_before_result_rate",
    "crash_mid_shard_rate",
    "hang_rate",
    "corrupt_payload_rate",
)


@dataclass(frozen=True)
class ExecutorFaultPlan:
    """Everything the chaos layer may do to one parallel run's workers."""

    seed: int = 0
    #: Per-attempt probability the worker dies before computing a shard.
    crash_before_result_rate: float = 0.0
    #: Per-attempt probability the worker dies after computing the shard
    #: but before the result ships.
    crash_mid_shard_rate: float = 0.0
    #: Per-attempt probability the worker goes silent past the heartbeat
    #: deadline before shipping its (computed) result.
    hang_rate: float = 0.0
    #: How long a hanging worker stays silent.  Must exceed the
    #: scheduler's heartbeat deadline for the hang to be observable.
    hang_seconds: float = 2.0
    #: Per-attempt probability the shipped payload arrives bit-damaged.
    corrupt_payload_rate: float = 0.0
    #: Attempts at or beyond this index never fault: a retry budget
    #: deeper than this always converges.
    max_faulty_attempts: int = 1

    def __post_init__(self) -> None:
        for name in _RATE_FIELDS:
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigError(f"{name} must be in [0,1], got {value}")
        if self.hang_seconds <= 0:
            raise ConfigError(
                f"hang_seconds must be > 0, got {self.hang_seconds}")
        if self.max_faulty_attempts < 1:
            raise ConfigError("max_faulty_attempts must be >= 1")

    @property
    def disabled(self) -> bool:
        """Whether this plan can never inject anything."""
        return all(getattr(self, name) == 0.0 for name in _RATE_FIELDS)

    # ------------------------------------------------------------------
    # Keyed decisions (pure functions of (seed, shard key, attempt))
    # ------------------------------------------------------------------

    def _fires(self, rate: float, kind: str, shard_key: str,
               attempt: int) -> bool:
        if attempt >= self.max_faulty_attempts:
            return False
        return hashed_chance(self.seed, rate, "exec", kind, shard_key,
                             attempt)

    def crashes_before_result(self, shard_key: str, attempt: int) -> bool:
        return self._fires(self.crash_before_result_rate, "crash_before",
                           shard_key, attempt)

    def crashes_mid_shard(self, shard_key: str, attempt: int) -> bool:
        return self._fires(self.crash_mid_shard_rate, "crash_mid",
                           shard_key, attempt)

    def hangs(self, shard_key: str, attempt: int) -> bool:
        return self._fires(self.hang_rate, "hang", shard_key, attempt)

    def corrupts_payload(self, shard_key: str, attempt: int) -> bool:
        return self._fires(self.corrupt_payload_rate, "corrupt",
                           shard_key, attempt)

    def corrupt_payload(self, payload: bytes, shard_key: str,
                        attempt: int) -> bytes:
        """Deterministically mangle one result payload.

        Flips one keyed byte (and truncates one keyed tail byte on a
        second draw), so the damage — like the decision to damage — is a
        pure function of ``(seed, shard key, attempt)``.
        """
        if not payload:
            return payload
        offset = int(hashed_fraction(self.seed, "exec", "corrupt_at",
                                     shard_key, attempt) * len(payload))
        offset = min(offset, len(payload) - 1)
        mangled = bytearray(payload)
        mangled[offset] ^= 0xFF
        if hashed_chance(self.seed, 0.5, "exec", "corrupt_trunc",
                         shard_key, attempt):
            mangled = mangled[:-1]
        return bytes(mangled)


def standard_executor_chaos_plan(seed: int = 0,
                                 hang_seconds: float = 2.0,
                                 ) -> ExecutorFaultPlan:
    """The reference executor chaos mix used by tests, CI smoke and the
    fault benchmark.

    Every fault kind fires with a steady per-shard-attempt probability;
    only attempt 0 may fault (``max_faulty_attempts=1``), so a scheduler
    with any retry budget ≥ 2 attempts converges, and chaos wall-clock
    stays bounded by one extra attempt per shard plus one hang window.
    """
    return ExecutorFaultPlan(
        seed=seed,
        crash_before_result_rate=0.15,
        crash_mid_shard_rate=0.10,
        hang_rate=0.10,
        hang_seconds=hang_seconds,
        corrupt_payload_rate=0.10,
        max_faulty_attempts=1,
    )
