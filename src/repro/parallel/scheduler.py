"""The elastic shard scheduler: work queue, heartbeats, steal and retry.

:class:`ShardScheduler` drives one parallel run over any
:class:`~repro.parallel.executors.base.Executor`.  It submits every
shard range to the shared work queue (finer-grained than the worker
count, so idle workers pull — steal — the remaining ranges), then loops:
drain messages, reap dead workers, steal ranges whose heartbeats went
silent past the deadline, and release retries whose backoff expired.

Failure handling is bounded and accounted:

* a **crashed** worker (reaped, or an in-band ``Failed("crash")``) loses
  its range to a retry and is replaced while work remains;
* a **hung** worker trips the heartbeat deadline; its range is stolen
  (resubmitted) and its late result, if any, is deduplicated by digest;
* a **poisoned** result (payload digest mismatch) is never merged — the
  shard retries, and the honest digest the worker declared becomes the
  checkpoint the retry must reproduce;
* every retry waits out a seeded keyed backoff
  (:func:`repro.faults.plan.hashed_fraction`, so chaos runs back off
  identically run-to-run), and a range that exhausts
  ``max_attempts`` is marked dead; once everything else drains the run
  raises :class:`~repro.errors.ShardFailedError` listing *all* dead
  ranges.

Determinism: none of this machinery touches simulation state.  Shard
bytes are a pure function of ``(config, range)`` — enforced per retry by
the digest checkpoint — so whatever crashes, hangs and steals occur, the
surviving results merge to the serial store bit for bit.  Scheduling
telemetry lands in the *process-wide* registry (see
:meth:`ExecutorReport.publish`), never in the experiment's injected
registry, keeping the metric side of the equivalence gate byte-exact.

Clock discipline: the scheduler never reads the host clock itself; it
takes a :data:`~repro.parallel.heartbeat.ClockFn` (tests inject fakes)
defaulting to the sanctioned owner in :mod:`repro.parallel.heartbeat`.
"""

from __future__ import annotations

import hashlib
import pickle
from dataclasses import dataclass, field
from typing import Callable

from repro.errors import ConfigError, ShardDigestError, ShardFailedError
from repro.faults.executor import ExecutorFaultPlan
from repro.faults.plan import hashed_fraction
from repro.obs import get_registry
from repro.parallel.executors.base import (
    Claimed,
    Completed,
    Executor,
    Failed,
    Heartbeat,
    ShardTask,
)
from repro.parallel.heartbeat import ClockFn, HeartbeatMonitor, monotonic_clock
from repro.parallel.worker import ShardRun

#: Edges for the heartbeat-lag histogram (seconds behind the expected
#: beat cadence when a signal lands).
_LAG_EDGES = (0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0)


@dataclass(frozen=True)
class ExecutorPolicy:
    """Everything tunable about one elastic run."""

    #: Executor kind: one of ``auto | in-process | fork | spawn``.
    kind: str = "auto"
    #: Work-queue granularity: ranges per worker.  More ranges mean
    #: finer stealing and smaller lost work per crash, at slightly more
    #: per-range overhead.
    fanout: int = 4
    #: Seconds of heartbeat silence before a running range is stolen.
    heartbeat_deadline: float = 30.0
    #: Seconds between worker heartbeats (default: a quarter of the
    #: deadline, so a steal needs ~4 consecutive missed beats).
    heartbeat_interval: float | None = None
    #: Seconds the scheduler blocks waiting for messages each tick
    #: (default: deadline/8 capped at 50ms).
    poll_interval: float | None = None
    #: Attempts per shard range before it is declared dead.
    max_attempts: int = 4
    #: Base of the exponential retry backoff (seconds).
    retry_backoff: float = 0.05
    #: Chaos plan injected into workers (None = no injected faults).
    fault_plan: ExecutorFaultPlan | None = None

    def __post_init__(self) -> None:
        if self.fanout < 1:
            raise ConfigError(f"fanout must be >= 1, got {self.fanout}")
        if self.heartbeat_deadline <= 0:
            raise ConfigError(f"heartbeat_deadline must be > 0, "
                              f"got {self.heartbeat_deadline}")
        if self.max_attempts < 1:
            raise ConfigError(f"max_attempts must be >= 1, "
                              f"got {self.max_attempts}")
        if self.retry_backoff < 0:
            raise ConfigError(f"retry_backoff must be >= 0, "
                              f"got {self.retry_backoff}")
        for name in ("heartbeat_interval", "poll_interval"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ConfigError(f"{name} must be > 0 when set, "
                                  f"got {value}")

    @property
    def effective_heartbeat_interval(self) -> float:
        if self.heartbeat_interval is not None:
            return self.heartbeat_interval
        return self.heartbeat_deadline / 4.0

    @property
    def effective_poll_interval(self) -> float:
        if self.poll_interval is not None:
            return self.poll_interval
        return min(0.05, self.heartbeat_deadline / 8.0)


@dataclass
class ExecutorReport:
    """Structured accounting of one elastic run's failure handling."""

    executor: str = ""
    workers: int = 0
    tasks: int = 0
    attempts: int = 0
    completed: int = 0
    retried: int = 0
    workers_lost: int = 0
    workers_respawned: int = 0
    ranges_stolen: int = 0
    corrupt_payloads: int = 0
    duplicate_results: int = 0
    requeued: int = 0
    heartbeats: int = 0
    dead_shards: list[str] = field(default_factory=list)
    heartbeat_lags: list[float] = field(default_factory=list, repr=False)

    @property
    def clean(self) -> bool:
        """Whether the run saw no failure handling at all."""
        return (self.retried == 0 and self.workers_lost == 0
                and self.ranges_stolen == 0 and self.corrupt_payloads == 0
                and not self.dead_shards)

    def publish(self, registry=None) -> None:
        """Record the run's scheduling telemetry.

        Publishes into the *process-wide* registry by default — not the
        experiment's injected registry — for the same reason
        ``store.merge.seconds`` does: retries, steals and heartbeat lag
        describe this host's scheduling luck, not the experiment, and
        the experiment's exported metrics must stay byte-identical
        between a chaos-battered parallel run and a serial one.
        """
        if registry is None:
            registry = get_registry()
        labels = {"executor": self.executor or "unknown"}
        registry.counter("parallel.tasks.total", **labels).inc(self.tasks)
        registry.counter("parallel.shards.retried", **labels).inc(
            self.retried)
        registry.counter("parallel.workers.lost", **labels).inc(
            self.workers_lost)
        registry.counter("parallel.workers.respawned", **labels).inc(
            self.workers_respawned)
        registry.counter("parallel.ranges.stolen", **labels).inc(
            self.ranges_stolen)
        registry.counter("parallel.shards.corrupt", **labels).inc(
            self.corrupt_payloads)
        registry.counter("parallel.shards.duplicate", **labels).inc(
            self.duplicate_results)
        registry.counter("parallel.heartbeats.total", **labels).inc(
            self.heartbeats)
        lag = registry.histogram("parallel.heartbeat.lag.seconds",
                                 edges=_LAG_EDGES, **labels)
        for value in self.heartbeat_lags:
            lag.observe(value)


# Task lifecycle states.
_QUEUED = "queued"
_RUNNING = "running"
_WAIT_RETRY = "wait-retry"
_DONE = "done"
_DEAD = "dead"


@dataclass
class _TaskState:
    task: ShardTask
    state: str = _QUEUED
    worker_id: int | None = None
    queued_at: float = 0.0
    ready_at: float = 0.0
    #: sha256 checkpoint every attempt's payload must reproduce.
    expected_digest: str | None = None


class ShardScheduler:
    """Drive one set of shard tasks to completion over an executor."""

    #: Multiple of the heartbeat deadline after which a queued-but-never-
    #: claimed task is defensively resubmitted (covers a task message
    #: lost with a worker that died between queue get and Claimed).
    REQUEUE_AFTER_DEADLINES = 2.0

    def __init__(
        self,
        executor: Executor,
        policy: ExecutorPolicy,
        tasks: list[ShardTask],
        on_result: Callable[[ShardRun], None],
        clock: ClockFn | None = None,
    ) -> None:
        self._executor = executor
        self._policy = policy
        self._on_result = on_result
        self._clock: ClockFn = clock if clock is not None else monotonic_clock
        self._states: dict[str, _TaskState] = {
            task.key: _TaskState(task=task) for task in tasks
        }
        if len(self._states) != len(tasks):
            raise ConfigError("shard task keys must be unique")
        self._monitor = HeartbeatMonitor(policy.heartbeat_deadline)
        #: worker_id -> shard key it is believed to be running.
        self._assignments: dict[int, str] = {}
        #: Workers that tripped a deadline and have not signalled since.
        self._suspect: set[int] = set()
        self.report = ExecutorReport(executor=executor.kind,
                                     tasks=len(tasks))

    # ------------------------------------------------------------------
    # Public entry point
    # ------------------------------------------------------------------

    def run(self, workers: int) -> ExecutorReport:
        """Execute all tasks; returns the report or raises
        :class:`~repro.errors.ShardFailedError` once everything that can
        finish has finished."""
        policy = self._policy
        self.report.workers = workers
        now = self._clock()
        for state in self._states.values():
            self._submit(state, now)
        try:
            self._executor.start(workers)
            while self._pending():
                for message in self._executor.poll(
                        policy.effective_poll_interval):
                    self._dispatch(message)
                now = self._clock()
                self._check_dead(now)
                self._check_overdue(now)
                self._release_retries(now)
                self._requeue_unclaimed(now)
        finally:
            self._executor.shutdown()
        if self.report.dead_shards:
            raise ShardFailedError(self.report.dead_shards, self.report)
        return self.report

    # ------------------------------------------------------------------
    # Submission and retry
    # ------------------------------------------------------------------

    def _pending(self) -> bool:
        return any(s.state in (_QUEUED, _RUNNING, _WAIT_RETRY)
                   for s in self._states.values())

    def _submit(self, state: _TaskState, now: float) -> None:
        state.state = _QUEUED
        state.worker_id = None
        state.queued_at = now
        self.report.attempts += 1
        self._executor.submit(state.task)

    def _schedule_retry(self, state: _TaskState, now: float) -> None:
        """Queue the next attempt of a failed range, or declare it dead."""
        if state.state in (_DONE, _DEAD):
            return
        next_attempt = state.task.attempt + 1
        if next_attempt >= self._policy.max_attempts:
            state.state = _DEAD
            self.report.dead_shards.append(state.task.key)
            self.report.dead_shards.sort()
            return
        state.task = state.task.retry()
        state.state = _WAIT_RETRY
        state.worker_id = None
        self.report.retried += 1
        # Seeded keyed jitter: deterministic per (seed, key, attempt), so
        # a chaos replay backs off identically.
        jitter = 0.5 + hashed_fraction(state.task.config.seed, "backoff",
                                       state.task.key, next_attempt)
        state.ready_at = now + (self._policy.retry_backoff
                                * (2 ** (next_attempt - 1)) * jitter)

    def _release_retries(self, now: float) -> None:
        for state in self._states.values():
            if state.state == _WAIT_RETRY and state.ready_at <= now:
                self._submit(state, now)

    def _requeue_unclaimed(self, now: float) -> None:
        horizon = (self._policy.heartbeat_deadline
                   * self.REQUEUE_AFTER_DEADLINES)
        for state in self._states.values():
            if state.state == _QUEUED and now - state.queued_at > horizon:
                # The submission vanished (typically consumed by a worker
                # that died before its Claimed flushed).  Retry — through
                # the bounded path, so a task whose every claim dies
                # still terminates at max_attempts rather than being
                # requeued forever; duplicates dedupe by digest.
                self.report.requeued += 1
                self._schedule_retry(state, now)

    # ------------------------------------------------------------------
    # Liveness
    # ------------------------------------------------------------------

    def _check_dead(self, now: float) -> None:
        for worker_id, _exitcode in self._executor.reap():
            self.report.workers_lost += 1
            self._suspect.discard(worker_id)
            key = self._assignments.pop(worker_id, None)
            if key is not None:
                self._monitor.forget(key)
                self._schedule_retry(self._states[key], now)
            if self._pending():
                self._executor.spawn_worker()
                self.report.workers_respawned += 1

    def _check_overdue(self, now: float) -> None:
        for key in self._monitor.overdue(now):
            state = self._states[key]
            if state.state != _RUNNING:
                self._monitor.forget(key)
                continue
            # Steal: the worker may be hung (or just slow); resubmit the
            # range and let digest-dedup discard whichever result loses.
            self.report.ranges_stolen += 1
            self._monitor.forget(key)
            if state.worker_id is not None:
                self._suspect.add(state.worker_id)
                self._assignments.pop(state.worker_id, None)
            self._schedule_retry(state, now)
            live = self._executor.live_workers()
            if live and all(w in self._suspect for w in live):
                self._executor.spawn_worker()
                self.report.workers_respawned += 1

    # ------------------------------------------------------------------
    # Message dispatch
    # ------------------------------------------------------------------

    def _dispatch(self, message) -> None:
        self._suspect.discard(getattr(message, "worker_id", -1))
        if isinstance(message, Claimed):
            self._on_claimed(message)
        elif isinstance(message, Heartbeat):
            self._on_heartbeat(message)
        elif isinstance(message, Completed):
            self._on_completed(message)
        elif isinstance(message, Failed):
            self._on_failed(message)

    def _on_claimed(self, msg: Claimed) -> None:
        state = self._states.get(msg.key)
        if state is None or state.state not in (_QUEUED, _WAIT_RETRY):
            return  # stale claim from a superseded submission
        now = self._clock()
        state.state = _RUNNING
        state.worker_id = msg.worker_id
        self._assignments[msg.worker_id] = msg.key
        self._monitor.track(msg.key, now)

    def _on_heartbeat(self, msg: Heartbeat) -> None:
        self.report.heartbeats += 1
        lag = self._monitor.signal(msg.key, self._clock())
        if lag is not None:
            self.report.heartbeat_lags.append(lag)

    def _on_failed(self, msg: Failed) -> None:
        state = self._states.get(msg.key)
        self._monitor.forget(msg.key)
        self._assignments.pop(msg.worker_id, None)
        if state is None or state.state == _DONE:
            return
        if msg.kind == "crash":
            # In-band translation of a process crash (in-process
            # executors cannot die for real).
            self.report.workers_lost += 1
        elif msg.kind == "hang":
            self.report.ranges_stolen += 1
        self._schedule_retry(state, self._clock())

    def _on_completed(self, msg: Completed) -> None:
        state = self._states.get(msg.key)
        if state is None:
            return
        self._monitor.forget(msg.key)
        if self._assignments.get(msg.worker_id) == msg.key:
            del self._assignments[msg.worker_id]
        actual = hashlib.sha256(msg.payload).hexdigest()

        if state.state == _DONE:
            # Late duplicate (typically a stolen range's original worker
            # waking up): verify it reproduced the accepted bytes.
            self.report.duplicate_results += 1
            if actual == msg.digest and actual != state.expected_digest:
                raise ShardDigestError(msg.key, state.expected_digest,
                                       actual)
            return

        if actual != msg.digest:
            # Poisoned payload: never merged.  The declared digest was
            # computed over the honest bytes, so checkpoint it — the
            # retry must reproduce exactly those bytes.
            self.report.corrupt_payloads += 1
            if state.expected_digest is None:
                state.expected_digest = msg.digest
            self._schedule_retry(state, self._clock())
            return

        if state.expected_digest is not None \
                and actual != state.expected_digest:
            raise ShardDigestError(msg.key, state.expected_digest, actual)

        state.expected_digest = actual
        state.state = _DONE
        if state.task.key in self.report.dead_shards:
            # A late honest result can still rescue a range that
            # exhausted its retries.
            self.report.dead_shards.remove(state.task.key)
        self.report.completed += 1
        run: ShardRun = pickle.loads(msg.payload)
        self._on_result(run)
