"""The worker pool: shard ranges over local processes, results as they land.

:class:`ShardScheduler` submits every shard range to one
:class:`concurrent.futures.ProcessPoolExecutor` and hands each
:class:`~repro.parallel.worker.ShardRun` to the caller's callback as it
arrives.  This module is the package's only constructor of worker
processes (reprolint RPL007 carves out exactly this file).

* A range that **raises** fails the run at once with
  :class:`~repro.errors.ShardFailedError`, chained to the worker's
  exception; it is not retried, because a shard's bytes are a pure
  function of ``(config, range)`` and would raise again.
* A worker that **dies** breaks its pool, which fails every pending
  future; the ranges without a result go to a fresh pool, at most
  :data:`MAX_POOLS` pools in all, after which
  :class:`~repro.errors.ShardFailedError` names every unfinished range.
* A worker that **hangs** hangs the run, as a hung serial run would.
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Callable

from repro.errors import ShardFailedError
from repro.obs import get_registry
from repro.parallel.worker import ShardRun, _run_shard_task

#: Pools one run may start: the first, plus one per worker death.
MAX_POOLS = 4


@dataclass
class ExecutorReport:
    """Accounting of one parallel run's pool."""

    #: Start method of the worker processes (``fork`` or ``spawn``).
    executor: str
    tasks: int = 0
    #: Ranges resubmitted to a fresh pool after a worker died.
    retried: int = 0
    #: Pools broken by a worker process that died.
    workers_lost: int = 0

    def publish(self, registry=None) -> None:
        """Record the pool accounting in the *process-wide* registry by
        default: like ``store.merge.seconds`` it describes this host's
        luck, not the experiment, whose exported metrics must stay
        byte-identical between a parallel run and a serial one."""
        if registry is None:
            registry = get_registry()
        labels = {"executor": self.executor}
        registry.counter("parallel.tasks.total", **labels).inc(self.tasks)
        registry.counter("parallel.shards.retried", **labels).inc(
            self.retried)
        registry.counter("parallel.workers.lost", **labels).inc(
            self.workers_lost)


class ShardScheduler:
    """Run keyed shard tasks on a process pool, handing each result on.

    ``tasks`` maps a range key to the argument tuple of
    :func:`~repro.parallel.worker._run_shard_task`; ``method`` is the
    multiprocessing start method.
    """

    def __init__(self, method: str, tasks: dict[str, tuple],
                 on_result: Callable[[ShardRun], None]) -> None:
        self._context = multiprocessing.get_context(method)
        self._tasks = tasks
        self._on_result = on_result
        self.report = ExecutorReport(executor=method, tasks=len(tasks))

    def run(self, workers: int) -> ExecutorReport:
        """Run every task; returns the report or raises
        :class:`~repro.errors.ShardFailedError`."""
        pending = dict(self._tasks)
        for pools in range(MAX_POOLS):
            if pools:
                self.report.retried += len(pending)
            if self._run_pool(pending, min(workers, len(pending))):
                return self.report
            self.report.workers_lost += 1
        raise ShardFailedError(pending, self.report)

    def _run_pool(self, pending: dict[str, tuple], workers: int) -> bool:
        """Run ``pending`` on one fresh pool, deleting each task whose
        result arrives; returns False when a worker process died."""
        pool = ProcessPoolExecutor(workers, mp_context=self._context)
        try:
            futures = {pool.submit(_run_shard_task, args): key
                       for key, args in pending.items()}
            for future in as_completed(futures):
                error = future.exception()
                if isinstance(error, BrokenProcessPool):
                    return False
                if error is not None:
                    raise ShardFailedError([futures[future]],
                                           self.report) from error
                del pending[futures[future]]
                self._on_result(future.result())
        except BrokenProcessPool:  # a worker died during the submits
            return False
        finally:
            pool.shutdown(cancel_futures=True)
        return True
