"""Deterministic sharded parallel execution of scenario experiments.

The serial experiment loop simulates every scan on one core.  This
package partitions a scenario's sample population into contiguous index
ranges — finer-grained than the worker count — and drives them through a
fault-tolerant elastic executor, merging the frozen shard stores back
into one **bit-identically** to the serial run:

* every sample's randomness is keyed by its global index and hash, so a
  shard's reports do not depend on the partition, on scheduling, or on
  which worker ran it (:mod:`repro.parallel.sharding`);
* each worker replays its shard's events in global time order, so
  per-sample RNG streams advance exactly as serially
  (:mod:`repro.parallel.worker`);
* workers live behind a pluggable :class:`~repro.parallel.executors.base.Executor`
  (in-process | fork | spawn) and a work-queue scheduler with
  heartbeats, work-stealing, bounded keyed-backoff retries and
  per-shard digest checkpoints (:mod:`repro.parallel.executors`,
  :mod:`repro.parallel.scheduler`, :mod:`repro.parallel.heartbeat`);
* completed shards queue for the merge as they finish; the merge sorts
  each month's records by ``(scan_time, global_sample_index)`` — the
  serial ingest order — and re-blocks them exactly as serial ingest
  does (:mod:`repro.store.merge`).

The equivalence contract: ``run_experiment(config, workers=K)`` yields a
store whose :meth:`~repro.store.reportstore.ReportStore.digest` equals
the serial run's, for every K, every executor kind — and under any
injected crash/hang/corruption chaos the retry budget survives.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "executors": ("EXECUTOR_KINDS", "make_executor", "resolve_kind"),
    "executors.pool": ("fork_available",),
    "scheduler": ("ExecutorPolicy", "ExecutorReport", "ShardScheduler"),
    "sharding": ("ShardSpec", "partition_samples", "resolve_workers"),
    "worker": ("RangeRun", "ShardRun", "execute_range", "run_shard"),
})
