"""Deterministic sharded parallel execution of scenario experiments.

The serial experiment loop simulates every scan on one core.  This
package partitions a scenario's sample population into contiguous index
ranges — finer-grained than the worker count — and runs them on a local
process pool, merging the frozen shard stores back into one
**bit-identically** to the serial run:

* every sample's randomness is keyed by its global index and hash, so a
  shard's reports do not depend on the partition, on scheduling, or on
  which worker ran it (:mod:`repro.parallel.sharding`);
* each worker replays its shard's events in global time order, so
  per-sample RNG streams advance exactly as serially
  (:mod:`repro.parallel.worker`);
* one :class:`concurrent.futures.ProcessPoolExecutor` runs the ranges,
  forked where the platform can and spawned otherwise; a dead worker's
  unfinished ranges go to a fresh pool, and a range that raises fails
  the run with the worker's exception (:mod:`repro.parallel.scheduler`);
* completed shards queue for the merge as they finish; the merge sorts
  each month's records by ``(scan_time, global_sample_index)`` — the
  serial ingest order — and re-blocks them exactly as serial ingest
  does (:mod:`repro.store.merge`).

The equivalence contract: ``run_experiment(config, workers=K)`` yields a
store whose :meth:`~repro.store.reportstore.ReportStore.digest` equals
the serial run's, for every K and start method, and after any worker
deaths the pool budget survives.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "runner": ("fork_available",),
    "scheduler": ("ExecutorReport", "ShardScheduler"),
    "sharding": ("ShardSpec", "partition_samples", "resolve_workers"),
    "worker": ("RangeRun", "ShardRun", "execute_range", "run_shard"),
})
