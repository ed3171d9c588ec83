"""Deterministic fault injection for the collection and execution layers.

The paper's dataset exists because a collector survived 14 months of
polling a live feed; this package makes that failure surface *testable*.
A :class:`~repro.faults.plan.FaultPlan` describes, with a seed, every
delivery fault a run may see — outage windows, transient errors,
duplicated or corrupted deliveries, store write failures — and the chaos
wrappers in :mod:`repro.faults.chaos` inject exactly those faults around
the real feed/store/client objects.  :mod:`repro.collect` is the
consumer that must come through unscathed.

:class:`~repro.faults.executor.ExecutorFaultPlan` extends the same
discipline to the elastic executor's failure surface — worker crashes,
hangs past the heartbeat deadline, corrupted shard payloads — keyed by
``(seed, shard key, attempt)`` so parallel chaos runs are equally
bit-reproducible.  :mod:`repro.parallel` is that consumer.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "chaos": ("ChaosClient", "ChaosFeed", "ChaosStore", "chaos_wrap"),
    "injectors": ("corrupt_payload", "corrupt_report"),
    "executor": ("ExecutorFaultPlan", "standard_executor_chaos_plan"),
    "plan": (
        "FaultPlan", "OutageWindow", "hashed_chance", "hashed_fraction",
        "standard_chaos_plan",
    ),
})
