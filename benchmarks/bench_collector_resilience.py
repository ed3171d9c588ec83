"""Collector resilience: overhead when healthy, exactness under chaos.

Two claims are measured:

1. **The disabled fault layer costs nothing.**  ``chaos_wrap`` with no
   plan (or a plan that can never fire) returns the *original* feed,
   store and client objects — structurally zero indirection — and the
   wall-clock of a collection run with an explicitly disabled plan
   matches the no-plan run.
2. **Chaos costs bounded overhead and loses nothing.**  Under the
   standard fault plan (multi-day outage, transients, duplicates,
   corruption, store write failures) the collector's recovery machinery
   reproduces the fault-free dataset exactly.
"""

from __future__ import annotations

import time

from repro.collect import run_collection
from repro.faults import FaultPlan, chaos_wrap, standard_chaos_plan
from repro.store.reportstore import ReportStore
from repro.synth.scenario import tiny_scenario
from repro.vt.clock import MINUTES_PER_DAY
from repro.vt.feed import PremiumFeed

from conftest import run_once, say

UNTIL = 45 * MINUTES_PER_DAY
SAMPLES = 600


def _collect(plan=None):
    return run_collection(tiny_scenario(n_samples=SAMPLES, seed=3),
                          plan=plan, until_minute=UNTIL)


def _best_of(fn, repeats=3):
    best, result = float("inf"), None
    for _ in range(repeats):
        started = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - started)
    return best, result


def _series(store):
    return {sha: tuple((r.scan_time, r.positives) for r in reports)
            for sha, reports in store.iter_sample_reports()}


def test_collector_resilience(benchmark):
    # Structural zero-overhead: disabled wrapping is the identity.
    feed, store = PremiumFeed(), ReportStore()
    assert chaos_wrap(feed, store, None, None) == (feed, store, None)
    assert chaos_wrap(feed, store, None, FaultPlan()) == (feed, store, None)

    t_clean, clean = _best_of(lambda: _collect(None))
    t_disabled, disabled = _best_of(lambda: _collect(FaultPlan()))
    assert disabled.chaos_feed is None  # ran on the raw objects

    plan = standard_chaos_plan(seed=1)
    t_chaos, chaos = _best_of(lambda: _collect(plan), repeats=1)
    run_once(benchmark, lambda: _collect(plan))

    # The headline: chaos in, exact dataset out.
    assert chaos.store.report_count == clean.store.report_count
    assert _series(chaos.store) == _series(clean.store)
    assert chaos.stats.pending_gap_minutes == 0

    minutes = clean.stats.minutes_processed
    ratio = t_disabled / t_clean
    say()
    say(f"Collector resilience ({SAMPLES} samples, "
        f"{minutes:,} simulated minutes)")
    say(f"  no fault plan        : {t_clean:6.2f}s "
        f"({t_clean / minutes * 1e6:6.2f} us/minute)")
    say(f"  disabled fault plan  : {t_disabled:6.2f}s "
        f"({ratio:4.2f}x of no-plan — wrapping bypassed)")
    say(f"  standard chaos plan  : {t_chaos:6.2f}s "
        f"({t_chaos / t_clean:4.2f}x; outage {chaos.stats.outage_minutes:,} min, "
        f"{chaos.stats.transient_errors} transients, "
        f"{chaos.stats.minutes_backfilled:,} minutes backfilled, "
        f"{chaos.stats.dead_letters} dead letters)")
    say(f"  chaos dataset == fault-free dataset: "
        f"{chaos.store.report_count:,} reports, series exact")

    # Timing guard, deliberately loose (CI runners are noisy): the real
    # zero-overhead guarantee is the identity assertions above.
    assert ratio < 1.5
