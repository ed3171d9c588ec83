"""The chaos acceptance test: faults in, exact dataset out.

A seeded fault plan throws a multi-day feed outage, transient failures,
duplicated deliveries, corrupted payloads and store write failures at the
collector — and the final store must match the fault-free run *exactly*:
same report count, same per-sample scan series, with every corrupt
delivery accounted for in the dead-letter queue.  The same must hold when
the chaos run is killed partway and resumed from its checkpoint.
"""

import pytest

from repro.collect import auto_resume_minute, run_collection
from repro.faults import FaultPlan, OutageWindow
from repro.vt.clock import MINUTES_PER_DAY

#: Simulation horizon: long enough for rescans and a mid-run outage,
#: short enough to keep the suite fast.
UNTIL = 45 * MINUTES_PER_DAY

#: A hot fault plan: every fault class fires at test scale.
PLAN = FaultPlan(
    seed=7,
    outages=(OutageWindow(10 * MINUTES_PER_DAY, 13 * MINUTES_PER_DAY),),
    transient_rate=0.01,
    duplicate_rate=0.2,
    corrupt_rate=0.25,
    store_failure_rate=0.02,
)


def _series(store):
    return {sha: tuple((r.scan_time, r.positives, r.labels) for r in reports)
            for sha, reports in store.iter_sample_reports()}


@pytest.fixture(scope="module")
def clean(chaos_config):
    return run_collection(chaos_config, until_minute=UNTIL)


@pytest.fixture(scope="module")
def chaos(chaos_config):
    return run_collection(chaos_config, plan=PLAN, until_minute=UNTIL)


class TestCleanBaseline:
    def test_collects_everything_the_service_emitted(self, clean):
        assert clean.store.report_count > 50
        stats = clean.stats
        assert stats.reports_ingested == clean.store.report_count
        assert stats.transient_errors == 0
        assert stats.dead_letters == 0
        assert stats.pending_gap_minutes == 0

    def test_matches_direct_feed_drain(self, clean, chaos_config):
        # The resilient pipeline is a superset of the plain experiment
        # loop; with no faults their datasets must coincide.
        from repro.analysis.experiment import run_experiment

        data = run_experiment(chaos_config)
        full = _series(data.store)
        truncated = {}
        for sha, series in full.items():
            prefix = tuple(p for p in series if p[0] < UNTIL)
            if prefix:
                truncated[sha] = prefix
        assert _series(clean.store) == truncated


class TestChaosRun:
    def test_every_fault_class_fired(self, chaos):
        feed = chaos.chaos_feed
        assert feed.reports_duplicated > 0
        assert feed.reports_corrupted > 0
        assert feed.reports_lost_to_outage > 0
        assert feed.transient_failures > 0
        assert chaos.stats.outage_minutes == 3 * MINUTES_PER_DAY

    def test_final_store_matches_fault_free_run(self, clean, chaos):
        assert chaos.store.report_count == clean.store.report_count
        assert _series(chaos.store) == _series(clean.store)

    def test_corrupt_deliveries_accounted_in_dead_letters(self, chaos):
        stats = chaos.stats
        assert stats.dead_letters == chaos.chaos_feed.reports_corrupted
        assert len(chaos.collector.deadletters) == stats.dead_letters

    def test_duplicates_were_skipped_not_stored(self, chaos):
        assert chaos.stats.duplicates_skipped >= chaos.chaos_feed.reports_duplicated

    def test_no_unrecovered_gaps(self, chaos):
        assert chaos.stats.pending_gap_minutes == 0

    def test_chaos_is_deterministic(self, chaos, chaos_config):
        again = run_collection(chaos_config, plan=PLAN, until_minute=UNTIL)
        assert _series(again.store) == _series(chaos.store)
        first, second = chaos.chaos_feed, again.chaos_feed
        assert first.reports_corrupted == second.reports_corrupted
        assert first.reports_duplicated == second.reports_duplicated
        assert first.transient_failures == second.transient_failures


class TestCrashResume:
    def test_crash_then_resume_converges_exactly(self, clean, chaos_config,
                                                 tmp_path):
        # Crash mid-run, off the checkpoint cadence, inside nothing
        # special — then resume strictly *after* the crash point so the
        # collector must detect the jump gap and backfill it.
        crash_at = 20 * MINUTES_PER_DAY + 700
        crashed = run_collection(chaos_config, plan=PLAN, out_dir=tmp_path,
                                 stop_at=crash_at, until_minute=UNTIL)
        assert crashed.crashed
        assert crashed.stats.checkpoint_saves > 0
        # The service stopped where the crash did: it scanned every
        # scan up to the crash minute and none after.
        assert crashed.service.reports_generated == sum(
            report.scan_time <= crash_at
            for report in clean.store.iter_reports())

        resume_at = auto_resume_minute(tmp_path)
        assert resume_at <= crash_at + 1
        resumed = run_collection(chaos_config, plan=PLAN, out_dir=tmp_path,
                                 resume_from=crash_at + 1, until_minute=UNTIL)
        stats = resumed.stats
        assert stats.resumes == 1
        assert not resumed.crashed
        assert stats.pending_gap_minutes == 0
        assert resumed.store.report_count == clean.store.report_count
        assert _series(resumed.store) == _series(clean.store)

    def test_resume_without_checkpoint_raises(self, chaos_config, tmp_path):
        from repro.errors import CheckpointError

        with pytest.raises(CheckpointError):
            run_collection(chaos_config, out_dir=tmp_path, resume_from=100,
                           until_minute=UNTIL)


class TestLossAccounting:
    def test_silent_drops_are_exactly_counted(self, clean, chaos_config):
        # Drops are unrecoverable by design; the chaos layer's counter
        # must reconcile the loss to the report.
        dropped = run_collection(chaos_config,
                                 plan=FaultPlan(seed=11, drop_rate=0.3),
                                 until_minute=UNTIL)
        lost = clean.store.report_count - dropped.store.report_count
        assert lost == dropped.chaos_feed.reports_dropped
        assert lost > 0


class TestExpiredGapRecovery:
    def test_recover_latest_pinned(self):
        # A 15-day outage against a one-day archive: most lost minutes
        # have aged out by the time the feed is back, so the collector
        # recovers what it can through the latest-report endpoint, which
        # must answer as of the collector's clock.
        from repro.synth.scenario import dynamics_scenario

        day = MINUTES_PER_DAY
        result = run_collection(
            dynamics_scenario(n_samples=300, seed=3),
            plan=FaultPlan(seed=7, outages=(OutageWindow(60 * day, 75 * day),)),
            until_minute=80 * day,
            archive_retention=day,
        )
        stats = result.stats
        assert stats.minutes_expired == 19_558
        assert stats.report_fallback_calls == 38
        assert stats.reports_recovered_latest == 10
        assert stats.pending_gap_minutes == 0
        assert result.store.report_count == 100
        assert result.store.digest().startswith("aee1c7e7f5e4")
