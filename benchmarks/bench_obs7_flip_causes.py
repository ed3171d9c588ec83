"""§5.5 / Observation 7: causes of label dynamics.

Paper: engine updates co-occur with ~60 % of verdict flips (cause ii);
the rest arrive through cloud/latency channels with no visible version
change (cause i); engine activity (timeouts) shifts AV-Rank without any
verdict flip (cause iii).
"""

from __future__ import annotations

from functools import partial

from repro.analysis.engines import dataset_s_frame
from repro.core.causes import attribute_causes

from conftest import run_once, say


def test_obs7_flip_causes(benchmark, bench_data):
    dataset_s = [(sha, bench_data.store.report_series(sha))
                 for sha in dataset_s_frame(bench_data.frame).sha256]
    breakdown = run_once(benchmark, partial(attribute_causes, dataset_s))
    say()
    say("Observation 7: flip-cause attribution over dataset S")
    say(f"  adjacent scan pairs : {breakdown.total_pairs:,} "
          f"({breakdown.changed_pairs:,} with AV-Rank change)")
    say(f"  update flips        : {breakdown.update_flips:,}")
    say(f"  latency/cloud flips : {breakdown.latency_flips:,}")
    say(f"  activity events     : {breakdown.activity_events:,}")
    say(f"  update share of flips: {breakdown.update_share:.1%} "
          "(paper: ~60%)")

    # All three causes present.
    assert breakdown.update_flips > 0
    assert breakdown.latency_flips > 0
    assert breakdown.activity_events > 0
    # Engine updates behind the majority-but-not-all of flips.
    assert 0.40 < breakdown.update_share < 0.85
