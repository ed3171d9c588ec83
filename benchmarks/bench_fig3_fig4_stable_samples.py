"""Figures 3-4 / Observation 2: who the stable samples are.

Paper: 66.36 % of stable samples hold AV-Rank 0 (benign), over 80 % stay
at or below 5; half of stable samples span at most 17 days, and benign
samples hold their rank the longest (mean 20.34 days, median 14).
"""

from __future__ import annotations

from functools import partial

from repro.analysis.dynamics import stable_sample_profile
from repro.analysis.rendering import render_fig3_fig4

from conftest import run_once, say


def test_fig3_fig4_stable_sample_profile(benchmark, bench_data):
    profile = run_once(
        benchmark, partial(stable_sample_profile, bench_data.frame)
    )
    say()
    say(render_fig3_fig4(profile))

    # Figure 3 landmarks.
    assert 0.50 < profile.rank_zero_fraction < 0.80  # paper: 66.36 %
    assert profile.rank_at_most_5_fraction > 0.78    # paper: >80 %

    # Figure 4: benign samples hold stability over the longest spans.
    benign_box = profile.span_by_rank.get(0)
    assert benign_box is not None
    nonzero_means = [box.mean for rank, box in profile.span_by_rank.items()
                     if rank != 0 and box.count >= 10]
    if nonzero_means:
        assert benign_box.mean > sum(nonzero_means) / len(nonzero_means)
