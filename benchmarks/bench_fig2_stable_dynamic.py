"""Figure 2 / Observation 1: the stable/dynamic 50-50 split.

Paper: of 63,999,984 multi-report samples, 49.90 % are stable (constant
AV-Rank) and 50.10 % dynamic; the report-count distributions of the two
classes nearly coincide (67.09 % vs 71.3 % with exactly two reports), so
the split is not an artefact of scan-count imbalance.
"""

from __future__ import annotations

from functools import partial

from repro.analysis.dynamics import stable_dynamic_split
from repro.analysis.rendering import render_fig2

from conftest import run_once, say


def test_fig2_stable_dynamic_split(benchmark, bench_data):
    split = run_once(
        benchmark, partial(stable_dynamic_split, bench_data.frame)
    )
    say()
    say(render_fig2(split))

    # Roughly even split (paper: 50.10 % dynamic).
    assert 0.38 < split.dynamic_fraction < 0.62
    # Report-count distributions of the two classes track each other.
    gap = abs(split.stable_two_report_fraction
              - split.dynamic_two_report_fraction)
    assert gap < 0.30
    # Both classes dominated by two-report samples.
    assert split.stable_two_report_fraction > 0.5
    assert split.dynamic_two_report_fraction > 0.4
