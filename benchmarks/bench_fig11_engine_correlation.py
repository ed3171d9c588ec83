"""Figure 11 / §7.2.1 / Observation 11: overall engine correlation.

Paper: 17 engines participate in strong (rho > 0.8) correlations overall;
headline pairs Paloalto-APEX (0.9933), Avast-AVG (0.9814),
Webroot-CrowdStrike (0.9754), BitDefender-FireEye (0.9520),
Emsisoft-FireEye (0.9189), Babable-F-Prot (0.9698).
"""

from __future__ import annotations

from functools import partial

from repro.analysis.rendering import render_fig11
from repro.core.correlation import correlation_analysis

from conftest import run_once, say

PAPER_PAIRS = (
    ("Paloalto", "APEX"),
    ("Avast", "AVG"),
    ("Webroot", "CrowdStrike"),
    ("BitDefender", "FireEye"),
    ("Emsisoft", "FireEye"),
    ("Babable", "F-Prot"),
)


def test_fig11_engine_correlation(benchmark, bench_data):
    analysis = run_once(
        benchmark,
        partial(correlation_analysis, bench_data.frame,
                bench_data.engine_names),
    )
    say()
    say(render_fig11(analysis))

    for first, second in PAPER_PAIRS:
        rho = analysis.rho_of(first, second)
        assert rho > 0.8, f"{first}-{second} rho={rho:.3f}"

    # Independent majors stay below the strong threshold.
    for first, second in (("Kaspersky", "Sophos"),
                          ("Microsoft", "DrWeb"),
                          ("Symantec", "Tencent")):
        assert analysis.rho_of(first, second) < 0.8

    # Engine participation near the paper's 17.
    involved = analysis.involved_engines()
    assert 10 <= len(involved) <= 34

    # The BitDefender OEM family resolves into one group.
    groups = analysis.groups()
    bdf = next((g for g in groups if "BitDefender" in g), None)
    assert bdf is not None
    assert {"FireEye", "MAX", "Ad-Aware"} <= set(bdf)
