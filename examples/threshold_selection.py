#!/usr/bin/env python3
"""Choosing a robust voting threshold for your own dataset (§5.4, §8).

The paper's core practical advice: before fixing "malicious if AV-Rank
>= t", measure the *gray fraction* — the share of samples whose label
would depend on when you scanned them — across candidate thresholds, and
pick t from a range where it stays low.  The safe range differs by file
type (PE files tolerate low thresholds best).

This example runs that workflow end to end on a synthetic dataset and
compares three aggregation strategies on the resulting labels.

Run:  python examples/threshold_selection.py
"""

from repro import dynamics_scenario, run_experiment
from repro.analysis.dynamics import threshold_impact
from repro.analysis.rendering import ascii_table, pct
from repro.core.aggregation import (
    PercentageAggregator,
    ThresholdAggregator,
    TrustedEnginesAggregator,
)
from repro.core.recommend import best_range, recommend_threshold_ranges

data = run_experiment(dynamics_scenario(n_samples=4_000, seed=7))
dataset_s = data.dataset_s
print(f"analysing {dataset_s.n_samples:,} fresh dynamic samples")

# ---------------------------------------------------------------------------
# 1. Gray-fraction curves, overall and for PE files (Figure 8).
# ---------------------------------------------------------------------------
impact = threshold_impact(dataset_s)

rows = []
for overall, pe in zip(impact.overall, impact.pe_only):
    if overall.threshold % 5 == 0 or overall.threshold == 1:
        rows.append((overall.threshold, pct(overall.gray_fraction),
                     pct(pe.gray_fraction)))
print(ascii_table(["t", "gray (all)", "gray (PE)"], rows))

# ---------------------------------------------------------------------------
# 2. Recommended ranges: thresholds where gray stays under 10 %.
# ---------------------------------------------------------------------------
overall_ranges = recommend_threshold_ranges(impact.overall, gray_limit=0.10)
pe_ranges = recommend_threshold_ranges(impact.pe_only, gray_limit=0.10)
print(f"\nsafe overall ranges: "
      f"{', '.join(map(str, overall_ranges)) or 'none'} "
      "(paper: 1-11 and 28-50)")
print(f"safe PE ranges     : {', '.join(map(str, pe_ranges)) or 'none'} "
      "(paper: 1-24)")
if pe_ranges:
    chosen = best_range(pe_ranges)
    print(f"widest PE range    : {chosen} "
          f"(max gray {pct(chosen.max_gray_fraction)})")

# ---------------------------------------------------------------------------
# 3. Compare aggregation strategies on the *last* report of each sample.
# ---------------------------------------------------------------------------
threshold = ThresholdAggregator(10)
percentage = PercentageAggregator(0.25)
reputable = TrustedEnginesAggregator(
    ["Kaspersky", "BitDefender", "Microsoft", "Avira", "ESET-NOD32",
     "Symantec", "Sophos", "Avast"],
    data.engine_names,
    threshold=3,
)

agree = total = 0
flips_by_strategy = {name: 0 for name in ("t>=10", "25%", "trusted")}
for sha in dataset_s.sha256[:1000]:
    reports = data.store.report_series(sha)
    final = reports[-1]
    verdicts = (threshold.is_malicious(final),
                percentage.is_malicious(final),
                reputable.is_malicious(final))
    total += 1
    if len(set(verdicts)) == 1:
        agree += 1
    # How often would each strategy's label have changed across rescans?
    for name, strategy in (("t>=10", threshold), ("25%", percentage),
                           ("trusted", reputable)):
        labels = [strategy.is_malicious(r) for r in reports]
        if len(set(labels)) > 1:
            flips_by_strategy[name] += 1

print(f"\nall three strategies agree on {pct(agree / total)} of samples")
print("samples whose label changed across rescans, per strategy:")
for name, count in flips_by_strategy.items():
    print(f"  {name:8s}: {pct(count / total)}")
