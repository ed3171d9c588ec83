#!/usr/bin/env python3
"""Engine correlation and correlation-aware voting (§7.2, Observation 11).

The paper shows groups of engines copy each other's labels, so counting
them as independent votes inflates confidence.  This example:

1. recovers the strong-correlation groups from scan data;
2. builds a correlation-aware weighted voter (each group counts once);
3. shows where naive and deduplicated voting disagree;
4. runs the AVClass-style family-label baseline over one report.

Run:  python examples/engine_correlation_study.py
"""

from repro import dynamics_scenario, run_experiment
from repro.core.aggregation import ThresholdAggregator, WeightedVoteAggregator
from repro.core.correlation import correlation_analysis
from repro.labeling import detection_string, label_family
from repro.vt.filetypes import FILE_TYPES

data = run_experiment(dynamics_scenario(n_samples=4_000, seed=11))
reports = list(data.store.iter_reports())
print(f"analysing {len(reports):,} scan reports")

# ---------------------------------------------------------------------------
# 1. Strong correlations (Figure 11).
# ---------------------------------------------------------------------------
analysis = correlation_analysis(data.frame, data.engine_names)
print(f"\nstrong pairs (rho > 0.8): {len(analysis.strong_pairs())}, "
      f"involving {len(analysis.involved_engines())} engines "
      "(paper: 17 engines)")
for first, second, rho in analysis.strong_pairs()[:8]:
    print(f"  {first:22s} -- {second:22s} rho={rho:.4f}")
print("groups:")
for group in analysis.groups():
    print("  " + ", ".join(group))

# ---------------------------------------------------------------------------
# 2. Correlation-aware voting: one vote per group.
# ---------------------------------------------------------------------------
naive = ThresholdAggregator(threshold=8)
deduplicated = WeightedVoteAggregator.from_correlation_groups(
    analysis.groups(), data.engine_names, threshold=8.0
)

disagreements = 0
checked = 0
example = None
for report in reports:
    if report.positives == 0:
        continue
    checked += 1
    naive_verdict = naive.is_malicious(report)
    dedup_verdict = deduplicated.is_malicious(report)
    if naive_verdict != dedup_verdict:
        disagreements += 1
        if example is None:
            example = report
print(f"\nnaive vs deduplicated voting disagree on "
      f"{disagreements:,}/{checked:,} flagged reports")
if example is not None:
    print(f"example: {example.sha256[:16]}… AV-Rank {example.positives} "
          "- naive says malicious, but much of its support is one "
          "OEM family voting in lockstep")

# ---------------------------------------------------------------------------
# 3. Family labelling baseline (AVClass-style plurality vote).
# ---------------------------------------------------------------------------
sample = next(s for s in data.service.samples()
              if s.malicious and s.family)
category = FILE_TYPES[sample.file_type].category
report = data.store.reports_for(sample.sha256)[-1]
detections = {
    result.engine: (detection_string(result.engine, sample.family,
                                     category, sample.sha256)
                    if result.detected else None)
    for result in report.iter_results(data.engine_names)
}
vote = label_family(detections)
print(f"\nfamily baseline: ground truth '{sample.family}', "
      f"plurality vote '{vote.family}' "
      f"({vote.support}/{vote.total_votes} votes, "
      f"confident={vote.confident})")
