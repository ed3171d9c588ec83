#!/usr/bin/env python3
"""Quickstart: generate a synthetic VirusTotal dataset and measure its
label dynamics.

This walks the library's core loop in ~60 lines:

1. run a scenario (population -> simulated VT service -> premium feed ->
   report store);
2. split samples into stable vs dynamic (the paper's Observation 1);
3. check how a voting threshold would label a dynamic sample over time;
4. ask when its AV-Rank stabilised.

Run:  python examples/quickstart.py
"""

from repro import (
    ThresholdAggregator,
    avrank_stabilization,
    dynamics_scenario,
    run_experiment,
    split_stable_dynamic,
)

# 1. Generate a small dataset: fresh, top-20-file-type, multi-report
#    samples (the paper's dataset S construction).
data = run_experiment(dynamics_scenario(n_samples=2_000, seed=42))
print(f"generated {data.store.report_count:,} scan reports for "
      f"{data.store.sample_count:,} samples")

# 2. Stable vs dynamic (Observation 1: the paper found a 50/50 split).
stable, dynamic = split_stable_dynamic(data.series())
total = len(stable) + len(dynamic)
print(f"stable samples : {len(stable):,} ({len(stable) / total:.1%})")
print(f"dynamic samples: {len(dynamic):,} ({len(dynamic) / total:.1%})")

# 3. Pick the most dynamic sample and watch a threshold label it.
most_dynamic = max(dynamic, key=lambda s: s.delta_overall)
print(f"\nmost dynamic sample: {most_dynamic.sha256[:16]}… "
      f"({most_dynamic.file_type}), AV-Rank range "
      f"{most_dynamic.p_min}-{most_dynamic.p_max}")

aggregator = ThresholdAggregator(threshold=10)
reports = data.store.report_series(most_dynamic.sha256)
for report in reports:
    day = report.scan_time / (24 * 60)
    print(f"  day {day:7.1f}: AV-Rank {report.positives:2d} -> "
          f"label {aggregator.label(report)}")

# 4. When did its AV-Rank stabilise (within a fluctuation of 2)?
outcome = avrank_stabilization(most_dynamic, fluctuation=2)
if outcome.stabilized:
    print(f"\nAV-Rank stabilised (±2) at scan #{outcome.scan_index}, "
          f"{outcome.days:.1f} days after first submission")
else:
    print("\nAV-Rank never stabilised (±2) during the window")
