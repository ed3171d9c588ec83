"""The paper's label-dynamics analysis library.

This subpackage is the primary contribution reproduced from the paper:
given per-sample sequences of VirusTotal scan reports, it measures

* AV-Rank trajectories and the stable/dynamic split (§5.1-5.2,
  :mod:`repro.core.avrank`);
* scan-pair interval differences and δ/Δ box summaries (§5.3,
  :mod:`repro.core.metrics`);
* white/black/gray threshold categorisation (§5.4,
  :mod:`repro.core.categorize`) and threshold recommendation
  (:mod:`repro.core.recommend`);
* flip-cause attribution (§5.5, :mod:`repro.core.causes`);
* AV-Rank and label stabilisation (§6, :mod:`repro.core.stabilization`)
  plus the suggested stability-notification feature
  (:mod:`repro.core.monitor`);
* per-engine flips, hazard flips and flip ratios (§7.1,
  :mod:`repro.core.flips`);
* engine correlation graphs and groups (§7.2,
  :mod:`repro.core.correlation`);
* label aggregation strategies (§3.1, :mod:`repro.core.aggregation`).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "avrank": ("AVRankSeries", "collect_series", "split_stable_dynamic"),
    "metrics": ("pairwise_differences",),
    "categorize": (
        "WHITE", "BLACK", "GRAY", "categorize", "category_distribution",
    ),
    "stabilization": (
        "AVRankStabilization", "LabelStabilization", "avrank_stabilization",
        "label_stabilization",
    ),
    "flips": ("FlipStats", "analyze_flips"),
    "correlation": ("CorrelationAnalysis", "correlation_analysis"),
    "aggregation": (
        "PercentageAggregator", "ThresholdAggregator",
        "TrustedEnginesAggregator", "WeightedVoteAggregator",
    ),
    "causes": ("CauseBreakdown", "attribute_causes"),
    "recommend": ("recommend_threshold_ranges",),
    "reliability": ("EngineScore", "score_engines", "select_trusted"),
    "monitor": ("StabilityCriteria", "StabilityMonitor"),
})
