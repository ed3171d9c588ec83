"""repro — reproduction of *Re-measuring the Label Dynamics of Online
Anti-Malware Engines from Millions of Samples* (IMC 2023).

The package has three layers:

* substrates — a VirusTotal service simulator (:mod:`repro.vt`), synthetic
  workload generation (:mod:`repro.synth`), a compressed report store
  (:mod:`repro.store`) and a statistics toolkit (:mod:`repro.stats`);
* the paper's contribution — the label-dynamics analysis library
  (:mod:`repro.core`);
* reproduction pipelines — per-table/figure experiment drivers
  (:mod:`repro.analysis`) and the AVClass-style baseline labeller
  (:mod:`repro.labeling`).

Quickstart::

    from repro import run_experiment, dynamics_scenario, split_stable_dynamic
    data = run_experiment(dynamics_scenario(n_samples=2000, seed=7))
    stable, dynamic = split_stable_dynamic(data.series())
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "_version": ("__version__",),
    "analysis.experiment": ("ExperimentData", "run_experiment"),
    "collect.collector": ("FeedCollector",),
    "collect.driver": ("run_collection",),
    "faults.plan": ("FaultPlan", "standard_chaos_plan"),
    "core.avrank": ("AVRankSeries", "collect_series", "split_stable_dynamic"),
    "core.aggregation": (
        "PercentageAggregator", "ThresholdAggregator",
        "TrustedEnginesAggregator", "WeightedVoteAggregator",
    ),
    "core.categorize": ("categorize", "category_distribution"),
    "core.correlation": ("correlation_analysis",),
    "core.flips": ("analyze_flips",),
    "core.monitor": ("StabilityCriteria", "StabilityMonitor"),
    "core.stabilization": ("avrank_stabilization", "label_stabilization"),
    "store.reportstore": ("ReportStore",),
    "synth.scenario": (
        "ScenarioConfig", "chaos_scenario", "dynamics_scenario",
        "paper_scenario", "tiny_scenario",
    ),
    "vt.api": ("VTClient",),
    "vt.engines": ("default_fleet",),
    "vt.feed": ("PremiumFeed",),
    "vt.service": ("VirusTotalService",),
})
