"""Synthetic workload generation.

The paper's dataset is the full 14-month VirusTotal submission stream;
this subpackage generates a statistically faithful, scaled-down stand-in:
sample populations matching Table 3's file-type mix and Figure 1's
reports-per-sample distribution (:mod:`repro.synth.population`), latent
ground truth and family assignment (:mod:`repro.synth.groundtruth`),
submission/rescan schedules (:mod:`repro.synth.submissions`) and scenario
presets bundling everything (:mod:`repro.synth.scenario`).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "scenario": (
        "ScenarioConfig", "chaos_scenario", "dynamics_scenario",
        "paper_scenario", "tiny_scenario",
    ),
    "population": ("PopulationGenerator", "SampleSpec"),
})
