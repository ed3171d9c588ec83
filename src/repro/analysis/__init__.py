"""Experiment pipelines.

Each module regenerates a slice of the paper's evaluation from a report
store: :mod:`repro.analysis.dataset` (Tables 2-3, Figure 1),
:mod:`repro.analysis.dynamics` (Figures 2-8),
:mod:`repro.analysis.stabilization` (Figure 9, Observations 8-9),
:mod:`repro.analysis.engines` (Figures 10-12, Tables 4-8).
:mod:`repro.analysis.experiment` runs a scenario end to end and
:mod:`repro.analysis.rendering` formats results as the ASCII tables the
benchmark harness prints.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "experiment": ("ExperimentData", "run_experiment"),
})
