"""Pinned store digests: the simulator's output, fixed across commits.

The metric goldens (``tests/test_obs_golden.py``) pin counts and
histograms, and the serial/parallel gate compares a commit only with
itself; neither notices a change that moves a label or version plane
consistently everywhere.  These digests pin the full report stream —
every label, version, AV-Rank and Table 1 field, in ingest order — of
four fixed scenarios, so any change to what the simulator emits fails
here.  Update a digest only together with a deliberate, documented
change of simulator behaviour.
"""

from __future__ import annotations

import pytest

from repro.analysis.experiment import run_experiment
from repro.synth.scenario import dynamics_scenario, paper_scenario, tiny_scenario
from repro.vt.engines import default_fleet


def test_tiny_scenario(tiny_store):
    """``tiny_scenario(n_samples=150, seed=13)``, the shared serial run."""
    assert tiny_store.digest() == (
        "b61bea64fe39c86cd6cec6450afc7b43ff9a861d3da8eaf53abe4bb4fbdf6168")


@pytest.mark.parametrize("make, digest", [
    (lambda: run_experiment(paper_scenario(n_samples=400, seed=9)),
     "5bcf4111a3277c7e2cbb1cc471e2f85df536e53df1886eff67ea54add253d297"),
    # The CI smoke config.
    (lambda: run_experiment(dynamics_scenario(n_samples=300, seed=4)),
     "40b5657f04007d073dabf7b3531993d24d6a8fa56d2657bb72ff3613a148400a"),
    (lambda: run_experiment(tiny_scenario(n_samples=150, seed=13),
                            fleet=default_fleet(13, copy_rules=False)),
     "3e26ce6c3757f99d587098c8d97f1b364561a598f3bb48e8edefc1365f1c918c"),
], ids=["paper-400-seed9", "dynamics-300-seed4", "tiny-150-seed13-no-copy"])
def test_pinned_digest(make, digest):
    assert make().store.digest() == digest
