"""Methodology comparison: organic observation vs snapshot campaigns.

The paper's headline disagreements with Zhu et al. (hazard-flip
prevalence, threshold ranges) trace back to *how the data was collected*:
organic submissions vs daily rescans of a fixed set.  This module runs
the same dynamics measurements over both collection modes against
identical ground truth, quantifying exactly what each protocol sees.

Used by ``benchmarks/bench_baseline_snapshot_protocol.py`` and available
to users who want to understand what their own collection cadence hides.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.experiment import ExperimentData, run_experiment
from repro.core.flips import FlipStats, analyze_flips
from repro.store.reportstore import ReportStore
from repro.synth.population import PopulationGenerator
from repro.synth.scenario import ScenarioConfig
from repro.vt.snapshots import SnapshotCampaign


@dataclass(frozen=True)
class ProtocolView:
    """Dynamics statistics as seen by one collection protocol."""

    protocol: str
    n_samples: int
    n_reports: int
    dynamic_fraction: float
    flips_per_sample: float
    hazards_per_1000_samples: float
    hazard_share_of_flips: float
    mean_observed_delta: float


def _view(
    protocol: str, store: ReportStore, engine_names: tuple[str, ...]
) -> ProtocolView:
    frame = store.series_frame()
    deltas = frame.delta_overall()[frame.multi_mask()]
    multi = len(deltas)
    flips: FlipStats = analyze_flips(frame, engine_names)
    return ProtocolView(
        protocol=protocol,
        n_samples=store.sample_count,
        n_reports=store.report_count,
        dynamic_fraction=(int((deltas > 0).sum()) / multi) if multi else 0.0,
        flips_per_sample=(flips.total_flips / flips.sample_count
                          if flips.sample_count else 0.0),
        hazards_per_1000_samples=(1000.0 * flips.total_hazards
                                  / flips.sample_count
                                  if flips.sample_count else 0.0),
        hazard_share_of_flips=(flips.total_hazards / flips.total_flips
                               if flips.total_flips else 0.0),
        mean_observed_delta=(int(deltas.sum()) / multi) if multi else 0.0,
    )


@dataclass(frozen=True)
class ProtocolComparison:
    """Side-by-side organic vs snapshot views over shared ground truth."""

    organic: ProtocolView
    snapshot: ProtocolView

    def render(self) -> str:
        rows = [
            ("samples", self.organic.n_samples, self.snapshot.n_samples),
            ("reports", self.organic.n_reports, self.snapshot.n_reports),
            ("dynamic fraction",
             f"{self.organic.dynamic_fraction:.1%}",
             f"{self.snapshot.dynamic_fraction:.1%}"),
            ("flips per sample",
             f"{self.organic.flips_per_sample:.2f}",
             f"{self.snapshot.flips_per_sample:.2f}"),
            ("hazards per 1000 samples",
             f"{self.organic.hazards_per_1000_samples:.2f}",
             f"{self.snapshot.hazards_per_1000_samples:.2f}"),
            ("hazard share of flips",
             f"{self.organic.hazard_share_of_flips:.3%}",
             f"{self.snapshot.hazard_share_of_flips:.3%}"),
            ("mean observed Delta",
             f"{self.organic.mean_observed_delta:.2f}",
             f"{self.snapshot.mean_observed_delta:.2f}"),
        ]
        width = max(len(str(r[0])) for r in rows)
        lines = [f"  {'metric':<{width}}  {'organic':>12}  {'snapshot':>12}"]
        for name, organic, snapshot in rows:
            lines.append(f"  {name:<{width}}  {organic!s:>12}  "
                         f"{snapshot!s:>12}")
        return "\n".join(lines)


def compare_protocols(
    config: ScenarioConfig,
    snapshot_samples: int = 300,
    cadence_days: float = 1.0,
    duration_days: float = 120.0,
    campaign_start_day: float = 30.0,
) -> ProtocolComparison:
    """Observe one ground-truth population through both protocols.

    The organic view is the scenario's own submission stream; the
    snapshot view takes ``snapshot_samples`` of the population that
    appeared *before the campaign start* (Zhu et al. enrolled recent
    samples) and rescans them on a fixed cadence against the same
    service, so both protocols share ground truth.
    """
    organic: ExperimentData = run_experiment(config)
    organic_view = _view("organic", organic.store, organic.engine_names)

    campaign = SnapshotCampaign(
        organic.service,
        cadence_days=cadence_days,
        duration_days=duration_days,
    )
    # Rescan the *same* registered samples the organic run observed, so
    # both protocols see identical ground truth (plans included); enrol
    # only samples already submitted by the campaign start.
    start_minutes = campaign_start_day * 24 * 60
    roster = []
    for spec in PopulationGenerator(config):
        if not 0 <= spec.sample.first_seen <= start_minutes:
            continue
        roster.append(organic.service.get_sample(spec.sample.sha256))
        if len(roster) >= snapshot_samples:
            break
    snapshot_store = campaign.run(roster, start_day=campaign_start_day)
    snapshot_store.close()
    snapshot_view = _view("snapshot", snapshot_store,
                          organic.engine_names)
    return ProtocolComparison(organic=organic_view, snapshot=snapshot_view)
