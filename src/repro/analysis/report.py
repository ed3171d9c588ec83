"""One-shot markdown reproduction report.

:func:`write_report` runs every analysis pipeline over one experiment and
emits a single self-contained markdown document mirroring the paper's
evaluation section: Tables 1-3, Figures 1-12 (as tables/series), the
observations with paper-vs-measured call-outs, and the calibration
grade.  The CLI exposes it as ``repro-vt report``.
"""

from __future__ import annotations

from pathlib import Path

from repro.analysis import dataset as dataset_mod
from repro.analysis import dynamics as dynamics_mod
from repro.analysis import engines as engines_mod
from repro.analysis import rendering
from repro.analysis import stabilization as stab_mod
from repro.analysis.calibration import grade
from repro.analysis.experiment import ExperimentData
from repro.analysis.windows import gap_growth_curve, window_sensitivity


def _fenced(text: str) -> str:
    return "```text\n" + text + "\n```\n"


def build_report(data: ExperimentData) -> str:
    """Render the full reproduction report as markdown."""
    frame, dataset_s = data.frame, data.dataset_s
    names = data.engine_names

    sections: list[str] = []
    sections.append(
        "# VirusTotal label-dynamics reproduction report\n\n"
        f"Scenario: seed {data.config.seed}, "
        f"{data.store.sample_count:,} samples, "
        f"{data.store.report_count:,} reports, "
        f"dataset S = {dataset_s.n_samples:,} fresh dynamic samples.\n"
    )

    sections.append("## Dataset overview (§4)\n")
    sections.append(_fenced(rendering.render_table2(data.store.stats())))
    sections.append(_fenced(rendering.render_table3(
        dataset_mod.file_type_distribution(data.store))))
    sections.append(_fenced(rendering.render_fig1(
        dataset_mod.ReportsPerSample.from_store(data.store))))

    split = dynamics_mod.stable_dynamic_split(frame)
    stable_profile = dynamics_mod.stable_sample_profile(frame)
    deltas = dynamics_mod.delta_distributions(dataset_s)
    impact = dynamics_mod.threshold_impact(dataset_s)
    sections.append("## Label dynamics (§5)\n")
    sections.append(_fenced(rendering.render_fig2(split)))
    sections.append(_fenced(rendering.render_fig3_fig4(stable_profile)))
    sections.append(_fenced(rendering.render_fig5(deltas)))
    sections.append(_fenced(rendering.render_fig6(
        dynamics_mod.per_type_dynamics(dataset_s))))
    sections.append(_fenced(rendering.render_fig7(
        dynamics_mod.interval_effect(dataset_s))))
    sections.append(_fenced(rendering.render_fig8(impact)))

    avrank_stab = stab_mod.avrank_stabilization_profile(dataset_s)
    label_stab = stab_mod.label_stabilization_profile(dataset_s)
    sections.append("## Stabilisation (§6)\n")
    sections.append(_fenced(rendering.render_obs8(avrank_stab)))
    sections.append(_fenced(rendering.render_fig9(label_stab)))

    sections.append("## Individual engines (§7)\n")
    stability = engines_mod.engine_stability(dataset_s, names)
    sections.append(_fenced(rendering.render_fig10(
        stability.flips, engines_mod.APPENDIX_FILE_TYPES)))
    correlation = engines_mod.engine_correlation(frame, names)
    sections.append(_fenced(rendering.render_fig11(correlation.overall)))
    sections.append(_fenced(rendering.render_group_tables(
        correlation.per_type)))

    sections.append("## Measurement-window sensitivity (§8)\n")
    window = window_sensitivity(dataset_s, first_month_only=False)
    curve = gap_growth_curve(dataset_s, first_month_only=False)
    window_lines = [
        f"gap grew from 30d to 90d window for "
        f"{window.grew_fraction:.1%} of samples (paper: 8.6% for 1->3 "
        "months)",
        "mean measurable gap by window: "
        + ", ".join(f"{w:.0f}d={g:.2f}" for w, g in curve),
    ]
    sections.append(_fenced("\n".join(window_lines)))

    sections.append("## Calibration vs paper\n")
    sections.append(_fenced(grade(split, stable_profile, deltas, impact,
                                 avrank_stab, label_stab,
                                 stability).render()))
    return "\n".join(sections)


def write_report(data: ExperimentData, path: str | Path) -> Path:
    """Build the report and write it to ``path``; returns the path."""
    path = Path(path)
    path.write_text(build_report(data), encoding="utf-8")
    return path
