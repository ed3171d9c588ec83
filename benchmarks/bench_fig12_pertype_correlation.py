"""Figure 12 + Tables 4-8 / §7.2.2: per-file-type engine correlation.

Paper: correlation structure varies by type — Cyren-Fortinet are strong
on Win32 EXE despite not correlating overall; Avira-Cynet are strong
overall but *not* on Win32 EXE; Lionic-VirIT correlate only on GZIP; and
Tables 4-8 list the groups for Win32 EXE, TXT, HTML, ZIP and PDF (the
Avast/AVG pair and the BitDefender OEM family recur in every table).
"""

from __future__ import annotations

from functools import partial

from repro.analysis.engines import APPENDIX_FILE_TYPES, engine_correlation
from repro.analysis.rendering import render_group_tables

from conftest import run_once, say


def test_fig12_per_type_correlation(benchmark, bench_data):
    result = run_once(
        benchmark,
        partial(engine_correlation, bench_data.frame,
                bench_data.engine_names, APPENDIX_FILE_TYPES),
    )
    say()
    say(render_group_tables(result.per_type))

    exe = result.per_type.get("Win32 EXE")
    assert exe is not None, "Win32 EXE must have enough scans"

    # Cyren copies Fortinet on PE only: strong here...
    assert exe.rho_of("Cyren", "Fortinet") > 0.8
    # ...while Avira-Cynet, strong overall, decouples on Win32 EXE.
    assert exe.rho_of("Avira", "Cynet") < result.overall.rho_of(
        "Avira", "Cynet"
    )

    # Recurring groups across the appendix tables.
    for ftype in ("Win32 EXE", "TXT"):
        analysis = result.per_type.get(ftype)
        if analysis is None:
            continue
        flattened = {n for g in analysis.groups() for n in g}
        assert ("Avast" in flattened) or ("BitDefender" in flattened), ftype

    # Avast-AVG holds per type as well.
    for ftype, analysis in result.per_type.items():
        if analysis.n_scans > 2000:
            assert analysis.rho_of("Avast", "AVG") > 0.7, ftype
