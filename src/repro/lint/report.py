"""Report rendering: human text and byte-deterministic JSON lines.

Same house style as :mod:`repro.obs.export`: the JSON format is one
schema line followed by one compact, key-sorted JSON object per finding,
in the engine's global ``(path, line, col, code)`` order — two runs over
the same tree produce byte-identical reports.

Schema ``reprolint/3``: findings carry a ``detail`` field (the
RPL101/RPL103 call chain, empty otherwise), and the head counts the
files checked, the active findings and the pragma-suppressed ones.
"""

from __future__ import annotations

import json

from repro.lint.config import RULE_SUMMARIES
from repro.lint.engine import LintResult

#: JSON report schema identifier, bumped on incompatible changes.
JSON_SCHEMA = "reprolint/3"


def json_lines(result: LintResult) -> list[str]:
    """Schema line + one sorted JSON line per active finding."""
    head = {
        "schema": JSON_SCHEMA,
        "files_checked": result.files_checked,
        "findings": len(result.findings),
        "suppressed": len(result.suppressed),
    }
    lines = [json.dumps(head, sort_keys=True, separators=(",", ":"))]
    for f in result.findings:
        lines.append(json.dumps(
            {"path": f.path, "line": f.line, "col": f.col,
             "code": f.code, "message": f.message, "detail": f.detail},
            sort_keys=True, separators=(",", ":")))
    return lines


def render_json(result: LintResult) -> str:
    return "\n".join(json_lines(result)) + "\n"


def render_text(result: LintResult, explain: bool = False) -> str:
    """The human report: one grep-able line per finding plus a summary.

    With ``explain``, whole-program findings print their evidence (the
    call chain) on an indented continuation line.
    """
    lines = []
    for f in result.findings:
        lines.append(f"{f.path}:{f.line}:{f.col}: {f.code} {f.message}")
        if explain and f.detail:
            lines.append(f"    {f.detail}")
    noun = "finding" if len(result.findings) == 1 else "findings"
    lines.append(f"{len(result.findings)} {noun} "
                 f"({result.files_checked} files checked, "
                 f"{len(result.suppressed)} suppressed by pragmas)")
    return "\n".join(lines) + "\n"


def render_rules() -> str:
    """The rule table (``repro-vt lint --explain``)."""
    width = max(len(code) for code in RULE_SUMMARIES)
    return "\n".join(
        f"{code:<{width}}  {RULE_SUMMARIES[code]}"
        for code in sorted(RULE_SUMMARIES)) + "\n"

