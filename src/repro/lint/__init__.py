"""``repro.lint`` (reprolint) — static enforcement of the determinism
contract.

Every equivalence gate in this repo — the serial/parallel digest gate,
byte-identical metric exports, chaos crash/resume convergence — rests on
one unwritten rule: *no unseeded randomness, no wall-clock reads, no
order-unstable iteration anywhere on the simulation path*.  reprolint
makes the rule written and machine-checked: an AST pass over the source
with per-rule codes (RPL001-RPL007), inline ``# reprolint:
disable=RPL00x - why`` pragmas with required justifications, a
config-driven path policy for the sanctioned owners (clock modules, the
parallel runner), and byte-deterministic text/JSON reports.

The pass is whole-program: a project call graph
(:mod:`repro.lint.callgraph`) feeds the RPL1xx flow rules
(:mod:`repro.lint.flowrules` — lock discipline, resource leaks, digest
purity, exception contract, label cardinality).  Every run is one pass
over the whole tree; nothing is kept between runs.

The repo lints itself in tier-1 (``tests/test_lint_selfcheck.py``) and
in CI (``repro-vt lint --format json``): zero undisabled findings, the
same bar the dynamic gates hold the runtime to.
"""

from __future__ import annotations

from repro.lint.callgraph import CallGraph, FileSummary, extract_summary
from repro.lint.config import (
    ALL_CODES,
    DEFAULT_POLICIES,
    FLOW_CODES,
    RULE_SUMMARIES,
    LintConfig,
    PathPolicy,
    normalize_path,
    parse_select,
)
from repro.lint.engine import (
    FileAnalysis,
    Finding,
    LintResult,
    analyze_module,
    default_target,
    finish_program,
    lint_modules,
    lint_paths,
    lint_source,
)
from repro.lint.flowrules import FLOW_LOCAL_RULES, program_findings
from repro.lint.pragmas import BadPragma, Pragmas, collect_pragmas
from repro.lint.report import (
    JSON_SCHEMA,
    json_lines,
    render_json,
    render_rules,
    render_text,
)
from repro.lint.rules import RULE_CLASSES

__all__ = [
    "ALL_CODES",
    "DEFAULT_POLICIES",
    "FLOW_CODES",
    "FLOW_LOCAL_RULES",
    "JSON_SCHEMA",
    "RULE_CLASSES",
    "RULE_SUMMARIES",
    "CallGraph",
    "FileAnalysis",
    "FileSummary",
    "Finding",
    "LintConfig",
    "LintResult",
    "PathPolicy",
    "analyze_module",
    "default_target",
    "extract_summary",
    "finish_program",
    "json_lines",
    "lint_modules",
    "lint_paths",
    "lint_source",
    "normalize_path",
    "parse_select",
    "program_findings",
    "render_json",
    "render_rules",
    "render_text",
]
