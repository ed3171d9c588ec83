"""The reprolint engine: parse, run rules, apply pragmas, sort findings.

One :func:`lint_paths` call is a pure function of (file contents,
config): files are discovered in sorted order, every rule's raw findings
are filtered through the pragma index and the per-rule path policy, and
the result is globally sorted by ``(path, line, col, code)`` — so two
runs over the same tree produce byte-identical reports, which
``tests/test_lint_selfcheck.py`` asserts the same way the store-digest
gate asserts serial/parallel equality.

A pass has two halves:

* :func:`analyze_module` is the per-file half — parse, the per-file
  rules (RPL001–007 plus the local flow rules RPL102/104/105), and
  call-graph fact extraction.  Its :class:`FileAnalysis` keeps the
  file's pragmas, so findings raised later can be routed against them.
* :func:`finish_program` is the whole-program half — the RPL005 kind
  table and the RPL101/RPL103 call-graph passes over every file's
  summary.  Its findings go through the same pragma routing
  (:func:`_route`) as the per-file ones.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from repro.errors import LintError
from repro.lint.callgraph import CallGraph, FileSummary, extract_summary
from repro.lint.config import ALL_CODES, LintConfig, normalize_path
from repro.lint.flowrules import FLOW_LOCAL_RULES, program_findings
from repro.lint.pragmas import Pragmas, collect_pragmas
from repro.lint.resolve import ImportMap
from repro.lint.rules import (
    RULE_CLASSES,
    MetricRule,
    Rule,
    metric_kind_conflicts,
)

@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location.

    ``detail`` carries the whole-program evidence (the call chain for
    RPL101/RPL103); it is empty for single-site findings.
    """

    path: str
    line: int
    col: int
    code: str
    message: str
    detail: str = ""


@dataclass
class ModuleInfo:
    """Everything the rules need to know about one parsed module."""

    path: str
    tree: ast.Module
    imports: ImportMap
    pragmas: Pragmas
    #: ``def``/``class`` suppression spans: (first line, last line,
    #: codes disabled by a pragma on the header or a decorator line).
    scopes: list[tuple[int, int, frozenset[str]]]


@dataclass
class LintResult:
    """A lint run's outcome: active findings plus suppression accounting."""

    findings: list[Finding] = field(default_factory=list)
    suppressed: list[Finding] = field(default_factory=list)
    files_checked: int = 0

    @property
    def ok(self) -> bool:
        return not self.findings


def _parse_module(path: str, source: str) -> ModuleInfo:
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        raise LintError(f"cannot parse {path}: {exc}") from exc
    pragmas = collect_pragmas(source)
    scopes: list[tuple[int, int, frozenset[str]]] = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
            continue
        header_lines = [node.lineno]
        header_lines.extend(d.lineno for d in node.decorator_list)
        codes: set[str] = set()
        for line in header_lines:
            codes.update(pragmas.by_line.get(line, ()))
        if codes:
            scopes.append((min(header_lines), node.end_lineno or node.lineno,
                           frozenset(codes)))
    return ModuleInfo(path=path, tree=tree, imports=ImportMap.from_module(tree),
                      pragmas=pragmas, scopes=scopes)


@dataclass
class FileAnalysis:
    """The product of analyzing one file.

    Local findings are final (already routed through pragmas and the
    path policy); the summary feeds the whole-program pass, whose
    findings are routed through the same ``pragmas`` and ``scopes``.
    """

    path: str
    pragmas: Pragmas
    #: ``def``/``class`` suppression spans, as in :class:`ModuleInfo`.
    scopes: list[tuple[int, int, frozenset[str]]]
    summary: FileSummary
    findings: list[Finding] = field(default_factory=list)
    suppressed: list[Finding] = field(default_factory=list)


def _route(analysis: FileAnalysis, finding: Finding,
           into: FileAnalysis | LintResult) -> None:
    """File one finding of ``analysis``'s file as active or
    pragma-suppressed in ``into``."""
    code, line = finding.code, finding.line
    # RPL000 (pragma hygiene) cannot itself be pragma'd away — a broken
    # pragma must never silence the report that it is broken.
    disabled = code != "RPL000" and (
        code in analysis.pragmas.file_level
        or code in analysis.pragmas.by_line.get(line, ())
        or any(start <= line <= end and code in codes
               for start, end, codes in analysis.scopes))
    (into.suppressed if disabled else into.findings).append(finding)


def analyze_module(path: str, source: str,
                   config: LintConfig | None = None) -> FileAnalysis:
    """The per-file half: parse, local rules, fact extraction."""
    config = config if config is not None else LintConfig()
    display = normalize_path(path)
    module = _parse_module(display, source)
    analysis = FileAnalysis(path=display, pragmas=module.pragmas,
                            scopes=module.scopes,
                            summary=extract_summary(module))

    # Pragma hygiene (RPL000) applies everywhere, always.
    for bad in module.pragmas.bad:
        _route(analysis, Finding(display, bad.line, bad.col, "RPL000",
                                 bad.message), analysis)
    rules: list[Rule] = [cls() for cls in (*RULE_CLASSES, *FLOW_LOCAL_RULES)]
    for rule in rules:
        if not config.rule_applies(rule.code, display):
            continue
        for line, col, message in rule.check(module):
            _route(analysis, Finding(display, line, col, rule.code, message),
                   analysis)
        if isinstance(rule, MetricRule):
            analysis.summary.metric_sites = [
                (s.line, s.col, s.name, s.kind) for s in rule._sites]
    analysis.findings.sort()
    analysis.suppressed.sort()
    return analysis


def finish_program(analyses: Sequence[FileAnalysis],
                   config: LintConfig | None = None) -> LintResult:
    """The whole-program half: kind table plus call-graph passes."""
    config = config if config is not None else LintConfig()
    result = LintResult(files_checked=len(analyses))
    by_path = {a.path: a for a in analyses}
    for analysis in analyses:
        result.findings.extend(analysis.findings)
        result.suppressed.extend(analysis.suppressed)

    def route_program(path: str, line: int, col: int, code: str,
                      message: str, detail: str = "") -> None:
        analysis = by_path.get(path)
        if analysis is None or not config.rule_applies(code, path):
            return
        _route(analysis, Finding(path, line, col, code, message, detail),
               result)

    # RPL005's whole-program kind table, rebuilt from every file's sites.
    sites = [(a.path, line, col, name, kind)
             for a in sorted(analyses, key=lambda a: a.path)
             for line, col, name, kind in a.summary.metric_sites]
    for path, (line, col, message) in metric_kind_conflicts(sites):
        route_program(path, line, col, "RPL005", message)

    # RPL101/RPL103 over the project call graph.
    graph = CallGraph([a.summary for a in analyses])
    for path, line, col, code, message, detail in program_findings(
            graph, config):
        route_program(path, line, col, code, message, detail)

    result.findings = sorted(set(result.findings))
    result.suppressed = sorted(set(result.suppressed))
    return result


def lint_modules(modules: Iterable[tuple[str, str]],
                 config: LintConfig | None = None) -> LintResult:
    """Lint ``(path, source)`` pairs; the core everything else wraps."""
    config = config if config is not None else LintConfig()
    analyses = [analyze_module(path, source, config)
                for path, source in modules]
    return finish_program(analyses, config)


def lint_source(source: str, path: str = "repro/_inline.py",
                config: LintConfig | None = None) -> LintResult:
    """Lint one in-memory module — the unit-test entry point."""
    return lint_modules([(path, source)], config=config)


def _expand(target: Path) -> list[Path]:
    if target.is_dir():
        # rglob order is filesystem order; sort for determinism (the
        # same contract RPL004 enforces on the code under lint).
        return sorted(target.rglob("*.py"))
    return [target]


def discover_files(paths: Sequence[str | Path]) -> list[Path]:
    """Expand lint targets into the sorted file list (dirs recurse)."""
    files: list[Path] = []
    for raw in paths:
        target = Path(raw)
        if not target.exists():
            raise LintError(f"lint target does not exist: {target}")
        files.extend(_expand(target))
    return files


def read_source(path: Path) -> str:
    try:
        return path.read_text(encoding="utf-8")
    except OSError as exc:
        raise LintError(f"cannot read {path}: {exc}") from exc


def lint_paths(paths: Sequence[str | Path],
               config: LintConfig | None = None) -> LintResult:
    """Lint files and directories (directories recurse over ``*.py``)."""
    files = discover_files(paths)
    return lint_modules(((str(path), read_source(path)) for path in files),
                        config=config)


def default_target() -> Path:
    """The tree ``repro-vt lint`` checks by default: this package."""
    import repro

    return Path(repro.__file__).resolve().parent


__all__ = [
    "ALL_CODES",
    "FileAnalysis",
    "Finding",
    "LintResult",
    "analyze_module",
    "default_target",
    "discover_files",
    "finish_program",
    "lint_modules",
    "lint_paths",
    "lint_source",
    "read_source",
]
