"""The RPL1xx flow rules: concurrency, resources, purity, contracts.

Three of these are per-file but *semantic* (RPL102 resource leaks,
RPL104 exception contract, RPL105 label cardinality): they reason about
paths through one function rather than matching single constructs.  The
other two are whole-program (RPL101 lock discipline, RPL103 digest
purity): they run over the :class:`~repro.lint.callgraph.CallGraph`
after every file's facts are in, which is what lets a wall-clock read
two calls below ``ReportStore.digest`` — or an unlocked attribute write
three frames below a request handler — surface as a finding at its real
source line with the full call chain attached.

The program passes are pure functions of the per-file *facts*
(:class:`~repro.lint.callgraph.FileSummary`), so they see every file of
the tree at once.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.config import (
    CONTRACT_BANNED_RAISES,
    CONTRACT_DECODERS,
    DIGEST_ROOTS,
    RESOURCE_ACQUIRERS,
    THREAD_CONFINED_ATTRS,
    THREAD_ROOTS,
    LintConfig,
)
from repro.lint.callgraph import CallGraph
from repro.lint.rules import MetricRule, RawFinding, Rule

#: A program-pass finding before routing:
#: ``(path, line, col, code, message, detail)``.
ProgramFinding = tuple[str, int, int, str, str, str]


# ---------------------------------------------------------------------------
# RPL102 — resource leaks
# ---------------------------------------------------------------------------


class ResourceRule(Rule):
    """Acquired resources must be released on *every* path.

    A call in :data:`~repro.lint.config.RESOURCE_ACQUIRERS` hands back
    something holding an OS handle (or, for ``ReportStore.load``, an
    object owning one).  Four shapes discharge the obligation:

    * ``with acquire() as x:`` — the context manager closes it;
    * ``x.close()`` anywhere in the function, including an ``except``/
      ``finally`` cleanup handler;
    * immediate hand-off — the very next effectful statement transfers
      ownership (``return x`` / ``yield x`` / ``self.attr = x``);
    * inline consumption — the result is chained or passed straight
      into another call without ever being bound.

    What *is* flagged: a binding that is never closed nor handed off,
    a bare discarded acquisition, and the subtle one — a hand-off with
    raise-capable statements between acquisition and transfer and no
    cleanup handler, which leaks exactly when those statements raise
    (the mmap-then-parse shape).
    """

    code = "RPL102"
    name = "resource-leak"

    def check(self, module) -> Iterator[RawFinding]:
        for func in self._functions(module.tree):
            yield from self._check_function(func, module)

    @staticmethod
    def _functions(tree: ast.Module):
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield node

    def _acquirer(self, node: ast.expr, module) -> str | None:
        """The acquirer name if ``node`` is an acquiring call."""
        if not isinstance(node, ast.Call):
            return None
        func = node.func
        qual = module.imports.qualname(func)
        if qual is not None:
            if qual in RESOURCE_ACQUIRERS:
                return qual
            # Method-suffix entries: ReportStore.load via any import.
            for entry in RESOURCE_ACQUIRERS:
                if "." in entry and qual.endswith(f".{entry}"):
                    return entry
        if isinstance(func, ast.Name) and func.id in RESOURCE_ACQUIRERS:
            return func.id
        if isinstance(func, ast.Attribute):
            dotted = f"{getattr(func.value, 'id', '?')}.{func.attr}"
            if dotted in RESOURCE_ACQUIRERS:
                return dotted
            for entry in RESOURCE_ACQUIRERS:
                if "." in entry and (entry.split(".")[-1] == func.attr
                                     and entry.split(".")[0] ==
                                     getattr(func.value, "id", None)):
                    return entry
        return None

    def _body_statements(self, func) -> list[ast.stmt]:
        """Every statement of the function, excluding nested defs."""
        out: list[ast.stmt] = []

        def walk(stmts: list[ast.stmt]) -> None:
            for stmt in stmts:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                    continue
                out.append(stmt)
                for field_name, value in ast.iter_fields(stmt):
                    if isinstance(value, list) and value and \
                            isinstance(value[0], ast.stmt):
                        walk(value)
                    elif field_name == "handlers":
                        for handler in value:
                            walk(handler.body)

        walk(func.body)
        return out

    def _check_function(self, func, module) -> Iterator[RawFinding]:
        statements = self._body_statements(func)
        with_consumed: set[int] = set()
        chained: set[int] = set()
        for stmt in statements:
            if isinstance(stmt, (ast.With, ast.AsyncWith)):
                for item in stmt.items:
                    for sub in ast.walk(item.context_expr):
                        with_consumed.add(id(sub))
        for stmt in statements:
            for node in ast.walk(stmt):
                # A chained or argument-position acquisition hands its
                # ownership straight to the consumer.
                if isinstance(node, ast.Call):
                    if isinstance(node.func, ast.Attribute):
                        chained.update(id(s) for s in
                                       ast.walk(node.func.value))
                    for arg in [*node.args, *[k.value for k in node.keywords]]:
                        chained.update(id(s) for s in ast.walk(arg))

        bindings: dict[str, tuple[ast.stmt, str]] = {}
        for stmt in statements:
            if (isinstance(stmt, ast.Assign) and len(stmt.targets) == 1
                    and isinstance(stmt.targets[0], ast.Name)):
                name = self._acquirer(stmt.value, module)
                if name is not None and id(stmt.value) not in with_consumed:
                    bindings[stmt.targets[0].id] = (stmt, name)
                continue
            if isinstance(stmt, ast.Expr):
                name = self._acquirer(stmt.value, module)
                if (name is not None and id(stmt.value) not in with_consumed
                        and id(stmt.value) not in chained):
                    yield (stmt.lineno, stmt.col_offset,
                           f"{name}(...) result discarded — the handle is "
                           f"unreachable and can never be closed")

        for var, (acquire_stmt, name) in sorted(bindings.items()):
            yield from self._check_binding(
                var, acquire_stmt, name, func, statements)

    def _check_binding(self, var: str, acquire_stmt: ast.stmt, name: str,
                       func, statements) -> Iterator[RawFinding]:
        closed = False
        cleanup_close = False
        transfer_stmt: ast.stmt | None = None
        for stmt in statements:
            for node in ast.walk(stmt):
                if (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr == "close"
                        and isinstance(node.func.value, ast.Name)
                        and node.func.value.id == var):
                    closed = True
        for handler_stmt in self._cleanup_statements(func):
            for node in ast.walk(handler_stmt):
                if (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr == "close"
                        and isinstance(node.func.value, ast.Name)
                        and node.func.value.id == var):
                    cleanup_close = True
        for stmt in statements:
            if stmt is acquire_stmt or stmt.lineno <= acquire_stmt.lineno:
                continue
            if self._is_transfer(stmt, var):
                if transfer_stmt is None or \
                        stmt.lineno < transfer_stmt.lineno:
                    transfer_stmt = stmt

        if closed:
            return
        if transfer_stmt is None:
            yield (acquire_stmt.lineno, acquire_stmt.col_offset,
                   f"{name}(...) bound to {var!r} is never closed or "
                   f"handed off — close it in a finally/except or "
                   f"transfer ownership")
            return
        risky = [
            stmt for stmt in statements
            if acquire_stmt.lineno < stmt.lineno < transfer_stmt.lineno
            and any(isinstance(n, (ast.Call, ast.Raise))
                    for n in ast.walk(stmt))
        ]
        if risky and not cleanup_close:
            yield (acquire_stmt.lineno, acquire_stmt.col_offset,
                   f"{name}(...) bound to {var!r} at line "
                   f"{acquire_stmt.lineno} is handed off at line "
                   f"{transfer_stmt.lineno}, but the statements in "
                   f"between can raise — close {var!r} in an "
                   f"except/finally before the hand-off")

    @staticmethod
    def _cleanup_statements(func) -> list[ast.stmt]:
        out: list[ast.stmt] = []
        for node in ast.walk(func):
            if isinstance(node, ast.Try):
                for handler in node.handlers:
                    out.extend(handler.body)
                out.extend(node.finalbody)
        return out

    @staticmethod
    def _is_transfer(stmt: ast.stmt, var: str) -> bool:
        """Does ``stmt`` move ownership of ``var`` out of the frame?"""
        def mentions(node: ast.AST | None) -> bool:
            if node is None:
                return False
            return any(isinstance(sub, ast.Name) and sub.id == var
                       for sub in ast.walk(node))

        if isinstance(stmt, ast.Return):
            return mentions(stmt.value)
        if isinstance(stmt, ast.Expr) and isinstance(
                stmt.value, (ast.Yield, ast.YieldFrom)):
            return mentions(stmt.value)
        if isinstance(stmt, ast.Assign):
            stores_out = any(
                isinstance(t, (ast.Attribute, ast.Subscript))
                for t in stmt.targets)
            return stores_out and mentions(stmt.value)
        return False


# ---------------------------------------------------------------------------
# RPL104 — exception contract at the store/serve boundary
# ---------------------------------------------------------------------------


class ExceptionContractRule(Rule):
    """Only :class:`repro.errors.ReproError` subclasses may escape the
    store/serve surfaces.

    Two shapes: explicitly raising a banned raw type
    (``raise IndexError(...)`` — callers cannot distinguish it from a
    programming error; raise ``BlockAddressError`` instead), and calling
    a decoder that raises non-ReproError on corrupt input
    (``struct.unpack``/``zlib.decompress``/``json.loads``) outside a
    ``try`` whose handler catches the matching family.  The
    ``unpack_from`` forms are exempt by design: their callers bounds-
    check offsets first, while whole-buffer unpacks are where truncated
    files actually detonate.
    """

    code = "RPL104"
    name = "exception-contract"

    def check(self, module) -> Iterator[RawFinding]:
        protected = self._protected_calls(module)
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Raise):
                yield from self._check_raise(node, module)
            elif isinstance(node, ast.Call):
                yield from self._check_decoder(node, module, protected)

    def _check_raise(self, node: ast.Raise, module) -> Iterator[RawFinding]:
        exc = node.exc
        if exc is None:
            return
        expr = exc.func if isinstance(exc, ast.Call) else exc
        qual = module.imports.qualname(expr)
        if qual is None and isinstance(expr, ast.Name):
            qual = expr.id
        if qual in CONTRACT_BANNED_RAISES:
            yield (node.lineno, node.col_offset,
                   f"raising raw {qual} across a store/serve boundary — "
                   f"raise a ReproError subclass (CorruptRecordError, "
                   f"BlockAddressError, ...) so callers can catch the "
                   f"contract, not the implementation")

    def _protected_calls(self, module) -> dict[int, set[str]]:
        """Call-node id → exception names caught by enclosing ``try``s."""
        protected: dict[int, set[str]] = {}
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Try):
                continue
            caught: set[str] = set()
            for handler in node.handlers:
                if handler.type is None:
                    caught.add("BaseException")
                    continue
                types = (handler.type.elts
                         if isinstance(handler.type, ast.Tuple)
                         else [handler.type])
                for type_node in types:
                    qual = module.imports.qualname(type_node)
                    if qual is None and isinstance(type_node, ast.Name):
                        qual = type_node.id
                    if qual is not None:
                        caught.add(qual)
            for stmt in node.body:
                for sub in ast.walk(stmt):
                    if isinstance(sub, ast.Call):
                        protected.setdefault(id(sub), set()).update(caught)
        return protected

    def _check_decoder(self, node: ast.Call, module,
                       protected: dict[int, set[str]]
                       ) -> Iterator[RawFinding]:
        qual = module.imports.qualname(node.func)
        if qual is None or qual not in CONTRACT_DECODERS:
            return
        acceptable = set(CONTRACT_DECODERS[qual])
        acceptable.add("BaseException")
        if protected.get(id(node), set()) & acceptable:
            return
        family = CONTRACT_DECODERS[qual][0]
        yield (node.lineno, node.col_offset,
               f"unwrapped {qual}(...) — corrupt/truncated input surfaces "
               f"raw {family} past the module boundary; wrap it in "
               f"try/except and re-raise CorruptRecordError")


# ---------------------------------------------------------------------------
# RPL105 — metric-label cardinality
# ---------------------------------------------------------------------------


class LabelCardinalityRule(Rule):
    """Metric label values must come from bounded sets.

    A sha256, a feed minute or an f-string interpolation as a label
    value mints a new time series per distinct value — the cardinality
    explosion every metrics backend document warns about, and here also
    a byte-determinism hazard (exports are compared byte-for-byte across
    runs).  Flagged shapes: f-string label values, ``str(...)``/
    ``hex(...)``/``repr(...)`` conversions, and identifiers whose
    ``_``-split segments name unbounded-looking data
    (:data:`~repro.lint.config.UNBOUNDED_LABEL_FRAGMENTS`).
    """

    code = "RPL105"
    name = "label-cardinality"

    #: Keyword arguments of instrument calls that are not labels.
    _NON_LABEL_KWARGS = frozenset({"edges"})

    _CONVERTERS = frozenset({"str", "hex", "repr", "format"})

    def check(self, module) -> Iterator[RawFinding]:
        from repro.lint.config import UNBOUNDED_LABEL_FRAGMENTS

        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            if MetricRule._instrument_kind(node.func) is None:
                continue
            if not node.args:
                continue
            for kw in node.keywords:
                if kw.arg is None or kw.arg in self._NON_LABEL_KWARGS:
                    continue
                reason = self._unbounded_reason(
                    kw.value, UNBOUNDED_LABEL_FRAGMENTS)
                if reason is not None:
                    yield (kw.value.lineno, kw.value.col_offset,
                           f"metric label {kw.arg!r} gets {reason} — label "
                           f"values must come from a bounded set")

    def _unbounded_reason(self, value: ast.expr,
                          fragments: frozenset[str]) -> str | None:
        if isinstance(value, ast.Constant):
            return None
        if isinstance(value, ast.JoinedStr):
            if any(isinstance(part, ast.FormattedValue)
                   for part in value.values):
                return "an f-string interpolation (unbounded by shape)"
            return None
        for sub in ast.walk(value):
            idents: list[str] = []
            if isinstance(sub, ast.Name):
                idents.append(sub.id)
            elif isinstance(sub, ast.Attribute):
                idents.append(sub.attr)
            elif isinstance(sub, ast.Call) and \
                    isinstance(sub.func, ast.Name) and \
                    sub.func.id in self._CONVERTERS:
                return f"a {sub.func.id}(...) conversion of a runtime value"
            for ident in idents:
                segments = {seg for seg in ident.lower().split("_") if seg}
                hit = sorted(segments & fragments)
                if hit:
                    return (f"the unbounded-looking value {ident!r} "
                            f"(matches {hit[0]!r})")
        return None


#: The per-file flow rules, run by the engine next to RULE_CLASSES.
FLOW_LOCAL_RULES: tuple[type[Rule], ...] = (
    ResourceRule,
    ExceptionContractRule,
    LabelCardinalityRule,
)


# ---------------------------------------------------------------------------
# Whole-program passes (RPL101 lock discipline, RPL103 digest purity)
# ---------------------------------------------------------------------------


def _chain(quals: tuple[str, ...]) -> str:
    return " -> ".join(quals)


def lock_discipline(graph: CallGraph,
                    config: LintConfig) -> list[ProgramFinding]:
    """RPL101: unlocked attribute writes reachable from handler threads.

    Roots are the concrete thread entry points
    (:data:`~repro.lint.config.THREAD_ROOTS`).  An edge made inside a
    ``with <lock>`` block protects its whole subtree, so a function
    reached *only* through locked calls is clean; anything reachable
    lock-free that writes ``self.<attr>`` outside a ``with <lock>``
    block is a finding, unless the attribute is a declared
    thread-confined carve-out.
    """
    roots = graph.match_roots(THREAD_ROOTS)
    chains = graph.reachable_unguarded(roots)
    findings: list[ProgramFinding] = []
    for qual in sorted(chains):
        fact = graph.functions[qual]
        path = graph.paths[qual]
        if not config.rule_applies("RPL101", path):
            continue
        for write in fact.writes:
            if write.guarded or write.attr in THREAD_CONFINED_ATTRS:
                continue
            findings.append((
                path, write.line, write.col, "RPL101",
                f"self.{write.attr} written outside a lock on a "
                f"handler-thread path — guard it with the owning lock's "
                f"with block (or declare it thread-confined in "
                f"repro.lint.config)",
                f"unlocked call chain: {_chain(chains[qual])}",
            ))
    return findings


def digest_purity(graph: CallGraph,
                  config: LintConfig) -> list[ProgramFinding]:
    """RPL103: wall-clock/env/entropy reachable from the digest path.

    Taint reachability from :data:`~repro.lint.config.DIGEST_ROOTS`:
    every function the digest path can call, transitively, must be free
    of impure references.  The walk does not descend into the
    sanctioned-owner modules (the RPL103 path policy's excludes — the
    injectable clock internals), which is exactly RPL001's carve-out
    made transitive.
    """
    def descend(qual: str) -> bool:
        return config.rule_applies("RPL103", graph.paths[qual])

    chains = graph.reachable(DIGEST_ROOTS, descend=descend)
    findings: list[ProgramFinding] = []
    for qual in sorted(chains):
        path = graph.paths[qual]
        if not config.rule_applies("RPL103", path):
            continue
        fact = graph.functions[qual]
        for imp in fact.impure:
            findings.append((
                path, imp.line, imp.col, "RPL103",
                f"{imp.qual} ({imp.kind}) is reachable from the digest "
                f"path — the replay digest must be a pure function of "
                f"(seed, feed); inject the dependency instead",
                f"digest call chain: {_chain(chains[qual])}",
            ))
    return findings


def program_findings(graph: CallGraph,
                     config: LintConfig) -> list[ProgramFinding]:
    """All whole-program findings, deterministically ordered."""
    findings = [*lock_discipline(graph, config),
                *digest_purity(graph, config)]
    findings.sort()
    return findings
