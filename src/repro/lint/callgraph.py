"""Project-wide import/call-graph construction for the flow rules.

Per-file analysis (:func:`extract_summary`) distils each module into a
:class:`FileSummary`: its import bindings, its functions with their
call/write/impure-reference facts, and its class attribute types.  The
summaries are plain data and deliberately cheap to combine: a
:class:`CallGraph` built from *all* summaries resolves the per-file
call targets into cross-module edges, which is what lets RPL101 (lock
discipline) and RPL103 (digest purity) reason about reachability
instead of single files.

Resolution grows :mod:`repro.lint.resolve` across module boundaries:

* aliased imports and ``from``-imports resolve through each module's
  :class:`~repro.lint.resolve.ImportMap` bindings;
* re-exports follow package ``__init__`` bindings (``from repro.store
  import ReportStore`` reaches ``repro.store.reportstore.ReportStore``);
* ``self.method()`` resolves within the enclosing class, and
  ``self.attr.method()`` through constructor-inferred attribute types
  (``self._index = StoreIndex()`` makes ``self._index.add`` an edge to
  ``StoreIndex.add``);
* ``functools.partial(f, ...)`` and decorators add edges to their
  wrapped callables, so indirection cannot hide a call.

Resolution is intentionally *under*-approximate where Python is dynamic
(no inheritance walk, no duck typing): an unresolved call simply adds no
edge.  The flow rules compensate by rooting at the concrete entry
points named in :mod:`repro.lint.config`.
"""

from __future__ import annotations

import ast
import fnmatch
from collections import deque
from dataclasses import dataclass, field

from repro.lint.resolve import absolutize
from repro.lint.rules import EntropyRule, WallClockRule

#: Impure-reference classification for RPL103: qualname (or ``.*``
#: prefix) → kind.  Clock and entropy tables are shared with
#: RPL001/RPL003 so the taint rule subsumes them transitively.
IMPURE_KINDS: dict[str, str] = {
    **{qual: "clock" for qual in WallClockRule.BANNED},
    **{qual: "entropy" for qual in EntropyRule.BANNED},
    "os.environ": "env",
    "os.environ.*": "env",
    "os.getenv": "env",
    "os.environb": "env",
    "os.getenvb": "env",
}


def module_name_of(path: str) -> tuple[str, bool]:
    """``(dotted module name, is_package)`` for a normalised path.

    ``repro/store/codec.py`` → ``repro.store.codec``;
    ``repro/store/__init__.py`` → ``repro.store`` (a package).
    """
    parts = path.split("/")
    if parts[-1].endswith(".py"):
        parts[-1] = parts[-1][:-3]
    if parts[-1] == "__init__":
        return ".".join(parts[:-1]), True
    return ".".join(parts), False


@dataclass(frozen=True)
class CallFact:
    """One call site: where, the encoded target, and whether the site
    sits lexically inside a ``with <lock>`` block."""

    line: int
    col: int
    target: str
    guarded: bool


@dataclass(frozen=True)
class WriteFact:
    """One ``self.<attr>`` (or ``self.<attr>[k]``) write site."""

    line: int
    col: int
    attr: str
    guarded: bool


@dataclass(frozen=True)
class ImpureFact:
    """One reference to a wall-clock/entropy/env API."""

    line: int
    col: int
    qual: str
    kind: str


@dataclass
class FunctionFact:
    """Everything the flow rules need to know about one function."""

    qualname: str
    line: int
    col: int
    calls: list[CallFact] = field(default_factory=list)
    writes: list[WriteFact] = field(default_factory=list)
    impure: list[ImpureFact] = field(default_factory=list)


@dataclass
class FileSummary:
    """One module's contribution to the program call graph."""

    path: str
    module: str
    is_package: bool
    #: Local name → absolute dotted target (imports plus module-level
    #: constructed constants), relative imports already absolutised.
    bindings: dict[str, str] = field(default_factory=dict)
    #: Class qualname → {attribute: dotted class target} inferred from
    #: ``self.<attr> = ClassName(...)`` constructor assignments.
    classes: dict[str, dict[str, str]] = field(default_factory=dict)
    functions: list[FunctionFact] = field(default_factory=list)
    #: ``(line, col, name, kind)`` metric instrument sites (the RPL005
    #: whole-program kind table is rebuilt from these every run).
    metric_sites: list[tuple[int, int, str, str]] = field(
        default_factory=list)


def _rightmost_ident(node: ast.expr) -> str | None:
    """The trailing identifier of an expression (for lock detection)."""
    if isinstance(node, ast.Call):
        return _rightmost_ident(node.func)
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def _is_lock_expr(node: ast.expr) -> bool:
    ident = _rightmost_ident(node)
    return ident is not None and "lock" in ident.lower()


class _Extractor(ast.NodeVisitor):
    """One pass over a module tree, building its :class:`FileSummary`."""

    def __init__(self, module_info, summary: FileSummary) -> None:
        self._info = module_info
        self._summary = summary
        #: Dotted scope prefix (module, then class/function qualnames).
        self._prefix = summary.module
        #: Qualnames of the enclosing classes, innermost last.
        self._class_quals: list[str] = []
        self._func_stack: list[FunctionFact] = []
        self._lock_depth = 0
        self._toplevel: set[str] = {
            node.name for node in module_info.tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))
        }

    # -- helpers ----------------------------------------------------------

    def _absolute(self, dotted: str) -> str:
        return absolutize(dotted, self._summary.module,
                          self._summary.is_package)

    def _qual(self, node: ast.expr) -> str | None:
        dotted = self._info.imports.qualname(node)
        return self._absolute(dotted) if dotted is not None else None

    def _scope_qual(self, name: str) -> str:
        return f"{self._prefix}.{name}"

    def _target_of(self, node: ast.expr) -> str | None:
        """Encode a callable expression as a resolvable target string."""
        qual = self._qual(node)
        if qual is not None:
            return f"dotted:{qual}"
        if isinstance(node, ast.Name):
            if node.id in self._toplevel:
                return f"dotted:{self._summary.module}.{node.id}"
            return None
        if isinstance(node, ast.Attribute):
            base = node.value
            if isinstance(base, ast.Name) and base.id in ("self", "cls"):
                return f"self:{node.attr}"
            if (isinstance(base, ast.Attribute)
                    and isinstance(base.value, ast.Name)
                    and base.value.id in ("self", "cls")):
                return f"selfattr:{base.attr}:{node.attr}"
        return None

    def _add_call(self, node: ast.AST, target: str | None) -> None:
        if target is None or not self._func_stack:
            return
        self._func_stack[-1].calls.append(CallFact(
            line=node.lineno, col=node.col_offset, target=target,
            guarded=self._lock_depth > 0))

    # -- scopes -----------------------------------------------------------

    def _visit_function(self, node) -> None:
        qual = self._scope_qual(node.name)
        fact = FunctionFact(qualname=qual,
                            line=node.lineno, col=node.col_offset)
        # Decorators are call edges of the function they wrap: invoking
        # the function runs the decorator's wrapper, so taint flows
        # through `@traced(...)` the same way an explicit call would.
        saved_stack, saved_prefix = self._func_stack, self._prefix
        self._func_stack = [*saved_stack, fact]
        self._prefix = qual
        for dec in node.decorator_list:
            target = self._target_of(
                dec.func if isinstance(dec, ast.Call) else dec)
            self._add_call(dec, target)
            if isinstance(dec, ast.Call):
                for arg in dec.args:
                    self.visit(arg)
        for stmt in node.body:
            self.visit(stmt)
        self._func_stack, self._prefix = saved_stack, saved_prefix
        self._summary.functions.append(fact)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_function(node)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        qual = self._scope_qual(node.name)
        self._summary.classes.setdefault(qual, {})
        saved_stack, saved_prefix = self._func_stack, self._prefix
        self._class_quals.append(qual)
        self._func_stack = []
        self._prefix = qual
        for stmt in node.body:
            self.visit(stmt)
        self._func_stack, self._prefix = saved_stack, saved_prefix
        self._class_quals.pop()

    # -- lock regions ------------------------------------------------------

    def _visit_with(self, node) -> None:
        locked = any(_is_lock_expr(item.context_expr) for item in node.items)
        for item in node.items:
            self.visit(item.context_expr)
            if item.optional_vars is not None:
                self.visit(item.optional_vars)
        if locked:
            self._lock_depth += 1
        for stmt in node.body:
            self.visit(stmt)
        if locked:
            self._lock_depth -= 1

    def visit_With(self, node: ast.With) -> None:
        self._visit_with(node)

    def visit_AsyncWith(self, node: ast.AsyncWith) -> None:
        self._visit_with(node)

    # -- facts -------------------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        target = self._target_of(node.func)
        self._add_call(node, target)
        # functools.partial(f, ...) defers the call to f; record the
        # edge at the partial site so indirection cannot hide it.
        if target == "dotted:functools.partial" and node.args:
            self._add_call(node, self._target_of(node.args[0]))
        self.generic_visit(node)

    def _record_write(self, target: ast.expr) -> None:
        if not self._func_stack:
            return
        node = target
        if isinstance(node, ast.Subscript):
            node = node.value
        if (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in ("self", "cls")):
            self._func_stack[-1].writes.append(WriteFact(
                line=target.lineno, col=target.col_offset, attr=node.attr,
                guarded=self._lock_depth > 0))
            self._infer_attr_type(target)

    def _infer_attr_type(self, target: ast.expr) -> None:
        """``self.<attr> = ClassName(...)`` types the attribute."""
        assign = getattr(target, "_repro_assign", None)
        if not (isinstance(assign, ast.Assign)
                and isinstance(assign.value, ast.Call)
                and isinstance(target, ast.Attribute)):
            return
        ctor = self._target_of(assign.value.func)
        if ctor is None or not ctor.startswith("dotted:"):
            return
        if not self._class_quals:
            return
        self._summary.classes.setdefault(
            self._class_quals[-1], {})[target.attr] = ctor[len("dotted:"):]

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            target._repro_assign = node
            self._record_write(target)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._record_write(node.target)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            node.target._repro_assign = ast.Assign(
                targets=[node.target], value=node.value)
            self._record_write(node.target)
        self.generic_visit(node)

    def visit_Name(self, node: ast.Name) -> None:
        self._match_impure(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if not self._match_impure(node):
            self.generic_visit(node)

    def _match_impure(self, node: ast.expr) -> bool:
        if not self._func_stack:
            return False
        qual = self._qual(node)
        if qual is None:
            return False
        kind = IMPURE_KINDS.get(qual)
        if kind is None:
            for key, value in IMPURE_KINDS.items():
                if key.endswith(".*") and (
                        qual == key[:-2] or qual.startswith(key[:-2] + ".")):
                    kind = value
                    break
        if kind is None:
            return False
        self._func_stack[-1].impure.append(ImpureFact(
            line=node.lineno, col=node.col_offset, qual=qual, kind=kind))
        return True


def extract_summary(module_info) -> FileSummary:
    """Distil one parsed module into its call-graph summary."""
    module, is_package = module_name_of(module_info.path)
    summary = FileSummary(path=module_info.path, module=module,
                          is_package=is_package)
    raw = module_info.imports.bindings()
    summary.bindings = {
        local: absolutize(target, module, is_package)
        for local, target in sorted(raw.items())
    }
    extractor = _Extractor(module_info, summary)
    for stmt in module_info.tree.body:
        extractor.visit(stmt)
    summary.functions.sort(key=lambda f: (f.line, f.col, f.qualname))
    return summary


# ---------------------------------------------------------------------------
# The program graph
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Edge:
    """One resolved call edge."""

    caller: str
    callee: str
    line: int
    col: int
    guarded: bool


class CallGraph:
    """Cross-module call graph resolved from file summaries."""

    def __init__(self, summaries: list[FileSummary]) -> None:
        self.summaries = sorted(summaries, key=lambda s: s.path)
        self.modules: dict[str, FileSummary] = {
            s.module: s for s in self.summaries}
        self.functions: dict[str, FunctionFact] = {}
        self.paths: dict[str, str] = {}
        self.classes: dict[str, dict[str, str]] = {}
        for summary in self.summaries:
            for qual, attrs in summary.classes.items():
                self.classes.setdefault(qual, {}).update(attrs)
            for fact in summary.functions:
                self.functions[fact.qualname] = fact
                self.paths[fact.qualname] = summary.path
        self.edges: dict[str, list[Edge]] = {}
        for summary in self.summaries:
            for fact in summary.functions:
                resolved = []
                for call in fact.calls:
                    callee = self.resolve_target(call.target, fact.qualname)
                    if callee is not None:
                        resolved.append(Edge(
                            caller=fact.qualname, callee=callee,
                            line=call.line, col=call.col,
                            guarded=call.guarded))
                resolved.sort(key=lambda e: (e.line, e.col, e.callee))
                self.edges[fact.qualname] = resolved

    # -- resolution --------------------------------------------------------

    def resolve_dotted(self, dotted: str, _depth: int = 0) -> str | None:
        """Resolve a dotted name to a known function qualname, following
        package re-exports and landing class names on ``__init__``."""
        if _depth > 8:
            return None
        if dotted in self.functions:
            return dotted
        if dotted in self.classes:
            ctor = f"{dotted}.__init__"
            return ctor if ctor in self.functions else None
        parts = dotted.split(".")
        for cut in range(len(parts) - 1, 0, -1):
            prefix = ".".join(parts[:cut])
            summary = self.modules.get(prefix)
            if summary is None:
                continue
            rest = parts[cut:]
            bound = summary.bindings.get(rest[0])
            if bound is None:
                return None
            tail = ".".join(rest[1:])
            rebased = f"{bound}.{tail}" if tail else bound
            return self.resolve_dotted(rebased, _depth + 1)
        return None

    def _enclosing_class(self, qualname: str) -> str | None:
        parts = qualname.split(".")
        for cut in range(len(parts) - 1, 0, -1):
            prefix = ".".join(parts[:cut])
            if prefix in self.classes:
                return prefix
        return None

    def resolve_target(self, target: str, caller: str) -> str | None:
        """Resolve one encoded call target in the caller's context."""
        if target.startswith("dotted:"):
            return self.resolve_dotted(target[len("dotted:"):])
        if target.startswith("self:"):
            owner = self._enclosing_class(caller)
            if owner is None:
                return None
            candidate = f"{owner}.{target[len('self:'):]}"
            return candidate if candidate in self.functions else None
        if target.startswith("selfattr:"):
            _, attr, method = target.split(":", 2)
            owner = self._enclosing_class(caller)
            if owner is None:
                return None
            attr_class = self.classes.get(owner, {}).get(attr)
            if attr_class is None:
                return None
            resolved_class = self._resolve_class(attr_class)
            if resolved_class is None:
                return None
            candidate = f"{resolved_class}.{method}"
            return candidate if candidate in self.functions else None
        return None

    def _resolve_class(self, dotted: str, _depth: int = 0) -> str | None:
        if _depth > 8:
            return None
        if dotted in self.classes:
            return dotted
        parts = dotted.split(".")
        for cut in range(len(parts) - 1, 0, -1):
            prefix = ".".join(parts[:cut])
            summary = self.modules.get(prefix)
            if summary is None:
                continue
            bound = summary.bindings.get(parts[cut])
            if bound is None:
                return None
            tail = ".".join(parts[cut + 1:])
            rebased = f"{bound}.{tail}" if tail else bound
            return self._resolve_class(rebased, _depth + 1)
        return None

    # -- traversal ---------------------------------------------------------

    def match_roots(self, root_specs) -> list[str]:
        """Function qualnames matching ``(path prefix, name glob)`` or
        exact-qualname root specs, in sorted order."""
        matched: set[str] = set()
        for spec in root_specs:
            if isinstance(spec, str):
                if spec in self.functions:
                    matched.add(spec)
                continue
            prefix, pattern = spec
            for qual in self.functions:
                path = self.paths[qual]
                name = qual.rsplit(".", 1)[-1]
                if path.startswith(prefix) and fnmatch.fnmatch(name, pattern):
                    matched.add(qual)
        return sorted(matched)

    def reachable(self, roots, descend=None):
        """BFS from ``roots``; returns ``{qualname: call chain}`` where
        the chain is the deterministic shortest root path.

        ``descend(qualname) -> bool`` gates traversal *into* a
        function's callees (the taint walk stops at sanctioned-owner
        modules without reporting inside them).
        """
        chains: dict[str, tuple[str, ...]] = {}
        queue: deque[str] = deque()
        for root in sorted(roots):
            if root in self.functions and root not in chains:
                chains[root] = (root,)
                queue.append(root)
        while queue:
            current = queue.popleft()
            if descend is not None and not descend(current):
                continue
            for edge in self.edges.get(current, ()):
                if edge.callee not in chains:
                    chains[edge.callee] = chains[current] + (edge.callee,)
                    queue.append(edge.callee)
        return chains

    def reachable_unguarded(self, roots):
        """BFS from ``roots`` propagating *unguardedness*: an edge made
        inside a ``with <lock>`` block protects its whole subtree, so
        only lock-free paths extend the frontier.  Returns
        ``{qualname: chain}`` for functions reachable entirely outside
        locks."""
        chains: dict[str, tuple[str, ...]] = {}
        queue: deque[str] = deque()
        for root in sorted(roots):
            if root in self.functions and root not in chains:
                chains[root] = (root,)
                queue.append(root)
        while queue:
            current = queue.popleft()
            for edge in self.edges.get(current, ()):
                if edge.guarded or edge.callee in chains:
                    continue
                chains[edge.callee] = chains[current] + (edge.callee,)
                queue.append(edge.callee)
        return chains
