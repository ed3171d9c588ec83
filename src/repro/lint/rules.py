"""The reprolint rules: RPL001-RPL007.

Each rule is a small class with a ``code``, a ``name`` and a
``check(module)`` generator yielding raw findings; :class:`MetricRule`
(RPL005) also records its metric sites, from which the engine builds
the whole-program kind table (:func:`metric_kind_conflicts`).  Rules
match import-resolved qualified names (:mod:`repro.lint.resolve`), so
aliased imports and attribute chains are covered, and because
*references* are matched — not just calls — indirection such as
``functools.partial(time.time)`` is caught too.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from typing import Iterable, Iterator

#: What one rule reports before pragma filtering: (line, col, message).
RawFinding = tuple[int, int, str]


# ---------------------------------------------------------------------------
# Shared machinery
# ---------------------------------------------------------------------------


class Rule:
    """Base class: one determinism-contract rule."""

    code: str = ""
    name: str = ""

    def check(self, module) -> Iterator[RawFinding]:
        raise NotImplementedError


def _references(module, banned: dict[str, str]) -> Iterator[RawFinding]:
    """Yield a finding for every reference resolving into ``banned``.

    ``banned`` maps qualified names to message templates; a key ending in
    ``.*`` matches the bare module and any attribute under it.  Matching
    references rather than calls means values passed to
    ``functools.partial`` (or stored in tables) are flagged at the point
    of reference.
    """
    exact = {q: msg for q, msg in banned.items() if not q.endswith(".*")}
    prefixes = {q[:-2]: msg for q, msg in banned.items() if q.endswith(".*")}
    inside_match: set[int] = set()
    for node in ast.walk(module.tree):
        if not isinstance(node, (ast.Name, ast.Attribute)):
            continue
        if id(node) in inside_match:
            continue
        qual = module.imports.qualname(node)
        if qual is None:
            continue
        message = exact.get(qual)
        if message is None:
            for prefix, msg in prefixes.items():
                if qual == prefix or qual.startswith(prefix + "."):
                    message = msg
                    break
        if message is not None:
            # ast.walk visits parents before children, so marking this
            # match's descendants keeps `secrets.token_hex` from also
            # reporting the inner `secrets` Name against `secrets.*`.
            inside_match.update(id(sub) for sub in ast.walk(node)
                                if sub is not node)
            yield (node.lineno, node.col_offset,
                   message.format(qual=qual))


# ---------------------------------------------------------------------------
# RPL001 — wall-clock reads
# ---------------------------------------------------------------------------


class WallClockRule(Rule):
    """Wall-clock reads belong in the injectable clock modules only.

    ``repro.vt.clock`` owns simulated time and ``repro.obs.timing`` owns
    the real/tick/sim span clocks; everywhere else a wall-clock read
    breaks fixed-seed reproducibility (or, for the monotonic family,
    smuggles wall durations into what should be injected time).
    """

    code = "RPL001"
    name = "wall-clock-read"

    _MESSAGE = ("wall-clock read {qual} — inject a clock "
                "(repro.vt.clock.SimulationClock / repro.obs.timing) instead")

    BANNED = {
        "time.time": _MESSAGE,
        "time.time_ns": _MESSAGE,
        "time.monotonic": _MESSAGE,
        "time.monotonic_ns": _MESSAGE,
        "time.perf_counter": _MESSAGE,
        "time.perf_counter_ns": _MESSAGE,
        "datetime.datetime.now": _MESSAGE,
        "datetime.datetime.utcnow": _MESSAGE,
        "datetime.datetime.today": _MESSAGE,
        "datetime.date.today": _MESSAGE,
    }

    def check(self, module) -> Iterator[RawFinding]:
        return _references(module, self.BANNED)


# ---------------------------------------------------------------------------
# RPL002 — global / unseeded randomness
# ---------------------------------------------------------------------------

#: ``random`` module-level convenience functions (the hidden global
#: Mersenne Twister — order-dependent, cross-test leaking state).
_RANDOM_MODULE_FNS = (
    "random", "randint", "randrange", "choice", "choices", "shuffle",
    "sample", "uniform", "triangular", "betavariate", "expovariate",
    "gammavariate", "gauss", "lognormvariate", "normalvariate",
    "vonmisesvariate", "paretovariate", "weibullvariate", "getrandbits",
    "seed", "setstate", "getstate",
)

#: ``numpy.random`` legacy module-level functions (same global-state
#: problem, numpy flavour).
_NUMPY_RANDOM_FNS = (
    "rand", "randn", "randint", "random", "random_sample", "ranf",
    "sample", "choice", "shuffle", "permutation", "seed", "bytes",
    "normal", "uniform", "poisson", "binomial", "beta", "gamma",
    "exponential", "standard_normal", "get_state", "set_state",
)


_GLOBAL_RANDOM_MSG = ("global random state via {qual} — use a keyed "
                      "random.Random(f\"{{seed}}:...\") stream instead")

_UNSEEDED_BANNED = dict(
    [(f"random.{fn}", _GLOBAL_RANDOM_MSG) for fn in _RANDOM_MODULE_FNS]
    + [(f"numpy.random.{fn}", _GLOBAL_RANDOM_MSG)
       for fn in _NUMPY_RANDOM_FNS]
    + [("random.SystemRandom",
        "random.SystemRandom is OS entropy via {qual} — "
        "use a keyed random.Random stream instead")]
)


class UnseededRandomRule(Rule):
    """Randomness must come from a keyed, explicitly seeded stream.

    The house idiom is ``random.Random(f"{seed}:{purpose}:{key}")`` /
    ``numpy.random.default_rng(seed)``: every stream is a pure function
    of (seed, key), so resume, shard and replay all converge.  The global
    ``random`` module functions and argless constructors are banned.
    """

    code = "RPL002"
    name = "unseeded-random"

    BANNED = _UNSEEDED_BANNED

    #: Constructors that are fine *with* a seed but banned argless.
    SEEDABLE = {
        "random.Random": ("random.Random() without a seed — key it: "
                          "random.Random(f\"{seed}:purpose:key\")"),
        "numpy.random.default_rng": (
            "numpy.random.default_rng() without a seed — pass the "
            "scenario seed explicitly"),
    }

    def check(self, module) -> Iterator[RawFinding]:
        yield from _references(module, self.BANNED)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            qual = module.imports.qualname(node.func)
            message = self.SEEDABLE.get(qual) if qual else None
            if message is not None and not node.args and not node.keywords:
                yield (node.lineno, node.col_offset, message)


# ---------------------------------------------------------------------------
# RPL003 — entropy sources
# ---------------------------------------------------------------------------


class EntropyRule(Rule):
    """OS entropy has no place on the simulation path.

    Identifiers must be content-derived (sha256 of the payload, keyed
    hashes of (seed, index)) so two runs agree byte-for-byte.
    """

    code = "RPL003"
    name = "entropy-source"

    _MESSAGE = ("entropy source {qual} — derive identifiers from content "
                "or (seed, key) hashes instead")

    BANNED = {
        "uuid.uuid1": _MESSAGE,
        "uuid.uuid4": _MESSAGE,
        "os.urandom": _MESSAGE,
        "os.getrandom": _MESSAGE,
        "secrets.*": _MESSAGE,
    }

    def check(self, module) -> Iterator[RawFinding]:
        return _references(module, self.BANNED)


# ---------------------------------------------------------------------------
# RPL004 — unordered iteration
# ---------------------------------------------------------------------------

#: Call qualnames whose result order is filesystem- or hash-dependent.
_UNORDERED_CALLS = {
    "glob.glob": "glob.glob()",
    "glob.iglob": "glob.iglob()",
    "os.listdir": "os.listdir()",
    "os.scandir": "os.scandir()",
}

#: Wrappers that preserve (lack of) order — unwrap and keep checking.
_ORDER_PRESERVING = ("enumerate", "reversed", "list", "tuple", "iter")

#: Consumers whose result does not depend on input order — a
#: comprehension fed straight into one of these is exempt.
_ORDER_INSENSITIVE = ("sorted", "set", "frozenset", "sum", "max", "min",
                      "any", "all", "len")


class UnorderedIterationRule(Rule):
    """Iterating a set / directory listing feeds hash or filesystem order
    into loops whose outputs (digests, stores, exports) must be stable —
    wrap the iterable in ``sorted()``.

    Matching is syntactic: set displays, set comprehensions,
    ``set()``/``frozenset()`` constructors, ``glob``/``listdir``/
    ``scandir`` calls and ``.iterdir()`` method calls, iterated directly
    by a ``for`` statement or a comprehension.  (Dict iteration is
    insertion-ordered and therefore exempt.)
    """

    code = "RPL004"
    name = "unordered-iteration"

    def check(self, module) -> Iterator[RawFinding]:
        exempt = self._order_insensitive_comprehensions(module.tree)
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iters = [node.iter]
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                   ast.GeneratorExp)):
                if id(node) in exempt:
                    continue
                iters = [gen.iter for gen in node.generators]
            else:
                continue
            for expr in iters:
                reason = self._unordered_reason(expr, module.imports)
                if reason is not None:
                    yield (expr.lineno, expr.col_offset,
                           f"iteration over {reason} has no stable order "
                           f"— wrap it in sorted()")

    @staticmethod
    def _order_insensitive_comprehensions(tree: ast.Module) -> frozenset[int]:
        """ids of comprehensions fed directly to an order-insensitive
        consumer (``sorted(x for x in ...)`` needs no inner ordering);
        set comprehensions are order-insensitive producers outright."""
        exempt = []
        for node in ast.walk(tree):
            if isinstance(node, ast.SetComp):
                exempt.append(id(node))
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id in _ORDER_INSENSITIVE):
                exempt.extend(
                    id(arg) for arg in node.args
                    if isinstance(arg, (ast.ListComp, ast.SetComp,
                                        ast.DictComp, ast.GeneratorExp)))
        return frozenset(exempt)

    def _unordered_reason(self, node: ast.expr, imports) -> str | None:
        # Unwrap order-preserving wrappers: enumerate(set(...)) is still
        # unordered underneath.
        while (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
               and node.func.id in _ORDER_PRESERVING and node.args):
            node = node.args[0]
        if isinstance(node, ast.Set):
            return "a set display"
        if isinstance(node, ast.SetComp):
            return "a set comprehension"
        if isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name) and \
                    node.func.id in ("set", "frozenset"):
                return f"{node.func.id}()"
            qual = imports.qualname(node.func)
            if qual in _UNORDERED_CALLS:
                return _UNORDERED_CALLS[qual]
            if isinstance(node.func, ast.Attribute) and \
                    node.func.attr in ("iterdir", "glob", "rglob"):
                return f".{node.func.attr}()"
        return None


# ---------------------------------------------------------------------------
# RPL005 — metric-name discipline
# ---------------------------------------------------------------------------

#: The naming grammar every metric name must match.
METRIC_NAME_RE = re.compile(r"^[a-z0-9_.]+$")

#: Registry instrument methods and the kind each one registers.
_INSTRUMENT_KINDS = {
    "counter": "counter",
    "gauge": "gauge",
    "histogram": "histogram",
    "span": "histogram",  # span() times into a histogram of the same name
}


@dataclass
class _MetricSite:
    path: str
    line: int
    col: int
    name: str
    kind: str


class MetricRule(Rule):
    """The :class:`repro.obs.registry.MetricsRegistry` one-kind-per-name
    invariant, checked before runtime over *all* call sites at once.

    Three checks: the metric name must be a string literal (a computed
    name defeats static accounting and invites cardinality explosions);
    it must match ``[a-z0-9_.]+`` (the grammar both exporters assume);
    and a whole-program symbol table asserts each name keeps exactly one
    instrument kind across every call site — the invariant the registry
    enforces per-process at runtime, widened here to call sites that may
    never share a process.
    """

    code = "RPL005"
    name = "metric-discipline"

    def __init__(self) -> None:
        self._sites: list[_MetricSite] = []

    def check(self, module) -> Iterator[RawFinding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            kind = self._instrument_kind(node.func)
            if kind is None:
                continue
            if not node.args:
                continue
            name_arg = node.args[0]
            if not (isinstance(name_arg, ast.Constant)
                    and isinstance(name_arg.value, str)):
                yield (name_arg.lineno, name_arg.col_offset,
                       "metric name must be a string literal "
                       "(computed names defeat static accounting)")
                continue
            name = name_arg.value
            if not METRIC_NAME_RE.match(name):
                yield (name_arg.lineno, name_arg.col_offset,
                       f"metric name {name!r} violates the naming grammar "
                       f"[a-z0-9_.]+")
                continue
            self._sites.append(_MetricSite(
                module.path, name_arg.lineno, name_arg.col_offset,
                name, kind))

    @staticmethod
    def _instrument_kind(func: ast.expr) -> str | None:
        if isinstance(func, ast.Attribute):
            if func.attr == "traced":
                return "histogram"  # @traced(name) records a span histogram
            return _INSTRUMENT_KINDS.get(func.attr)
        if isinstance(func, ast.Name) and func.id == "traced":
            return "histogram"
        return None


def metric_kind_conflicts(
        sites: Iterable[tuple[str, int, int, str, str]],
) -> Iterator[tuple[str, RawFinding]]:
    """The RPL005 whole-program kind table over ``(path, line, col,
    name, kind)`` sites, which the engine gathers from every file's
    :class:`MetricRule` sites."""
    canonical: dict[str, tuple[str, int, int, str, str]] = {}
    for site in sorted(sites):
        path, line, col, name, kind = site
        first = canonical.setdefault(name, site)
        if kind != first[4]:
            yield (path, (
                line, col,
                f"metric {name!r} registered as a {kind} here "
                f"but as a {first[4]} at {first[0]}:{first[1]} — "
                f"one instrument kind per name"))


# ---------------------------------------------------------------------------
# RPL006 — swallowed exceptions in the resilience layers
# ---------------------------------------------------------------------------


class SwallowRule(Rule):
    """``except: pass`` in collect/faults silently voids the convergence
    guarantee — every failure there must be counted, dead-lettered or
    re-raised.
    """

    code = "RPL006"
    name = "swallowed-exception"

    def check(self, module) -> Iterator[RawFinding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield (node.lineno, node.col_offset,
                       "bare except: catches everything, including "
                       "KeyboardInterrupt — name the exception type")
                continue
            if self._is_broad(node.type) and self._swallows(node.body):
                yield (node.lineno, node.col_offset,
                       "except Exception: pass swallows failures the "
                       "resilience layer must count or dead-letter")

    @staticmethod
    def _is_broad(type_node: ast.expr) -> bool:
        return (isinstance(type_node, ast.Name)
                and type_node.id in ("Exception", "BaseException"))

    @staticmethod
    def _swallows(body: list[ast.stmt]) -> bool:
        return all(
            isinstance(stmt, ast.Pass)
            or (isinstance(stmt, ast.Expr)
                and isinstance(stmt.value, ast.Constant))
            for stmt in body)


# ---------------------------------------------------------------------------
# RPL007 — process fan-out outside the executor layer
# ---------------------------------------------------------------------------


class PoolRule(Rule):
    """``repro.parallel.executors`` is the single owner of process
    fan-out: it pins the start method, detects and replaces dead
    workers, and hands results to the scheduler that merges them
    deterministically.  A pool or worker process constructed anywhere
    else bypasses all three guarantees.
    """

    code = "RPL007"
    name = "rogue-pool"

    _TARGETS = ("Pool", "Process")

    def check(self, module) -> Iterator[RawFinding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            offender = self._offender(node.func, module.imports)
            if offender is not None:
                yield (node.lineno, node.col_offset,
                       f"{offender} constructed outside "
                       f"repro.parallel.executors — route fan-out through "
                       f"run_parallel()")

    def _offender(self, func: ast.expr, imports) -> str | None:
        qual = imports.qualname(func)
        if qual is not None:
            tail = qual.rsplit(".", 1)[-1]
            if tail in self._TARGETS and (
                    qual.startswith("multiprocessing")
                    or ".multiprocessing." in qual):
                return qual
            if qual.startswith("multiprocessing"):
                return None  # other multiprocessing attrs are fine
        # ctx.Pool(...) — any attribute named Pool/Process is treated as
        # a pool construction; contexts are the common carrier and no
        # other object in this codebase exposes those names.
        if isinstance(func, ast.Attribute) and func.attr in self._TARGETS \
                and qual is None:
            return f".{func.attr}()"
        return None


#: Rule registry, in code order — the engine instantiates fresh
#: instances per run so cross-file state never leaks between runs.
RULE_CLASSES: tuple[type[Rule], ...] = (
    WallClockRule,
    UnseededRandomRule,
    EntropyRule,
    UnorderedIterationRule,
    MetricRule,
    SwallowRule,
    PoolRule,
)
