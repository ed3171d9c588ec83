"""Configuration for reprolint: rule selection and the path policy.

The determinism contract does not bind every file equally: the injectable
clock modules *are* the sanctioned home of wall-clock reads, the elastic
executors *are* the sanctioned owners of worker processes, and the
metrics registry implementation necessarily passes metric names around as
variables.  The path policy encodes those carve-outs per rule, so the
self-check can run over all of ``src/repro`` without drowning the real
contract in sanctioned-owner noise.

Paths are matched in normalised package-relative form (``repro/vt/...``),
so the policy is independent of where the tree is checked out.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import PurePosixPath
from typing import Mapping

from repro.errors import LintError

#: Every rule code the engine knows, with a one-line summary.  RPL000 is
#: the pragma-hygiene rule (unknown code in a pragma) and is never
#: disableable or path-scoped.
RULE_SUMMARIES: dict[str, str] = {
    "RPL000": "malformed reprolint pragma (unknown code or missing '- why')",
    "RPL001": "wall-clock read outside the injectable clock modules",
    "RPL002": "global or unseeded randomness instead of keyed per-sample RNG",
    "RPL003": "entropy source (uuid4, os.urandom, secrets) on the sim path",
    "RPL004": "iteration over an unordered source without sorted()",
    "RPL005": "metric-name discipline (literal, grammar, one kind per name)",
    "RPL006": "bare or swallowed exception handler in collect/faults",
    "RPL007": "multiprocessing pool/process built outside the executors",
    "RPL101": "attribute write reachable from a handler thread outside the "
              "owning lock's with block",
    "RPL102": "file/socket/mmap/store acquired but not closed on all paths",
    "RPL103": "wall-clock/env/entropy call reachable from the digest path",
    "RPL104": "non-ReproError (struct.error/IndexError/zlib.error) can "
              "escape a store/serve module boundary",
    "RPL105": "unbounded value (sha256, path, f-string) as a metric label",
}

ALL_CODES: frozenset[str] = frozenset(RULE_SUMMARIES)

#: The flow-rule family (:mod:`repro.lint.flowrules`).  RPL101/RPL103
#: are whole-program passes over the project call graph; RPL102/104/105
#: are per-file but share the same fact extractor, so all five live
#: outside the per-file ``RULE_CLASSES`` registry.
FLOW_CODES: frozenset[str] = frozenset(
    {"RPL101", "RPL102", "RPL103", "RPL104", "RPL105"})


def normalize_path(path: str) -> str:
    """Canonical display/policy form of a lint target path.

    Posix separators, ``./`` stripped, and everything up to a leading
    ``src/`` dropped, so checked-out and installed trees both yield
    ``repro/...`` paths the policy table can match.
    """
    posix = PurePosixPath(str(path).replace("\\", "/"))
    parts = [p for p in posix.parts if p not in (".",)]
    for anchor in ("src",):
        if anchor in parts[:-1]:
            cut = parts.index(anchor)
            if "repro" in parts[cut + 1:]:
                parts = parts[cut + 1:]
                break
    if "repro" in parts[:-1]:
        parts = parts[parts.index("repro"):]
    return "/".join(parts)


def _matches(path: str, pattern: str) -> bool:
    """Whether normalised ``path`` matches one policy ``pattern``.

    A pattern ending in ``/`` is a directory prefix; anything else must
    match the full path or a trailing path suffix at a ``/`` boundary.
    """
    if pattern.endswith("/"):
        return path.startswith(pattern) or f"/{pattern}" in f"/{path}"
    return path == pattern or path.endswith(f"/{pattern}")


@dataclass(frozen=True)
class PathPolicy:
    """Where one rule applies: include prefixes minus exclude patterns."""

    include: tuple[str, ...] = ("repro/",)
    exclude: tuple[str, ...] = ()

    def applies(self, path: str) -> bool:
        if self.include and not any(_matches(path, p) for p in self.include):
            return False
        return not any(_matches(path, p) for p in self.exclude)


#: The default per-rule path policy — the sanctioned-owner carve-outs.
DEFAULT_POLICIES: dict[str, PathPolicy] = {
    # Injectable clocks are the sanctioned home of wall-clock reads; the
    # serving-layer rate limiter and the executor heartbeat module meter
    # real elapsed time by definition (their default clocks are
    # injectable and overridden in tests), so they are structural
    # carve-outs here rather than pragmas.
    "RPL001": PathPolicy(exclude=("repro/vt/clock.py", "repro/obs/timing.py",
                                  "repro/serve/ratelimit.py",
                                  "repro/parallel/heartbeat.py")),
    "RPL002": PathPolicy(),
    "RPL003": PathPolicy(),
    "RPL004": PathPolicy(),
    # The registry/exporter implementation passes metric names as
    # variables by design; discipline is checked at recording call sites.
    "RPL005": PathPolicy(exclude=("repro/obs/registry.py",
                                  "repro/obs/timing.py",
                                  "repro/obs/export.py")),
    # The swallow rule is scoped to the resilience layers, where a
    # swallowed exception silently breaks the convergence guarantee.
    "RPL006": PathPolicy(include=("repro/collect/", "repro/faults/")),
    # The elastic executors are the sanctioned worker-process owners
    # (fork/spawn pools, reaping, respawn); everything else routes
    # fan-out through run_parallel().
    "RPL007": PathPolicy(exclude=("repro/parallel/executors/",)),
    # Lock discipline is asserted where the shared objects live: the
    # serving layer (handler threads) and the executor layer (worker
    # callbacks).  The heartbeat emitter is thread-confined by
    # construction — one emitter per worker, never shared — so it is a
    # structural carve-out rather than a pragma.
    "RPL101": PathPolicy(include=("repro/serve/", "repro/parallel/"),
                         exclude=("repro/parallel/heartbeat.py",)),
    "RPL102": PathPolicy(),
    # Digest purity stops at the sanctioned wall-clock owners (the same
    # carve-outs as RPL001): reaching one of those modules is fine, the
    # taint walk just does not descend into them.
    "RPL103": PathPolicy(exclude=("repro/vt/clock.py", "repro/obs/timing.py",
                                  "repro/serve/ratelimit.py",
                                  "repro/parallel/heartbeat.py")),
    # The exception contract binds the decode/serve surfaces, where a
    # raw struct.error/IndexError crossing the module boundary is PR
    # 6/8's corruption-surface bug class.
    "RPL104": PathPolicy(include=("repro/store/", "repro/serve/")),
    "RPL105": PathPolicy(exclude=("repro/obs/registry.py",
                                  "repro/obs/timing.py",
                                  "repro/obs/export.py")),
}

# ---------------------------------------------------------------------------
# Flow-analysis roots and carve-outs (consumed by repro.lint.flowrules)
# ---------------------------------------------------------------------------

#: RPL103 taint roots: the functions whose transitive callees define the
#: digest path.  Qualnames are module-qualified (``package.module.Class.
#: method``); every function reachable from one of these must be free of
#: wall-clock/env/entropy calls.
DIGEST_ROOTS: tuple[str, ...] = (
    "repro.store.reportstore.ReportStore.ingest",
    "repro.store.reportstore.ReportStore.ingest_arrays",
    "repro.store.reportstore.ReportStore.save",
    "repro.store.reportstore.ReportStore.digest",
    "repro.store.merge.StreamingMerge.add",
    "repro.store.merge.StreamingMerge.finish",
    "repro.parallel.worker.execute_range",
)

#: RPL101 thread roots: ``(path prefix, function-name glob)`` pairs
#: naming the entry points that run on handler/worker threads.  Writes
#: reachable from these without an interposed ``with <lock>`` block are
#: findings.
THREAD_ROOTS: tuple[tuple[str, str], ...] = (
    ("repro/serve/", "do_*"),
    ("repro/serve/", "handle_request"),
    ("repro/parallel/", "execute_task"),
    ("repro/parallel/", "_worker_main"),
)

#: RPL101 thread-confined attribute carve-outs: ``self.<attr>`` writes
#: that are safe without a lock because the owning object never crosses
#: threads.  ``http.server`` hands each request a fresh handler
#: instance on its own thread, so the per-request response plumbing is
#: confined by construction.
THREAD_CONFINED_ATTRS: frozenset[str] = frozenset({
    "close_connection",  # per-request BaseHTTPRequestHandler instance
})

#: RPL102 resource acquirers: a call resolving to one of these hands
#: back something that must be closed on every path.  Dotted entries
#: match import-resolved qualnames; a trailing ``()`` suffix entry like
#: ``ReportStore.load`` matches any receiver's method of that name.
RESOURCE_ACQUIRERS: frozenset[str] = frozenset({
    "open",
    "io.open",
    "gzip.open",
    "bz2.open",
    "lzma.open",
    "mmap.mmap",
    "socket.socket",
    "socket.create_connection",
    "tempfile.NamedTemporaryFile",
    "tempfile.TemporaryFile",
    "ReportStore.load",
})

#: RPL104 exception types that must not escape a store/serve module
#: boundary raw — wrap them in a :class:`repro.errors.ReproError`
#: subclass (``CorruptRecordError``, ``BlockAddressError``, ...).
#: ``KeyError``/``IndexError`` are builtins; the rest are dotted.
CONTRACT_BANNED_RAISES: frozenset[str] = frozenset({
    "struct.error", "zlib.error", "IndexError", "KeyError",
})

#: RPL104 decoder calls that raise non-ReproError on truncated or
#: corrupt input and therefore must sit inside a ``try`` whose handler
#: catches the matching family.  ``Struct.unpack`` covers module-level
#: ``_HEADER = struct.Struct(...)`` constants via the resolver; the
#: ``unpack_from`` forms are deliberately absent — their callers bounds-
#: check offsets first, and whole-buffer ``unpack``/``loads`` is where
#: truncation actually surfaces.
CONTRACT_DECODERS: dict[str, tuple[str, ...]] = {
    "struct.unpack": ("struct.error", "Exception"),
    "struct.Struct.unpack": ("struct.error", "Exception"),
    "zlib.decompress": ("zlib.error", "Exception"),
    "json.loads": ("json.JSONDecodeError", "ValueError", "Exception"),
}

#: RPL105 identifier fragments that mark a metric-label value as
#: unbounded (content hashes, per-minute keys, filesystem paths...).
#: Matched against each ``_``-separated segment of every identifier in
#: the label-value expression.
UNBOUNDED_LABEL_FRAGMENTS: frozenset[str] = frozenset({
    "sha", "sha256", "digest", "hexdigest", "hash", "minute", "uuid",
    "url", "path",
})


@dataclass(frozen=True)
class LintConfig:
    """One lint run's configuration.

    ``select=None`` enables every rule; otherwise only the given codes
    run (RPL000 pragma hygiene always runs).  Unknown codes raise
    :class:`~repro.errors.LintError` immediately — a typo'd ``--select``
    is an internal error, not an empty-but-green run.
    """

    select: frozenset[str] | None = None
    policies: Mapping[str, PathPolicy] = field(
        default_factory=lambda: dict(DEFAULT_POLICIES))

    def __post_init__(self) -> None:
        if self.select is not None:
            unknown = sorted(set(self.select) - ALL_CODES)
            if unknown:
                raise LintError(
                    f"unknown rule code(s) in select: {', '.join(unknown)}; "
                    f"known codes are {', '.join(sorted(ALL_CODES))}")

    def enabled(self, code: str) -> bool:
        if code == "RPL000":
            return True
        return self.select is None or code in self.select

    def rule_applies(self, code: str, path: str) -> bool:
        if not self.enabled(code):
            return False
        policy = self.policies.get(code)
        return policy.applies(path) if policy is not None else True


def parse_select(spec: str) -> frozenset[str]:
    """Parse a ``--select`` string (``RPL001,RPL004``) into codes."""
    codes = frozenset(
        token.strip().upper() for token in spec.split(",") if token.strip())
    if not codes:
        raise LintError("--select given but no rule codes parsed")
    return codes
