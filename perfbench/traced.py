"""Traced run of one ``repro-vt`` invocation, for the per-layer breakdown.

Usage, from the root of a checkout::

    PYTHONPATH=src python3 perfbench/traced.py OUT.json -- <repro-vt arguments>

The driver imports ``repro.cli`` inside a ``startup.import`` span, wraps
the public entry points listed in :func:`entry_points` at the site where
their callers look them up, calls ``repro.cli.main(argv)`` in this
process, restores every wrapper, and writes the per-layer totals to
``OUT.json``.  Standard output and the exit status are those of the
command itself, so the harness checks a traced run's outputs exactly like
an untraced one.  ``src/`` is never modified: every span is recorded from
here.

Span rules:

* a span records its name, start, end, parent and the growth of
  ``getrusage(RUSAGE_SELF).ru_maxrss`` while it was open;
* a span's self time is its duration minus the durations of its child
  spans, so self times partition the root spans exactly;
* a generator entry point is timed once per resumption (span opened at
  ``next()``, closed when the item is produced), never across the
  consumer's work between items;
* spans recorded in forked executor workers stay in those workers; the
  parent sees that time as the self time of ``parallel.wait``.
"""

from __future__ import annotations

import time

#: Read before any other import, so the in-process wall covers them too.
_STARTED = time.perf_counter()

import array  # noqa: E402
import functools  # noqa: E402
import importlib  # noqa: E402
import inspect  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from typing import Any, Callable  # noqa: E402

#: Figure analyses: (span name, module, attribute path in the module).
#: ``repro.cli`` reaches each one as ``<module alias>.<attr>`` or as a
#: method of the store at call time, so patching the module or class
#: attribute is patching the call site.
FIGURES: tuple[tuple[str, str, str], ...] = (
    ("analysis.table2", "repro.store.reportstore", "ReportStore.stats"),
    ("analysis.table3", "repro.analysis.dataset", "file_type_distribution"),
    ("analysis.fig1", "repro.analysis.dataset", "ReportsPerSample.from_store"),
    ("analysis.fig2", "repro.analysis.dynamics", "stable_dynamic_split"),
    ("analysis.fig3_fig4", "repro.analysis.dynamics", "stable_sample_profile"),
    ("analysis.fig5", "repro.analysis.dynamics", "delta_distributions"),
    ("analysis.fig6", "repro.analysis.dynamics", "per_type_dynamics"),
    ("analysis.fig7", "repro.analysis.dynamics", "interval_effect"),
    ("analysis.fig8", "repro.analysis.dynamics", "threshold_impact"),
    ("analysis.obs8", "repro.analysis.stabilization",
     "avrank_stabilization_profile"),
    ("analysis.fig9", "repro.analysis.stabilization",
     "label_stabilization_profile"),
    ("analysis.fig10", "repro.analysis.engines", "engine_stability"),
    ("analysis.fig11", "repro.analysis.engines", "engine_correlation"),
)

#: Every span name the driver can record, in pipeline order.
SPANS: tuple[str, ...] = (
    "startup.import",
    "synth.population",
    "vt.scan",
    "vt.feed",
    "store.ingest",
    "store.freeze",
    "store.close",
    "store.save",
    "store.merge",
    "parallel.wait",
    "parallel.package",
    "store.load",
    "store.decode",
    "core.series",
    "core.flips",
    "core.correlation",
    *(name for name, _, _ in FIGURES),
    "analysis.render",
)


class Tracer:
    """In-memory span recorder.

    Spans are kept in flat arrays (about 30 bytes each) so that tracing
    every scan of a run does not itself move the memory figures much.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self._name_ids = {name: i for i, name in enumerate(SPANS)}
        self.names: list[str] = list(SPANS)
        self.starts = array.array("d")
        self.ends = array.array("d")
        self.parents = array.array("l")
        self.name_of = array.array("H")
        self.rss_raise_kb = array.array("q")
        self._stack: list[tuple[int, int]] = []  # (span index, rss at open)
        self._open: dict[str, int] = {}

    def is_open(self, name: str) -> bool:
        return self._open.get(name, 0) > 0

    def open(self, name: str) -> None:
        index = len(self.starts)
        self.parents.append(self._stack[-1][0] if self._stack else -1)
        self.name_of.append(self._name_ids[name])
        self.ends.append(0.0)
        self.rss_raise_kb.append(0)
        self._open[name] = self._open.get(name, 0) + 1
        self._stack.append((index, _maxrss_kb()))
        self.starts.append(self._clock())

    def close(self) -> None:
        end = self._clock()
        index, rss_open = self._stack.pop()
        self.ends[index] = end
        self.rss_raise_kb[index] = _maxrss_kb() - rss_open
        self._open[self.names[self.name_of[index]]] -= 1

    def summary(self) -> dict[str, Any]:
        """Per-name totals: self seconds, span count, memory raise.

        ``rss_raise_mb`` sums only the outermost span of each name, so a
        name nested in itself is not counted twice.
        """
        n = len(self.starts)
        child_s = [0.0] * n
        for i in range(n):
            parent = self.parents[i]
            if parent >= 0:
                child_s[parent] += self.ends[i] - self.starts[i]
        totals = {name: {"self_s": 0.0, "spans": 0, "rss_raise_mb": 0.0}
                  for name in self.names}
        roots_s = 0.0
        for i in range(n):
            name_id = self.name_of[i]
            entry = totals[self.names[name_id]]
            duration = self.ends[i] - self.starts[i]
            entry["self_s"] += duration - child_s[i]
            entry["spans"] += 1
            parent = self.parents[i]
            if parent < 0:
                roots_s += duration
            ancestor = parent
            while ancestor >= 0 and self.name_of[ancestor] != name_id:
                ancestor = self.parents[ancestor]
            if ancestor < 0:
                entry["rss_raise_mb"] += self.rss_raise_kb[i] / 1024.0
        return {"spans": totals, "roots_s": roots_s}


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


@dataclass
class Patch:
    """One wrapped entry point: ``owner.attr`` recorded as span ``span``."""

    owner: Any
    attr: str
    span: str
    #: Called with each produced item (generators) or the return value.
    on_item: Callable[[Any, tuple, dict], None] | None = None
    original: Any = None


class TracedRun:
    """Wraps the entry points, runs the CLI, restores, summarises."""

    def __init__(self) -> None:
        self.tracer = Tracer()
        self.counts: dict[str, float] = {
            "synth.samples": 0, "vt.scan.reports": 0,
            "store.freeze.blocks": 0, "store.save.bytes": 0,
            "parallel.tasks": 0, "parallel.retried": 0,
            "parallel.workers_lost": 0, "store.decode.passes": 0,
            "store.decode.reports": 0,
        }
        self.patches: list[Patch] = []
        #: (store, blocks_decoded when load returned, blocks stored).
        self.loaded: list[tuple[Any, int, int]] = []

    # -- counters fed by the wrappers ---------------------------------

    def _count(self, key: str) -> Callable:
        def hook(_item, _args, _kwargs) -> None:
            self.counts[key] += 1
        return hook

    def _saved(self, _result, args, kwargs) -> None:
        path = args[1] if len(args) > 1 else kwargs["path"]
        self.counts["store.save.bytes"] += os.path.getsize(path)

    def _scheduled(self, report, _args, _kwargs) -> None:
        self.counts["parallel.tasks"] += report.tasks
        self.counts["parallel.retried"] += report.retried
        self.counts["parallel.workers_lost"] += report.workers_lost

    def _loaded(self, store, _args, _kwargs) -> None:
        stored = sum(len(shard.blocks) for shard in store.shards.values())
        self.loaded.append((store, store.cache_stats().blocks_decoded, stored))

    def _decoded(self, size: Callable[[Any], int]) -> Callable:
        def hook(item, _args, _kwargs) -> None:
            self.counts["store.decode.reports"] += size(item)
        return hook

    # -- wrapping -----------------------------------------------------

    def entry_points(self) -> list[Patch]:
        """Every wrapped entry point, at the site its caller looks it up.

        Methods are patched on their class (callers look them up on the
        instance, which falls through to the class); functions that a
        caller imported by name are patched in the caller's module
        namespace, because that binding was made at import time.
        """
        import repro.cli as cli
        from repro.analysis import engines, rendering
        from repro.parallel import runner
        from repro.parallel.scheduler import ShardScheduler
        from repro.store.merge import StreamingMerge
        from repro.store.reportstore import ReportStore
        from repro.store.shard import CompressedBlock
        from repro.synth.population import PopulationGenerator
        from repro.vt.feed import PremiumFeed
        from repro.vt.service import VirusTotalService

        patches = [
            Patch(PopulationGenerator, "iter_range", "synth.population",
                  self._count("synth.samples")),
            Patch(VirusTotalService, "upload", "vt.scan",
                  self._count("vt.scan.reports")),
            Patch(VirusTotalService, "rescan", "vt.scan",
                  self._count("vt.scan.reports")),
            Patch(PremiumFeed, "poll", "vt.feed"),
            Patch(ReportStore, "ingest_batch", "store.ingest"),
            Patch(ReportStore, "ingest_arrays", "store.ingest"),
            Patch(CompressedBlock, "from_records", "store.freeze",
                  self._count("store.freeze.blocks")),
            Patch(CompressedBlock, "from_batch", "store.freeze",
                  self._count("store.freeze.blocks")),
            Patch(ReportStore, "close", "store.close"),
            Patch(ReportStore, "save", "store.save", self._saved),
            Patch(StreamingMerge, "add", "store.merge"),
            Patch(StreamingMerge, "finish", "store.merge"),
            Patch(ShardScheduler, "run", "parallel.wait", self._scheduled),
            Patch(runner, "frozen_shard_of", "parallel.package"),
            Patch(ReportStore, "load", "store.load", self._loaded),
            Patch(ReportStore, "iter_sample_reports", "store.decode",
                  self._decoded(lambda item: len(item[1]))),
            Patch(ReportStore, "iter_reports", "store.decode",
                  self._decoded(lambda item: 1)),
            Patch(ReportStore, "iter_batches", "store.decode",
                  self._decoded(len)),
            Patch(ReportStore, "series_frame", "store.decode",
                  self._decoded(lambda frame: frame.n_reports)),
            Patch(cli, "collect_series", "core.series"),
            Patch(engines, "analyze_flips", "core.flips"),
            Patch(engines, "correlation_analysis", "core.correlation"),
            Patch(engines, "per_type_analyses", "core.correlation"),
        ]
        for span, module, path in FIGURES:
            owner = importlib.import_module(module)
            *parents, attr = path.split(".")
            for parent in parents:
                owner = getattr(owner, parent)
            patches.append(Patch(owner, attr, span))
        for attr in sorted(vars(rendering)):
            if attr.startswith("render_") and callable(getattr(rendering, attr)):
                patches.append(Patch(rendering, attr, "analysis.render"))
        return patches

    def install(self) -> None:
        self.patches = self.entry_points()
        for patch in self.patches:
            patch.original = inspect.getattr_static(patch.owner, patch.attr)
            setattr(patch.owner, patch.attr, self._wrap(patch))

    def restore(self) -> None:
        for patch in reversed(self.patches):
            setattr(patch.owner, patch.attr, patch.original)

    def _wrap(self, patch: Patch):
        original = patch.original
        is_classmethod = isinstance(original, classmethod)
        fn = original.__func__ if is_classmethod else original
        tracer, span, on_item = self.tracer, patch.span, patch.on_item
        decode = span == "store.decode"

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                inner = fn(*args, **kwargs)
                # A pass nested in another decode pass (iter_batches
                # inside series_frame) is that pass's work, not a new one.
                counted = not (decode and tracer.is_open(span))
                if decode and counted:
                    self.counts["store.decode.passes"] += 1
                return _resumptions(tracer, span, inner,
                                    on_item if counted else None,
                                    args, kwargs)
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                counted = not (decode and tracer.is_open(span))
                tracer.open(span)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer.close()
                if decode and counted:
                    self.counts["store.decode.passes"] += 1
                if on_item is not None and counted:
                    on_item(result, args, kwargs)
                return result

        return classmethod(wrapper) if is_classmethod else wrapper

    # -- running ------------------------------------------------------

    def run(self, argv: list[str]) -> int:
        """Import, wrap, run ``repro.cli.main(argv)``, restore."""
        self.tracer.open("startup.import")
        try:
            cli = importlib.import_module("repro.cli")
        finally:
            self.tracer.close()
        self.install()
        try:
            status = cli.main(argv)
        finally:
            self.restore()
            sys.stdout.flush()
        return status

    def result(self, wall_s: float, status: int) -> dict[str, Any]:
        summary = self.tracer.summary()
        decoded = sum(store.cache_stats().blocks_decoded - base
                      for store, base, _ in self.loaded)
        stored = sum(blocks for _, _, blocks in self.loaded)
        return {
            "status": status,
            "wall_s": wall_s,
            "roots_s": summary["roots_s"],
            "spans": summary["spans"],
            "counts": {**self.counts,
                       "store.decode.blocks": decoded,
                       "store.decode.blocks_stored": stored},
        }


def _resumptions(tracer: Tracer, span: str, inner, on_item, args, kwargs):
    """Re-yield ``inner``, timing each resumption as one span."""
    try:
        while True:
            tracer.open(span)
            try:
                item = next(inner)
            except StopIteration:
                return
            finally:
                tracer.close()
            if on_item is not None:
                on_item(item, args, kwargs)
            yield item
    finally:
        inner.close()


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: traced.py OUT.json -- <repro-vt arguments>",
              file=sys.stderr)
        return 2
    out_path, cli_argv = argv[0], argv[2:]
    run = TracedRun()
    status = run.run(cli_argv)
    result = run.result(time.perf_counter() - _STARTED, status)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return status


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
