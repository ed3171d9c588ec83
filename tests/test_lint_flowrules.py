"""Flow-rule tests: RPL101-RPL105 over single- and multi-module fixtures.

The two whole-program rules (RPL101 lock discipline, RPL103 digest
purity) are exercised through :func:`repro.lint.lint_modules` with
fixture modules placed at the *real* root paths the config names
(``repro/serve/...``, ``repro/store/reportstore.py``), so root matching,
policy gating and the call-chain evidence all run exactly as they do on
the shipped tree.
"""

import textwrap

from repro.lint import (
    CallGraph,
    LintConfig,
    lint_modules,
    lint_source,
    render_text,
)
from repro.lint.config import DIGEST_ROOTS


def run_modules(modules, select):
    pairs = [(path, textwrap.dedent(src)) for path, src in modules]
    return lint_modules(pairs, config=LintConfig(select=frozenset(select)))


def run_one(source, path, select):
    return lint_source(textwrap.dedent(source), path=path,
                       config=LintConfig(select=frozenset(select)))


class TestLockDiscipline:
    HANDLER = """
        import threading

        class Handler:
            def __init__(self):
                self._lock = threading.Lock()
                self.hits = 0

            def do_GET(self):
                self.hits += 1

            def do_POST(self):
                with self._lock:
                    self.hits += 1
                self.close_connection = True
    """

    def test_unlocked_write_on_handler_path_is_flagged(self):
        result = run_modules(
            [("repro/serve/fixture.py", self.HANDLER)], {"RPL101"})
        assert [f.code for f in result.findings] == ["RPL101"]
        finding = result.findings[0]
        assert "self.hits" in finding.message
        assert finding.detail.startswith("unlocked call chain: ")
        assert "do_GET" in finding.detail

    def test_locked_write_and_thread_confined_attr_are_clean(self):
        # do_POST's write is inside `with self._lock`, and
        # close_connection is the declared thread-confined carve-out —
        # the only finding is do_GET's.
        result = run_modules(
            [("repro/serve/fixture.py", self.HANDLER)], {"RPL101"})
        assert all("do_GET" in f.detail for f in result.findings)

    def test_cross_module_write_reports_full_chain(self):
        registry = """
            class Registry:
                def record(self):
                    self.total = 1
        """
        handler = """
            from repro.serve.registry_fix import Registry

            class Handler:
                def __init__(self):
                    self._registry = Registry()

                def do_GET(self):
                    self._registry.record()
        """
        result = run_modules(
            [("repro/serve/registry_fix.py", registry),
             ("repro/serve/handler_fix.py", handler)], {"RPL101"})
        assert [f.path for f in result.findings] == \
            ["repro/serve/registry_fix.py"]
        assert result.findings[0].detail == (
            "unlocked call chain: "
            "repro.serve.handler_fix.Handler.do_GET -> "
            "repro.serve.registry_fix.Registry.record")

    def test_outside_thread_roots_is_clean(self):
        # The same shape under a non-serve path has no thread roots.
        result = run_modules(
            [("repro/analysis/fixture.py", self.HANDLER)], {"RPL101"})
        assert result.findings == []


class TestDigestPurity:
    def test_cross_module_taint_reports_full_chain_in_explain(self):
        store = """
            from repro.store.stamp_fix import stamp

            class ReportStore:
                def ingest(self, report):
                    return stamp(report)
        """
        stamp = """
            import time

            def stamp(report):
                return (time.time(), report)
        """
        result = run_modules(
            [("repro/store/reportstore.py", store),
             ("repro/store/stamp_fix.py", stamp)], {"RPL103"})
        assert [f.code for f in result.findings] == ["RPL103"]
        finding = result.findings[0]
        assert finding.path == "repro/store/stamp_fix.py"
        assert "time.time" in finding.message
        assert finding.detail == (
            "digest call chain: "
            "repro.store.reportstore.ReportStore.ingest -> "
            "repro.store.stamp_fix.stamp")
        # --explain renders the chain as an indented evidence line.
        text = render_text(result, explain=True)
        assert "\n    digest call chain: " in text

    def test_taint_does_not_descend_into_sanctioned_clock_owner(self):
        store = """
            from repro.vt.clock import tick

            class ReportStore:
                def ingest(self, report):
                    return tick(report)
        """
        clock = """
            import time

            def tick(report):
                return time.time()
        """
        result = run_modules(
            [("repro/store/reportstore.py", store),
             ("repro/vt/clock.py", clock)], {"RPL103"})
        assert result.findings == []

    def test_unreachable_impurity_is_not_flagged(self):
        store = """
            class ReportStore:
                def ingest(self, report):
                    return report
        """
        loose = """
            import time

            def banner():
                return time.time()
        """
        result = run_modules(
            [("repro/store/reportstore.py", store),
             ("repro/store/loose_fix.py", loose)], {"RPL103"})
        assert result.findings == []


class TestResourceLeaks:
    def test_never_closed_binding_is_flagged(self):
        result = run_one("""
            def leak(p):
                f = open(p)
                return 1
        """, "repro/fix/res.py", {"RPL102"})
        assert [f.code for f in result.findings] == ["RPL102"]
        assert "never closed" in result.findings[0].message

    def test_discarded_acquisition_is_flagged(self):
        result = run_one("""
            def drop(p):
                open(p)
        """, "repro/fix/res.py", {"RPL102"})
        assert [f.code for f in result.findings] == ["RPL102"]
        assert "discarded" in result.findings[0].message

    def test_with_block_close_and_handoff_are_clean(self):
        result = run_one("""
            def ok_with(p):
                with open(p) as f:
                    return f.read()

            def ok_close(p):
                f = open(p)
                try:
                    return f.read()
                finally:
                    f.close()

            def ok_handoff(p):
                f = open(p)
                return f

            def ok_chained(p):
                return open(p).read()
        """, "repro/fix/res.py", {"RPL102"})
        assert result.findings == []

    def test_handoff_across_raising_statements_needs_cleanup(self):
        result = run_one("""
            def risky(self, p, parse):
                f = open(p)
                parse(f)
                self.f = f
        """, "repro/fix/res.py", {"RPL102"})
        assert [f.code for f in result.findings] == ["RPL102"]
        assert "can raise" in result.findings[0].message

    def test_cleanup_close_discharges_risky_handoff(self):
        result = run_one("""
            def careful(self, p, parse):
                f = open(p)
                try:
                    parse(f)
                except Exception:
                    f.close()
                    raise
                self.f = f
        """, "repro/fix/res.py", {"RPL102"})
        assert result.findings == []

    def test_store_load_counts_as_acquisition(self):
        result = run_one("""
            from repro.store.reportstore import ReportStore

            def peek(path):
                store = ReportStore.load(path)
                return 1
        """, "repro/fix/res.py", {"RPL102"})
        assert [f.code for f in result.findings] == ["RPL102"]
        assert "ReportStore.load" in result.findings[0].message


class TestExceptionContract:
    def test_raw_banned_raise_in_store_is_flagged(self):
        result = run_one("""
            def at(i):
                if i < 0:
                    raise IndexError("no")
                return i
        """, "repro/store/fix.py", {"RPL104"})
        assert [f.code for f in result.findings] == ["RPL104"]
        assert "IndexError" in result.findings[0].message

    def test_unwrapped_decoder_is_flagged(self):
        result = run_one("""
            import struct

            def head(buf):
                return struct.unpack("<I", buf)
        """, "repro/store/fix.py", {"RPL104"})
        assert [f.code for f in result.findings] == ["RPL104"]
        assert "struct.unpack" in result.findings[0].message

    def test_wrapped_decoders_and_unpack_from_are_clean(self):
        result = run_one("""
            import json
            import struct

            from repro.errors import CorruptRecordError

            def head(buf):
                try:
                    return struct.unpack("<I", buf)
                except struct.error as exc:
                    raise CorruptRecordError(str(exc)) from exc

            def meta(blob):
                try:
                    return json.loads(blob)
                except ValueError as exc:
                    raise CorruptRecordError(str(exc)) from exc

            def peek(buf):
                return struct.unpack_from("<I", buf, 0)
        """, "repro/store/fix.py", {"RPL104"})
        assert result.findings == []

    def test_contract_is_scoped_to_store_and_serve(self):
        result = run_one("""
            def at(i):
                raise IndexError("no")
        """, "repro/analysis/fix.py", {"RPL104"})
        assert result.findings == []


class TestLabelCardinality:
    def test_fstring_converter_and_fragment_labels_are_flagged(self):
        result = run_one("""
            def record(metrics, sha256, kind):
                metrics.counter("reports.total", kind=f"t:{kind}")
                metrics.counter("reports.total", sample=sha256)
                metrics.counter("reports.total", kind=str(kind))
        """, "repro/fix/labels.py", {"RPL105"})
        assert [f.code for f in result.findings] == ["RPL105"] * 3
        messages = " | ".join(f.message for f in result.findings)
        assert "f-string" in messages
        assert "sha256" in messages
        assert "str(...)" in messages

    def test_bounded_labels_are_clean(self):
        result = run_one("""
            def record(metrics, kind, labels):
                metrics.counter("reports.total", kind=kind)
                metrics.counter("reports.total", kind="fixed")
                metrics.histogram("reports.bytes", edges=(1, 2, 4))
                metrics.counter("reports.total", **labels)
        """, "repro/fix/labels.py", {"RPL105"})
        assert result.findings == []


class TestDigestRoots:
    def test_every_digest_root_resolves_in_src(self, src_analyses):
        # CallGraph.reachable skips a root it cannot resolve, so a
        # renamed root would silently drop its RPL103 coverage.
        graph = CallGraph([analysis.summary for analysis in src_analyses])
        assert [root for root in DIGEST_ROOTS
                if root not in graph.functions] == []
