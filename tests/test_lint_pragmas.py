"""Pragma handling tests for reprolint.

Covers the suppression escape hatch end to end: line pragmas,
multi-code pragmas, scope pragmas on (decorated) defs, file-level
pragmas, the same pragmas over whole-program findings, and the rule
that a malformed or unknown pragma is itself a finding (RPL000) rather
than a silent no-op.
"""

import textwrap

import pytest

from repro.lint import collect_pragmas, lint_modules, lint_source


def run(source: str, path: str = "repro/_fixture.py"):
    return lint_source(textwrap.dedent(source), path=path)


class TestLinePragmas:
    def test_line_pragma_suppresses_only_its_line(self):
        result = run("""
            import time
            a = time.time()  # reprolint: disable=RPL001 - boot banner only
            b = time.time()
        """)
        assert [f.code for f in result.findings] == ["RPL001"]
        assert result.findings[0].line == 4
        assert len(result.suppressed) == 1

    def test_pragma_for_wrong_code_does_not_suppress(self):
        result = run("""
            import time
            a = time.time()  # reprolint: disable=RPL002 - wrong code on purpose
        """)
        assert [f.code for f in result.findings] == ["RPL001"]
        assert result.suppressed == []

    def test_multi_code_pragma(self):
        result = run("""
            import time
            import uuid
            pair = (time.time(), uuid.uuid4())  # reprolint: disable=RPL001,RPL003 - fixture pair
        """)
        assert result.findings == []
        assert len(result.suppressed) == 2

    def test_justification_text_after_codes_is_allowed(self):
        result = run("""
            import uuid
            t = uuid.uuid4()  # reprolint: disable=RPL003 - opaque id shown to humans only
        """)
        assert result.findings == []
        assert len(result.suppressed) == 1


class TestScopePragmas:
    def test_def_line_pragma_covers_whole_body(self):
        result = run("""
            import time
            def banner():  # reprolint: disable=RPL001 - display only
                start = time.time()
                return time.time() - start
        """)
        assert result.findings == []
        assert len(result.suppressed) == 2

    def test_decorator_line_pragma_covers_decorated_def(self):
        result = run("""
            import functools
            import time
            @functools.lru_cache  # reprolint: disable=RPL001 - display only
            def banner():
                return time.time()
        """)
        assert result.findings == []
        assert len(result.suppressed) == 1

    def test_class_scope_pragma(self):
        result = run("""
            import time
            class Wall:  # reprolint: disable=RPL001 - wall-clock wrapper fixture
                def read(self):
                    return time.time()
        """)
        assert result.findings == []

    def test_scope_pragma_does_not_leak_outside(self):
        result = run("""
            import time
            def banner():  # reprolint: disable=RPL001 - display only
                return time.time()
            after = time.time()
        """)
        assert [f.code for f in result.findings] == ["RPL001"]
        assert result.findings[0].line == 5


class TestFilePragmas:
    def test_file_level_pragma_suppresses_everywhere(self):
        result = run("""
            # reprolint: disable-file=RPL001 - legacy wall-clock shim
            import time
            a = time.time()
            def f():
                return time.time()
        """)
        assert result.findings == []
        assert len(result.suppressed) == 2

    def test_file_level_pragma_is_code_scoped(self):
        result = run("""
            # reprolint: disable-file=RPL001 - legacy shim fixture
            import time
            import uuid
            a = time.time()
            b = uuid.uuid4()
        """)
        assert [f.code for f in result.findings] == ["RPL003"]


class TestWholeProgramPragmas:
    """A cross-file finding (the RPL005 kind table) is routed through
    the pragmas of the file it lands in, like a per-file finding."""

    @pytest.mark.parametrize("source", [
        'def g(m):\n'
        '    return m.gauge("store.rows")  # reprolint: disable=RPL005 - why\n',
        'def g(m):  # reprolint: disable=RPL005 - why\n'
        '    return m.gauge("store.rows")\n',
        '# reprolint: disable-file=RPL005 - why\n'
        'def g(m):\n'
        '    return m.gauge("store.rows")\n',
    ], ids=["line", "scope", "file"])
    def test_pragma_suppresses_kind_conflict(self, source):
        result = lint_modules([
            ("repro/a.py", 'def f(m):\n    return m.counter("store.rows")\n'),
            ("repro/b.py", source),
        ])
        assert result.findings == []
        assert [(f.path, f.code) for f in result.suppressed] == [
            ("repro/b.py", "RPL005")]


class TestJustificationRequired:
    def test_missing_why_is_a_finding_but_still_suppresses(self):
        result = run("""
            import time
            a = time.time()  # reprolint: disable=RPL001
        """)
        assert [f.code for f in result.findings] == ["RPL000"]
        assert "justification" in result.findings[0].message
        # The listed code still suppresses: one hygiene finding, not a
        # doubled report of everything the pragma was covering.
        assert [f.code for f in result.suppressed] == ["RPL001"]

    def test_empty_dash_justification_is_a_finding(self):
        result = run("""
            import time
            a = time.time()  # reprolint: disable=RPL001 -
        """)
        assert [f.code for f in result.findings] == ["RPL000"]

    def test_file_level_pragma_requires_why_too(self):
        result = run("""
            # reprolint: disable-file=RPL001
            import time
            a = time.time()
        """)
        assert [f.code for f in result.findings] == ["RPL000"]
        assert [f.code for f in result.suppressed] == ["RPL001"]

    def test_flow_code_pragma_with_why_is_clean(self):
        result = run("""
            import time
            a = time.time()  # reprolint: disable=RPL001 - operator display
        """)
        assert result.findings == []


class TestBadPragmas:
    def test_unknown_code_is_a_finding(self):
        result = run("""
            import time
            a = time.time()  # reprolint: disable=RPL999 - no such rule
        """)
        assert sorted(f.code for f in result.findings) == ["RPL000", "RPL001"]
        rpl000 = next(f for f in result.findings if f.code == "RPL000")
        assert "RPL999" in rpl000.message

    def test_empty_pragma_is_a_finding(self):
        result = run("""
            x = 1  # reprolint: disable=
        """)
        assert [f.code for f in result.findings] == ["RPL000"]

    def test_rpl000_cannot_be_pragmad_away(self):
        result = run("""
            x = 1  # reprolint: disable=BOGUS,RPL000 - hygiene fixture
        """)
        assert [f.code for f in result.findings] == ["RPL000"]

    def test_non_pragma_comments_ignored(self):
        result = run("""
            x = 1  # reprolint is great, but this is prose not a pragma
            y = 2  # disable=RPL001 (missing the reprolint: prefix)
        """)
        assert result.findings == []


class TestCollectPragmas:
    def test_collect_reports_lines_and_codes(self):
        pragmas = collect_pragmas(textwrap.dedent("""
            # reprolint: disable-file=RPL003 - fixture
            a = 1  # reprolint: disable=RPL001, RPL004 - fixture
        """))
        assert pragmas.file_level == {"RPL003"}
        assert pragmas.by_line[3] == {"RPL001", "RPL004"}
        assert pragmas.bad == []

    def test_collect_flags_unknown_codes(self):
        pragmas = collect_pragmas("a = 1  # reprolint: disable=NOPE - why\n")
        assert len(pragmas.bad) == 1
        assert pragmas.bad[0].line == 1
