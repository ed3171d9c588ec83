"""CLI surface tests for ``repro-vt lint`` and the uniform exit-code
convention (0 = success, 1 = findings/differences, 2 = internal error).
"""

import json
import textwrap

import pytest

from repro.cli import main
from repro.lint import JSON_SCHEMA


@pytest.fixture()
def run_cli(capsys):
    def run(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return run


@pytest.fixture()
def dirty_tree(tmp_path):
    """A lintable tree containing one wall-clock violation."""
    pkg = tmp_path / "repro" / "demo"
    pkg.mkdir(parents=True)
    (pkg / "bad.py").write_text(textwrap.dedent("""
        import time

        def stamp():
            return time.time()
    """), encoding="utf-8")
    (pkg / "good.py").write_text(
        "def double(x):\n    return 2 * x\n", encoding="utf-8")
    return pkg


class TestLintCommand:
    def test_self_check_exits_zero(self, run_cli):
        code, out, _ = run_cli("lint")
        assert code == 0
        assert "0 findings" in out

    def test_findings_exit_one(self, run_cli, dirty_tree):
        code, out, _ = run_cli("lint", "--paths", str(dirty_tree))
        assert code == 1
        assert "RPL001" in out
        assert "bad.py:5:" in out

    def test_json_format_schema_head(self, run_cli, dirty_tree):
        code, out, _ = run_cli("lint", "--format", "json",
                               "--paths", str(dirty_tree))
        assert code == 1
        lines = out.splitlines()
        head = json.loads(lines[0])
        assert head["schema"] == JSON_SCHEMA
        assert head["files_checked"] == 2
        assert head["findings"] == 1
        finding = json.loads(lines[1])
        assert finding["code"] == "RPL001"
        assert finding["line"] == 5

    def test_select_narrows_to_chosen_rules(self, run_cli, dirty_tree):
        code, out, _ = run_cli("lint", "--select", "RPL003",
                               "--paths", str(dirty_tree))
        assert code == 0
        assert "0 findings" in out

    def test_output_writes_report_file(self, run_cli, dirty_tree, tmp_path):
        report = tmp_path / "lint.json"
        code, out, err = run_cli("lint", "--format", "json",
                                 "--paths", str(dirty_tree),
                                 "--output", str(report))
        assert code == 1
        assert report.read_text(encoding="utf-8") == out
        assert str(report) in err

    def test_explain_lists_every_rule(self, run_cli):
        code, out, _ = run_cli("lint", "--explain")
        assert code == 0
        for i in range(8):
            assert f"RPL00{i}" in out
        for i in range(1, 6):
            assert f"RPL10{i}" in out

    def test_unknown_select_code_exits_two(self, run_cli, capsys):
        code, _, err = run_cli("lint", "--select", "RPL999")
        assert code == 2
        assert "repro-vt: error:" in err
        assert "RPL999" in err

    def test_missing_path_exits_two(self, run_cli, tmp_path):
        code, _, err = run_cli("lint", "--paths", str(tmp_path / "nope"))
        assert code == 2
        assert "does not exist" in err


class TestExitCodeConvention:
    def test_digest_match_exits_zero(self, run_cli, tmp_path):
        a = tmp_path / "a.rpr"
        b = tmp_path / "b.rpr"
        for path in (a, b):
            code, _, _ = run_cli("--samples", "120", "--seed", "5",
                                 "generate", str(path))
            assert code == 0
        code, out, _ = run_cli("digest", str(a), str(b))
        assert code == 0
        assert "digests match" in out

    def test_digest_mismatch_exits_one(self, run_cli, tmp_path):
        a = tmp_path / "a.rpr"
        b = tmp_path / "b.rpr"
        code, _, _ = run_cli("--samples", "120", "--seed", "5",
                             "generate", str(a))
        assert code == 0
        code, _, _ = run_cli("--samples", "120", "--seed", "6",
                             "generate", str(b))
        assert code == 0
        code, out, _ = run_cli("digest", str(a), str(b))
        assert code == 1
        assert "digests DIFFER" in out

    def test_bad_workers_value_exits_two(self, run_cli, tmp_path):
        code, _, err = run_cli("--samples", "120", "--seed", "5",
                               "--workers", "banana",
                               "generate", str(tmp_path / "x.rpr"))
        assert code == 2
        assert "repro-vt: error:" in err

    def test_help_documents_the_convention(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "exit codes:" in out
        assert "internal error" in out
