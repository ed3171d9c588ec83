"""Import layering: each ``repro-vt`` command imports only what it runs.

A fresh interpreter runs one command and records ``sys.modules`` when
``main`` returns, so these tests pin module sets, never timings.  The
package ``__init__``s that sit on a command's import path are lazy
re-export tables (:mod:`repro._lazy`); the rest of this file checks that
every table entry loads its defining module's object, and that code
inside ``src/repro`` never imports a re-exported name through a package
``__init__`` (reprolint's call graph resolves only real imports).
"""

from __future__ import annotations

import ast
import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

PACKAGE_DIR = Path(repro.__file__).resolve().parent
SRC = PACKAGE_DIR.parent

#: argv: output path, then the ``repro-vt`` arguments.
PROBE = """\
import json, sys
out = sys.argv.pop(1)
from repro.cli import main
try:
    status = main(sys.argv[1:])
except SystemExit as exc:
    status = exc.code
with open(out, "w") as fh:
    json.dump({"status": status, "modules": sorted(sys.modules)}, fh)
"""

HELP = {
    "repro", "repro._lazy", "repro.cli", "repro.errors",
    # repro.cli binds collect_series at import time (perfbench wraps it).
    "repro.core", "repro.core.avrank", "repro.core.categorize",
    "repro.vt", "repro.vt.clock", "repro.vt.reports",
}
LINT = HELP | {"repro.lint"} | {f"repro.lint.{name}" for name in (
    "callgraph", "config", "engine", "flowrules", "pragmas", "report",
    "resolve", "rules")}
DIGEST = HELP | {
    "repro.obs", "repro.obs.export", "repro.obs.registry", "repro.obs.timing",
    "repro.store", "repro.store.cache", "repro.store.codec",
    "repro.store.columnar", "repro.store.index", "repro.store.reportstore",
    "repro.store.shard", "repro.store.stats",
}
#: A scenario config and the ExperimentData around a store.
EXPERIMENT = {
    "repro.analysis", "repro.analysis.experiment",
    "repro.faults", "repro.faults.plan",
    "repro.parallel", "repro.parallel.sharding",
    "repro.synth", "repro.synth.scenario",
    "repro.vt.behavior", "repro.vt.engines", "repro.vt.filetypes",
    "repro.vt.samples",
}
GENERATE = DIGEST | EXPERIMENT | {
    "repro.parallel.worker", "repro.store.merge", "repro.synth.distributions",
    "repro.synth.groundtruth", "repro.synth.population",
    "repro.synth.submissions", "repro.vt.service",
}
ALL = DIGEST | EXPERIMENT | {
    "repro.analysis.dataset", "repro.analysis.dynamics",
    "repro.analysis.engines", "repro.analysis.rendering",
    "repro.analysis.stabilization",
    "repro.core.correlation", "repro.core.flips", "repro.core.metrics",
    "repro.core.stabilization",
    "repro.stats", "repro.stats.cdf", "repro.stats.descriptive",
    "repro.stats.kstest", "repro.stats.ranking", "repro.stats.spearman",
}

FIGURE_ANALYSES = {f"repro.analysis.{name}" for name in (
    "dataset", "dynamics", "engines", "rendering", "stabilization")}

#: Every package whose ``__init__`` is a lazy re-export table.
LAZY_PACKAGES = ("repro", "repro.analysis", "repro.core", "repro.faults",
                 "repro.parallel", "repro.stats", "repro.store",
                 "repro.synth", "repro.vt")


def _python(*args: str, cwd: Path | None = None):
    """Run a fresh interpreter that imports this checkout's ``repro``."""
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ,
           "PYTHONPATH": str(SRC) + (os.pathsep + path if path else "")}
    return subprocess.run([sys.executable, *args], env=env, cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def _run(tmp_path: Path, *argv: str) -> set[str]:
    """Every module imported by ``repro-vt ARGV`` in a fresh interpreter."""
    out = tmp_path / "modules.json"
    proc = _python("-c", PROBE, str(out), *argv, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(out.read_text())
    assert result["status"] == 0, proc.stderr
    return set(result["modules"])


def _repro(modules: set[str]) -> set[str]:
    return {m for m in modules if m == "repro" or m.startswith("repro.")}


@pytest.fixture(scope="module")
def imported(tmp_path_factory) -> dict[str, set[str]]:
    """The module set of each probed command, one subprocess each."""
    work = tmp_path_factory.mktemp("imports")
    store = str(work / "probe.store")
    return {
        "help": _run(work, "--help"),
        "lint": _run(work, "lint", "--explain"),
        "generate": _run(work, "--samples", "300", "--seed", "2",
                         "generate", store),
        "digest": _run(work, "digest", store),
        "all": _run(work, "--store", store, "all"),
    }


class TestCommandImports:
    @pytest.mark.parametrize("command, expected", [
        ("help", HELP), ("lint", LINT), ("digest", DIGEST),
        ("generate", GENERATE), ("all", ALL),
    ])
    def test_exact_repro_modules(self, imported, command, expected):
        assert _repro(imported[command]) == expected

    @pytest.mark.parametrize("command", ["help", "lint"])
    def test_no_numpy(self, imported, command):
        assert "numpy" not in imported[command]

    def test_networkx_never_imported(self, imported):
        assert all("networkx" not in mods for mods in imported.values())

    def test_generate_runs_no_figure_analysis(self, imported):
        mods = imported["generate"]
        assert not mods & FIGURE_ANALYSES
        assert not {m for m in mods if m.split(".")[:2] == ["repro", "stats"]}

    @pytest.mark.parametrize("command", ["all", "digest"])
    def test_read_path_builds_no_service(self, imported, command):
        assert "repro.vt.service" not in imported[command]
        assert "repro.parallel.worker" not in imported[command]


def _lazy_table(package: str) -> dict[str, tuple[str, ...]]:
    """The ``{submodule: names}`` literal a package passes to
    ``lazy_exports``, read from its source."""
    source = Path(importlib.import_module(package).__file__).read_text()
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "lazy_exports"):
            return ast.literal_eval(node.args[1])
    raise AssertionError(f"{package} has no lazy_exports table")


class TestLazyPackages:
    @pytest.mark.parametrize("package", LAZY_PACKAGES)
    def test_names_load_their_defining_objects(self, package):
        pkg = importlib.import_module(package)
        table = _lazy_table(package)
        assert pkg.__all__ == [name for names in table.values()
                               for name in names]
        for module, names in table.items():
            origin = importlib.import_module(f"{package}.{module}")
            for name in names:
                value = getattr(pkg, name)
                assert value is getattr(origin, name), (package, name)
                if inspect.isfunction(value) or inspect.isclass(value):
                    # The table names the defining module, not a
                    # re-export of it.
                    assert value.__module__ == origin.__name__, (package, name)

    @pytest.mark.parametrize("package", LAZY_PACKAGES)
    def test_dir_lists_every_name(self, package):
        pkg = importlib.import_module(package)
        assert set(pkg.__all__) <= set(dir(pkg))

    @pytest.mark.parametrize("package", LAZY_PACKAGES)
    def test_unknown_name_raises_attribute_error(self, package):
        pkg = importlib.import_module(package)
        with pytest.raises(AttributeError, match="no_such_name"):
            pkg.no_such_name  # noqa: B018
        assert not hasattr(pkg, "no_such_name")

    def test_submodule_import_falls_through(self):
        from repro.analysis import engines, rendering
        from repro.parallel import runner

        assert engines.__name__ == "repro.analysis.engines"
        assert rendering.__name__ == "repro.analysis.rendering"
        assert runner.__name__ == "repro.parallel.runner"

    def test_name_shared_with_its_submodule_stays_the_export(self):
        # Importing repro.core.categorize sets the package attribute to
        # the module unless the function was bound first; a fresh
        # interpreter imports the submodules before any name is read.
        proc = _python("-c", (
            "import inspect, repro.core.categorize, repro.stats.spearman\n"
            "from repro.core import categorize\n"
            "from repro.stats import spearman\n"
            "assert inspect.isfunction(categorize), categorize\n"
            "assert inspect.isfunction(spearman), spearman\n"))
        assert proc.returncode == 0, proc.stderr


def _packages() -> set[str]:
    return {".".join(init.parent.relative_to(SRC).parts)
            for init in PACKAGE_DIR.rglob("__init__.py")}


def _defined_in(init: Path) -> set[str]:
    """Top-level names an ``__init__`` defines itself (not imports)."""
    names = set()
    for node in ast.parse(init.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names |= {t.id for t in node.targets if isinstance(t, ast.Name)}
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target,
                                                            ast.Name):
            names.add(node.target.id)
    return names


def test_src_imports_names_from_their_defining_modules():
    packages = _packages()
    modules = {".".join(path.relative_to(SRC).with_suffix("").parts)
               for path in PACKAGE_DIR.rglob("*.py")}
    defined = {pkg: _defined_in(SRC.joinpath(*pkg.split("."), "__init__.py"))
               for pkg in packages}
    offenders = []
    for path in sorted(PACKAGE_DIR.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(node, ast.ImportFrom) and node.level == 0
                    and node.module in packages):
                continue
            for alias in node.names:
                name = alias.name
                if (f"{node.module}.{name}" not in modules | packages
                        and name not in defined[node.module]):
                    offenders.append(f"{path.relative_to(SRC)}:{node.lineno}: "
                                     f"from {node.module} import {name}")
    assert offenders == []
