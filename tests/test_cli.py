"""Tests for the command-line interface (repro.cli)."""

import pytest

from repro.analysis.experiment import run_experiment
from repro.cli import main
from repro.store.reportstore import ReportStore
from repro.synth.scenario import tiny_scenario
from repro.vt.engines import Engine, EngineFleet
from repro.vt.reports import ScanReport


@pytest.fixture()
def run_cli(capsys):
    def run(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out

    return run


class TestCommands:
    def test_overview(self, run_cli):
        code, out = run_cli("--samples", "300", "--seed", "2", "overview")
        assert code == 0
        assert "05/2021 Reports" in out
        assert "Figure 1" in out

    def test_dynamics(self, run_cli):
        code, out = run_cli("--samples", "300", "--seed", "2", "dynamics")
        assert code == 0
        assert "Observation 1" in out
        assert "Figure 8" in out

    def test_stabilization(self, run_cli):
        code, out = run_cli("--samples", "300", "--seed", "2",
                            "stabilization")
        assert code == 0
        assert "Observation 8" in out
        assert "Figure 9" in out

    def test_engines(self, run_cli):
        code, out = run_cli("--samples", "300", "--seed", "2", "engines")
        assert code == 0
        assert "Figure 10" in out
        assert "Figure 11" in out

    def test_generate_and_reload(self, run_cli, tmp_path):
        path = tmp_path / "saved.store"
        code, out = run_cli("--samples", "200", "--seed", "3",
                            "generate", str(path))
        assert code == 0
        assert path.exists()
        code, out = run_cli("--store", str(path), "overview")
        assert code == 0
        assert "Total # Reports" in out

    def test_paper_scenario_flag(self, run_cli):
        code, out = run_cli("--samples", "300", "--seed", "2",
                            "--scenario", "paper", "overview")
        assert code == 0

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["bogus"])


class TestNewCommands:
    def test_calibrate_command(self, run_cli):
        code, out = run_cli("--samples", "800", "--seed", "5", "calibrate")
        assert "calibration report" in out
        assert code in (0, 1)  # small-scale noise may trip a band

    def test_report_command(self, run_cli, tmp_path):
        path = tmp_path / "repro-report.md"
        code, out = run_cli("--samples", "400", "--seed", "5",
                            "report", str(path))
        assert code == 0
        assert path.exists()
        text = path.read_text()
        assert "## Calibration vs paper" in text
        assert "## Individual engines" in text


class TestCollect:
    def test_collect_writes_working_directory(self, run_cli, tmp_path):
        code, out = run_cli("--samples", "200", "--seed", "2",
                            "collect", str(tmp_path), "--until-days", "15")
        assert code == 0
        assert "collection completed" in out
        assert (tmp_path / "store.rpr").exists()
        assert (tmp_path / "checkpoint.json").exists()

    def test_collect_chaos_crash_then_resume(self, run_cli, tmp_path):
        code, out = run_cli("--samples", "200", "--seed", "2",
                            "collect", str(tmp_path), "--chaos",
                            "--until-days", "16", "--crash-at-days", "8")
        assert code == 0
        assert "crashed (simulated)" in out

        code, out = run_cli("--samples", "200", "--seed", "2",
                            "collect", str(tmp_path), "--chaos",
                            "--until-days", "16", "--resume")
        assert code == 0
        assert "collection completed" in out
        assert "UNRECOVERED" not in out


def _stored_blocks(store: ReportStore) -> int:
    return sum(len(shard.blocks) for shard in store.shards.values())


@pytest.fixture()
def loaded_stores(monkeypatch):
    """Every store ``ReportStore.load`` returns, with its decode count
    at that moment (a v3 load restores the saved retrieval counters)."""
    loaded = []
    original = ReportStore.load.__func__

    def load(cls, *args, **kwargs):
        store = original(cls, *args, **kwargs)
        loaded.append((store, store.cache_stats().blocks_decoded))
        return store

    monkeypatch.setattr(ReportStore, "load", classmethod(load))
    return loaded


class TestFleetWidthMismatch:
    """A store whose reports carry another fleet width than the 70
    default engine names: the §7 analyses refuse it with a typed error
    (exit 2); series-only commands are unaffected."""

    @pytest.fixture(scope="class")
    def narrow_store(self, tmp_path_factory):
        fleet = EngineFleet([Engine(f"E{i}") for i in range(5)])
        data = run_experiment(tiny_scenario(n_samples=120, seed=1),
                              fleet=fleet)
        path = tmp_path_factory.mktemp("narrow") / "narrow.store"
        data.store.save(path)
        return path

    @pytest.mark.parametrize("command", ["engines", "calibrate", "all"])
    def test_engine_analyses_exit_2(self, narrow_store, command, capsys):
        assert main(["--store", str(narrow_store), command]) == 2
        err = capsys.readouterr().err
        assert "reports carry 5 engine verdicts" in err
        assert "names 70 engines" in err

    def test_report_exits_2(self, narrow_store, tmp_path, capsys):
        out = tmp_path / "report.md"
        assert main(["--store", str(narrow_store), "report", str(out)]) == 2
        assert "reports carry 5 engine verdicts" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["dynamics", "stabilization"])
    def test_series_commands_still_work(self, narrow_store, command, capsys):
        assert main(["--store", str(narrow_store), command]) == 0
        assert capsys.readouterr().out


@pytest.fixture(scope="module", params=["row", "columnar"])
def saved_store(request, tmp_path_factory):
    path = tmp_path_factory.mktemp("decode") / f"{request.param}.store"
    assert main(["--samples", "250", "--seed", "6", "--store-format",
                 request.param, "generate", str(path)]) == 0
    return path


class TestOneDecodePerRun:
    """An analysis run decodes every stored block exactly once and builds
    no per-report object."""

    @pytest.mark.parametrize("command", ["all", "calibrate", "report"])
    def test_each_block_decoded_once(self, saved_store, loaded_stores,
                                     monkeypatch, tmp_path, command):
        built = []
        original = ScanReport.__post_init__
        monkeypatch.setattr(ScanReport, "__post_init__",
                            lambda report: built.append(original(report)))
        output = [str(tmp_path / "report.md")] if command == "report" else []
        # calibrate exits 1 when a band fails, which is noise at this scale.
        assert main(["--store", str(saved_store), command, *output]) in (0, 1)
        (store, base), = loaded_stores
        decoded = store.cache_stats().blocks_decoded - base
        assert decoded == _stored_blocks(store) > 0
        assert built == []

    def test_generate_decodes_nothing(self, monkeypatch, tmp_path):
        saved = []
        original = ReportStore.save

        def save(store, *args, **kwargs):
            saved.append(store)
            return original(store, *args, **kwargs)

        monkeypatch.setattr(ReportStore, "save", save)
        assert main(["--samples", "150", "--seed", "6", "generate",
                     str(tmp_path / "g.store")]) == 0
        (store,) = saved
        assert store.cache_stats().blocks_decoded == 0


class TestLayoutInvariance:
    """Row, columnar and 2-worker stores of one seed render the same."""

    @pytest.fixture(scope="class")
    def stores(self, tmp_path_factory):
        base = tmp_path_factory.mktemp("layouts")
        layouts = {"row": ["--store-format", "row"], "columnar": [],
                   "workers2": ["--workers", "2"]}
        paths = {}
        for name, extra in layouts.items():
            paths[name] = base / f"{name}.store"
            assert main(["--samples", "300", "--seed", "4", *extra,
                         "generate", str(paths[name])]) == 0
        return paths

    @staticmethod
    def _render(path, command, capsys) -> str:
        capsys.readouterr()
        assert main(["--store", str(path), command]) == 0
        return capsys.readouterr().out

    @pytest.mark.parametrize("command",
                             ["dynamics", "stabilization", "engines"])
    def test_same_output_on_every_layout(self, stores, command, capsys):
        outputs = {name: self._render(path, command, capsys)
                   for name, path in stores.items()}
        assert outputs["row"] == outputs["columnar"] == outputs["workers2"]

    def test_all_matches_across_workers(self, stores, capsys):
        # Table 2 prints compressed sizes, which differ between layouts.
        assert (self._render(stores["columnar"], "all", capsys)
                == self._render(stores["workers2"], "all", capsys))
