"""Tests for the command-line interface (repro.cli)."""

import importlib
import struct
from collections import Counter
from functools import cached_property

import pytest

from repro.analysis.experiment import ExperimentData, run_experiment
from repro.cli import main
from repro.core.avrank import AVRankSeries
from repro.store.columnar import SeriesFrame
from repro.store.reportstore import ReportStore
from repro.synth.scenario import tiny_scenario
from repro.vt.engines import Engine, EngineFleet
from repro.vt.reports import ScanReport

from conftest import make_frame


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
    """Every store ``ReportStore.load`` returns."""
    loaded = []
    original = ReportStore.load.__func__

    def load(cls, *args, **kwargs):
        store = original(cls, *args, **kwargs)
        loaded.append(store)
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


@pytest.fixture(scope="module", params=["columnar"])
def saved_store(request, tmp_path_factory):
    path = tmp_path_factory.mktemp("decode") / f"{request.param}.store"
    assert main(["--samples", "250", "--seed", "6", "generate",
                 str(path)]) == 0
    return path


class TestOneDecodePerRun:
    """An analysis run decodes every stored block exactly once and builds
    no per-report or per-sample object: every analysis reads the frame."""

    @pytest.mark.parametrize("command", ["all", "calibrate", "report",
                                         "dynamics", "stabilization"])
    def test_each_block_decoded_once(self, saved_store, loaded_stores,
                                     monkeypatch, tmp_path, command):
        built = []
        for cls in (ScanReport, AVRankSeries):
            monkeypatch.setattr(
                cls, "__post_init__",
                lambda obj, init=cls.__post_init__: built.append(init(obj)))
        output = [str(tmp_path / "report.md")] if command == "report" else []
        # calibrate exits 1 when a band fails, which is noise at this scale.
        assert main(["--store", str(saved_store), command, *output]) in (0, 1)
        (store,) = loaded_stores
        assert store.cache_stats().blocks_decoded == _stored_blocks(store) > 0
        assert built == []

    #: The §5–§7 analyses that ``calibrate`` grades, by defining module.
    GRADED = (
        ("repro.analysis.dynamics", "stable_dynamic_split"),
        ("repro.analysis.dynamics", "stable_sample_profile"),
        ("repro.analysis.dynamics", "delta_distributions"),
        ("repro.analysis.dynamics", "threshold_impact"),
        ("repro.analysis.stabilization", "avrank_stabilization_profile"),
        ("repro.analysis.stabilization", "label_stabilization_profile"),
        ("repro.analysis.engines", "engine_stability"),
    )

    @pytest.mark.parametrize("command", ["all", "calibrate", "report",
                                         "engines"])
    def test_each_analysis_runs_once(self, saved_store, monkeypatch,
                                     tmp_path, command):
        """Dataset S is selected once per command, and no graded analysis
        runs twice: ``report`` grades the results it has rendered."""
        calls = Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(SeriesFrame, "dataset_s_mask", counted(
            "dataset_s_mask", SeriesFrame.dataset_s_mask))
        callers = [importlib.import_module(name) for name in (
            "repro.cli", "repro.analysis.calibration",
            "repro.analysis.report")]
        for home, name in self.GRADED:
            module = importlib.import_module(home)
            original = getattr(module, name)
            wrapper = counted(name, original)
            # Patch every binding a caller may reach, ``from`` imports too.
            for owner in [module, *callers]:
                if vars(owner).get(name) is original:
                    monkeypatch.setattr(owner, name, wrapper)
        output = [str(tmp_path / "report.md")] if command == "report" else []
        assert main(["--store", str(saved_store), command, *output]) in (0, 1)
        assert calls.pop("dataset_s_mask") == 1
        graded = (["engine_stability"] if command == "engines"
                  else [name for _, name in self.GRADED])
        assert calls == Counter(dict.fromkeys(graded, 1))

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
    """Serial and 2-worker stores of one seed render the same, and the
    series figures match a frame grouped from the per-report object
    path."""

    @pytest.fixture(scope="class")
    def stores(self, tmp_path_factory):
        base = tmp_path_factory.mktemp("layouts")
        runs = {"serial": [], "workers2": ["--workers", "2"]}
        paths = {}
        for name, extra in runs.items():
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
        assert outputs["serial"] == outputs["workers2"]

    @pytest.mark.parametrize("command", ["dynamics", "stabilization"])
    def test_series_figures_match_per_report_path(self, stores, command,
                                                  capsys, monkeypatch):
        from_frame = self._render(stores["serial"], command, capsys)

        def per_report_frame(data):
            """The frame grouped from the per-report objects that
            ``iter_sample_reports`` yields, in its sample order."""
            return make_frame([report for _, reports
                               in data.store.iter_sample_reports()
                               for report in reports])

        frame = cached_property(per_report_frame)
        frame.__set_name__(ExperimentData, "frame")
        monkeypatch.setattr(ExperimentData, "frame", frame)
        assert self._render(stores["serial"], command, capsys) == from_frame

    def test_all_matches_across_workers(self, stores, capsys):
        assert (self._render(stores["serial"], "all", capsys)
                == self._render(stores["workers2"], "all", capsys))


class TestStorePathErrors:
    """A missing or unwritable store path is a typed error: exit 2 with a
    message naming the path, never a traceback and exit 1 — so a script
    can tell ``digest A MISSING`` from "digests DIFFER"."""

    @pytest.fixture()
    def missing(self, tmp_path):
        return tmp_path / "missing.rpr"

    def test_digest_of_missing_store(self, missing, capsys):
        assert main(["digest", str(missing)]) == 2
        err = capsys.readouterr().err
        assert "cannot read store" in err and str(missing) in err

    def test_digest_of_wrong_shape_header(self, tmp_path, capsys):
        # Valid JSON of the wrong shape is a damaged store, not a crash.
        path = tmp_path / "shape.rpr"
        ReportStore().save(path)
        blob = path.read_bytes()
        (header_len,) = struct.unpack_from("<I", blob, 8)
        path.write_bytes(blob[:8] + struct.pack("<I", 2) + b"[]"
                         + blob[12 + header_len:])
        assert main(["digest", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro-vt: error:") and str(path) in err

    def test_digest_against_missing_store(self, missing, tmp_path, capsys):
        present = tmp_path / "present.rpr"
        ReportStore().save(present)
        assert main(["digest", str(present), str(missing)]) == 2
        captured = capsys.readouterr()
        assert "DIFFER" not in captured.out
        assert str(missing) in captured.err

    @pytest.mark.parametrize("command", [
        "overview", "dynamics", "stabilization", "engines", "all",
        "calibrate", "metrics", "report"])
    def test_store_commands_on_missing_store(self, missing, tmp_path,
                                             command, capsys):
        output = [str(tmp_path / "report.md")] if command == "report" else []
        assert main(["--store", str(missing), command, *output]) == 2
        assert "cannot read store" in capsys.readouterr().err

    def test_generate_into_missing_directory(self, tmp_path, capsys):
        target = tmp_path / "no" / "such" / "dir" / "x.rpr"
        assert main(["--samples", "40", "--seed", "1", "generate",
                     str(target)]) == 2
        err = capsys.readouterr().err
        assert "cannot write store" in err and str(target) in err
        assert not target.exists()
