"""Self-test of the benchmark harness, at tiny scale.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_harness.py

Checks that traced and untraced runs produce the same outputs, that the
traced driver restores every wrapper, that span self times partition the
traced wall (a generator resumption is never counted twice), and that
every metric in BENCHMARK.json is emitted with its unit.
"""

from __future__ import annotations

import contextlib
import dataclasses
import inspect
import io
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as harness  # noqa: E402
import traced  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())

#: Small enough that every invocation is dominated by interpreter start.
TINY_SAMPLES = {"dynamics": 150, "paper": 400}


@pytest.fixture(autouse=True)
def tiny(monkeypatch):
    monkeypatch.setattr(harness, "WORKLOADS", {
        name: dataclasses.replace(wl, samples=TINY_SAMPLES[wl.scenario])
        for name, wl in harness.WORKLOADS.items()})
    # Any population size is accepted: the first candidate seed is used.
    monkeypatch.setattr(harness, "REPORTS_TOLERANCE", 10.0)
    monkeypatch.setattr(harness, "IMPORTTIME_RUNS", 1)
    monkeypatch.setattr(harness, "MIN_ITERATIONS", 1)
    monkeypatch.setattr(harness, "MIN_TRACED", 1)


@pytest.fixture
def bench(tmp_path):
    def make(name: str, seed: int = 3) -> harness.Bench:
        b = harness.Bench(name, seed, tmp_path)
        b.build_reference()
        return b
    return make


def run_harness(capsys, workload: str, trace: int) -> dict:
    status = harness.main(["--workload", workload, "--seed", "2",
                           "--seconds", "0", "--trace", str(trace)])
    lines = capsys.readouterr().out.strip().splitlines()
    assert status == 0
    return json.loads(lines[-1])


def test_traced_outputs_equal_untraced(bench):
    b = bench("pipeline-paper-w2")
    plain = b.iterate(trace=False)
    plain_digest = b.store_digest(b.store)
    plain_all = harness.file_sha256(b.work / "leg1.out")
    traced_it = b.iterate(trace=True)
    assert plain.ok and traced_it.ok
    assert b.store_digest(b.store) == plain_digest
    assert harness.file_sha256(b.work / "leg1.out") == plain_all
    assert len(traced_it.spans) == 2


def test_every_wrapper_restored(bench, monkeypatch):
    b = bench("analyze-dynamics")
    monkeypatch.syspath_prepend(str(harness.SRC))
    run = traced.TracedRun()
    before = [(p.owner, p.attr, inspect.getattr_static(p.owner, p.attr))
              for p in run.entry_points()]
    with contextlib.redirect_stdout(io.StringIO()):
        status = run.run(b.legs()[0])
    assert status == 0
    assert len(run.patches) == len(before)
    for owner, attr, original in before:
        assert inspect.getattr_static(owner, attr) is original, attr
    # The wrappers were really in place while main ran.
    spans = run.tracer.summary()["spans"]
    assert spans["store.load"]["spans"] == 1
    assert spans["analysis.fig11"]["spans"] == 1
    assert run.counts["store.decode.passes"] >= 1


def test_generator_resumptions_counted_once():
    ticks = iter(range(1000))
    tracer = traced.Tracer(clock=lambda: float(next(ticks)))
    tracer.open("core.series")
    items = (i for i in range(3))
    consumed = list(traced._resumptions(tracer, "store.decode", items,
                                        None, (), {}))
    tracer.close()
    assert consumed == [0, 1, 2]
    summary = tracer.summary()
    decode, series = (summary["spans"][name]
                      for name in ("store.decode", "core.series"))
    # Four resumptions (three items, then StopIteration), one tick each;
    # the consumer's ticks between them stay with the consumer.
    assert (decode["spans"], decode["self_s"]) == (4, 4.0)
    assert (series["spans"], series["self_s"]) == (1, 5.0)
    assert summary["roots_s"] == 9.0
    total_self = sum(entry["self_s"] for entry in summary["spans"].values())
    assert total_self == summary["roots_s"]


@pytest.mark.parametrize("workload", sorted(harness.WORKLOADS))
def test_self_times_add_up_to_traced_wall(bench, workload):
    b = bench(workload)
    it = b.iterate(trace=True)
    assert it.ok
    for leg, invocation in zip(it.spans, it.legs):
        total_self = sum(e["self_s"] for e in leg["spans"].values())
        assert total_self == pytest.approx(leg["roots_s"], rel=1e-9)
        assert leg["roots_s"] <= leg["wall_s"] <= invocation.wall_s
    row = harness.layer_row(it, numpy_s=0.0)
    total_self = sum(leg["spans"][name]["self_s"]
                     for leg in it.spans for name in traced.SPANS)
    assert row["other.self_s"] > 0
    assert total_self + row["other.self_s"] == pytest.approx(row["trace.wall_s"])


@pytest.mark.parametrize("workload", sorted(harness.WORKLOADS))
def test_every_benchmark_metric_emitted_with_unit(capsys, workload):
    assert workload in {w["name"] for w in BENCHMARK["workloads"]}
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        result = run_harness(capsys, workload, trace)
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        expected = {m["name"]: m["unit"] for m in BENCHMARK[key]}
        emitted = {name: m["unit"] for name, m in result["metrics"].items()}
        assert emitted == expected
        assert all(isinstance(m["value"], (int, float))
                   for m in result["metrics"].values())


def test_refuses_to_run_without_sources(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(harness, "SRC", tmp_path / "src")
    status = harness.main(["--workload", "generate-dynamics", "--seed", "1",
                           "--seconds", "1", "--trace", "0"])
    assert status != 0
    assert capsys.readouterr().out == ""
