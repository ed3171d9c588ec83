#!/usr/bin/env python3
"""End-to-end benchmark of the ``repro-vt`` pipeline.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One driver process (one client, closed loop) launches the real CLI as a
subprocess, one invocation at a time, for ``--seconds`` seconds, checks
every run's outputs against a serial reference built during set-up, and
prints each metric by name with its unit.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``).  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TRACED = HERE / "traced.py"
WORK_ROOT = ROOT / ".perfbench-work"

sys.path.insert(0, str(HERE))
import traced  # noqa: E402

#: What the ``repro-vt`` console script runs.
CLI = ("-c", "import sys; from repro.cli import main; sys.exit(main())")
#: Prints the canonical digest and report count of the store at argv[1].
DIGEST = ("import sys; from repro.store.reportstore import ReportStore; "
          "s = ReportStore.load(sys.argv[1]); print(s.digest(), s.report_count)")

#: ``python -X importtime`` runs per traced run; numpy's share is their median.
IMPORTTIME_RUNS = 3
#: Timed iterations per run, however short ``--seconds`` is.
MIN_ITERATIONS = 3
#: Traced iterations per traced run, however short ``--seconds`` is.
MIN_TRACED = 2
#: An invocation still running after this is killed, its iteration fails
#: and the loop ends, so a hung program still gets a result within 180 s.
INVOCATION_TIMEOUT_S = 30.0


@dataclasses.dataclass(frozen=True)
class Workload:
    """One set of inputs; the CLI sees only ``--scenario/--samples/--seed``."""

    scenario: str
    samples: int
    #: Reports the population should hold, within REPORTS_TOLERANCE.
    target_reports: int
    #: Workers of the timed ``generate`` leg; 0 means there is none and
    #: ``all`` reads the reference store built during set-up.
    generate_workers: int
    #: Whether the timed invocations end with ``all``.
    analyze: bool

    def base_args(self, cli_seed: int) -> list[str]:
        return ["--scenario", self.scenario, "--samples", str(self.samples),
                "--seed", str(cli_seed)]


#: Why each workload exists is recorded in README.md.
WORKLOADS: dict[str, Workload] = {
    "generate-dynamics": Workload("dynamics", 2000, 10600, 1, False),
    "analyze-dynamics": Workload("dynamics", 2000, 10600, 0, True),
    "pipeline-paper-w2": Workload("paper", 4000, 6100, 2, True),
}

#: Per-sample report counts have a Pareto tail (alpha 1.45), so report
#: totals differ by 10 % and more between seeds at these scales, and wall
#: time with them.  The CLI seed for benchmark seed ``s`` is therefore the
#: first of ``s * SEED_STRIDE + k`` (k = 0, 1, ...) whose population holds
#: the workload's target reports within this share: every seed gives
#: another population of the same size.
REPORTS_TOLERANCE = 0.02
SEED_STRIDE = 1000

#: argv: scenario, samples, first seed, target reports, tolerance, stride.
#: Prints the first seed whose population is within tolerance.
PICK_SEED = """\
import sys
from repro.synth import scenario
from repro.synth.population import PopulationGenerator
name, samples, first, target, tolerance, stride = sys.argv[1:]
samples, first, target = int(samples), int(first), int(target)
for seed in range(first, first + int(stride)):
    config = getattr(scenario, name + "_scenario")(n_samples=samples, seed=seed)
    generator = PopulationGenerator(config)
    reports = sum(spec.n_reports for _, spec in generator.iter_range(0, samples))
    if abs(reports - target) <= float(tolerance) * target:
        print(seed)
        break
"""

END_TO_END: dict[str, str] = {
    "wall_s": "s",
    "reports_per_s": "1/s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "store_bytes_per_report": "B",
}


def self_metric(span: str) -> str:
    """Name of a span's self-time metric."""
    if span in ("startup.import", "parallel.wait"):
        return f"{span}_s"
    return f"{span}.self_s"


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric, in pipeline order, with its unit."""
    units: dict[str, str] = {}
    extra = {
        "startup.import": {"startup.import.numpy_s": "s"},
        "synth.population": {"synth.samples": "count"},
        "vt.scan": {"vt.scan.reports": "count", "vt.scan.us_per_report": "us"},
        "store.freeze": {"store.freeze.blocks": "count"},
        "store.save": {"store.save.bytes": "B"},
        "parallel.package": {"parallel.tasks": "count",
                             "parallel.retried": "count",
                             "parallel.workers_lost": "count"},
        "store.decode": {"store.decode.passes": "count",
                         "store.decode.blocks": "count",
                         "store.decode.reports": "count",
                         "store.decode.amplification": "ratio"},
    }
    for span in traced.SPANS:
        units[self_metric(span)] = "s"
        units.update(extra.get(span, {}))
    for span in traced.SPANS:
        units[f"{span}.rss_raise_mb"] = "MB"
    units.update({"other.self_s": "s", "trace.wall_s": "s",
                  "trace.overhead_s": "s", "failed_share": "ratio"})
    return units


class SetupError(RuntimeError):
    """The reference could not be built; no result is printed."""


@dataclasses.dataclass
class Invocation:
    status: int
    wall_s: float
    cpu_s: float
    maxrss_kb: int


@dataclasses.dataclass
class Iteration:
    """One closed-loop pass over the workload's invocations."""

    legs: list[Invocation]
    ok: bool
    traced: bool
    #: Size of the workload's store once every invocation succeeded.
    store_bytes: int = 0
    #: Per-leg span summaries written by traced.py (traced runs only).
    spans: list[dict] = dataclasses.field(default_factory=list)
    #: Wall of the ``repro-vt --help`` run after it (untraced runs only).
    setup_s: float | None = None

    @property
    def wall_s(self) -> float:
        return sum(leg.wall_s for leg in self.legs)

    @property
    def maxrss_kb(self) -> int:
        return max(leg.maxrss_kb for leg in self.legs)


@dataclasses.dataclass
class Reference:
    digest: str
    reports: int
    store_bytes: int
    #: sha256 of the reference store file's bytes.
    store_sha256: str
    #: sha256 of ``all`` rendered over the reference store.
    all_sha256: str | None


class Bench:
    """Set-up, timed loop and checks for one workload and seed."""

    def __init__(self, name: str, seed: int, work: Path) -> None:
        self.name = name
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.work = work
        self.env = dict(os.environ)
        path = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")
        self.reference_store = work / "reference.store"
        self.store = (work / "out.store" if self.workload.generate_workers
                      else self.reference_store)
        self.reference: Reference | None = None
        self.cli_seed = seed

    # -- processes ----------------------------------------------------

    def invoke(self, argv: list[str], stdout: Path) -> Invocation:
        """Run one process to completion; its own and its reaped
        children's CPU time and peak RSS come from ``wait4``."""
        with open(stdout, "wb") as out, \
                open(stdout.with_suffix(".err"), "wb") as err:
            started = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err,
                                    env=self.env, cwd=self.work,
                                    start_new_session=True)
            killer = threading.Timer(INVOCATION_TIMEOUT_S, _kill_group,
                                     (proc.pid,))
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                # Interrupted (SIGINT, SIGTERM): stop the child first.
                _kill_group(proc.pid)
                os.waitpid(proc.pid, 0)
                raise
            finally:
                killer.cancel()
                killer.join()
            wall = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            tail = stdout.with_suffix(".err").read_text(errors="replace")
            print(f"[{' '.join(argv[-3:])}] exit {proc.returncode}: "
                  f"{tail[-2000:]}", file=sys.stderr)
        return Invocation(status=proc.returncode, wall_s=wall,
                          cpu_s=usage.ru_utime + usage.ru_stime,
                          maxrss_kb=usage.ru_maxrss)

    def cli(self, args: list[str], stdout: Path) -> Invocation:
        return self.invoke([sys.executable, *CLI, *args], stdout)

    def store_digest(self, path: Path) -> tuple[str, int]:
        """Canonical content digest and report count of a saved store.

        Computed in a child process: the driver never imports the
        program, so its own memory stays small, and a child's
        ``ru_maxrss``, which starts from the driver's resident size,
        measures the child.
        """
        out = self.work / "digest.out"
        if self.invoke([sys.executable, "-c", DIGEST, str(path)],
                       out).status != 0:
            return "", 0
        digest, reports = out.read_text().split()
        return digest, int(reports)

    def pick_cli_seed(self) -> int:
        """The CLI seed whose population has the workload's size."""
        wl = self.workload
        out = self.work / "seed.out"
        run = self.invoke([sys.executable, "-c", PICK_SEED, wl.scenario,
                           str(wl.samples), str(self.seed * SEED_STRIDE),
                           str(wl.target_reports), str(REPORTS_TOLERANCE),
                           str(SEED_STRIDE)], out)
        picked = out.read_text().strip()
        if run.status != 0 or not picked:
            raise SetupError(f"no population of {wl.target_reports} reports "
                             f"for seed {self.seed}")
        self.cli_seed = int(picked)
        return self.cli_seed

    def legs(self) -> list[list[str]]:
        """CLI arguments of each timed invocation, in order."""
        wl = self.workload
        base = wl.base_args(self.cli_seed)
        legs = []
        if wl.generate_workers:
            workers = (["--workers", str(wl.generate_workers)]
                       if wl.generate_workers > 1 else [])
            legs.append([*base, *workers, "generate", str(self.store)])
        if wl.analyze:
            legs.append([*base, "--store", str(self.store), "all"])
        return legs

    # -- set-up -------------------------------------------------------

    def setup_seconds(self) -> float:
        """Launch until the CLI is ready: interpreter, ``import
        repro.cli`` and the parser, timed as ``repro-vt --help``."""
        run = self.cli(["--help"], self.work / "help.out")
        if run.status != 0:
            raise SetupError("repro-vt --help failed")
        return run.wall_s

    def build_reference(self) -> Reference:
        """Serial store for the same scenario, samples and seed, and
        ``all`` rendered over it; also warms the caches before timing."""
        base = self.workload.base_args(self.pick_cli_seed())
        ref = self.reference_store
        if self.cli([*base, "generate", str(ref)],
                    self.work / "reference.gen.out").status != 0:
            raise SetupError("serial reference generate failed")
        digest, reports = self.store_digest(ref)
        if not reports:
            raise SetupError("reference store has no reports")
        all_sha = None
        if self.workload.analyze:
            out = self.work / "reference.all.out"
            if self.cli([*base, "--store", str(ref), "all"], out).status != 0:
                raise SetupError("reference all failed")
            all_sha = file_sha256(out)
        self.reference = Reference(digest=digest, reports=reports,
                                   store_bytes=ref.stat().st_size,
                                   store_sha256=file_sha256(ref),
                                   all_sha256=all_sha)
        return self.reference

    def store_matches(self) -> bool:
        """Whether the workload's store has the reference digest.

        A byte-identical file has the same digest; only a file whose
        bytes differ (a saved header may carry read counters) costs a
        digest computation.
        """
        ref = self.reference
        return (file_sha256(self.store) == ref.store_sha256
                or self.store_digest(self.store)[0] == ref.digest)

    # -- timed loop ---------------------------------------------------

    def iterate(self, trace: bool) -> Iteration:
        ref = self.reference
        legs, spans = [], []
        for i, args in enumerate(self.legs()):
            out = self.work / f"leg{i}.out"
            if trace:
                span_path = self.work / f"leg{i}.spans.json"
                span_path.unlink(missing_ok=True)
                legs.append(self.invoke(
                    [sys.executable, str(TRACED), str(span_path), "--", *args],
                    out))
            else:
                legs.append(self.cli(args, out))
            if legs[-1].status != 0:
                return Iteration(legs=legs, ok=False, traced=trace)
            if trace:
                spans.append(json.loads(span_path.read_text()))
        # Checks run after the timed invocations and are not timed.
        ok = self.store_matches()
        if self.workload.analyze:
            ok = ok and file_sha256(self.work / f"leg{len(legs) - 1}.out") \
                == ref.all_sha256
        return Iteration(legs=legs, ok=ok, traced=trace,
                         store_bytes=self.store.stat().st_size, spans=spans)

    def loop(self, seconds: float, trace: bool) -> list[Iteration]:
        """Closed loop for about ``seconds``: the next iteration starts
        when the previous one (and its checks) ended.  In an untraced
        run, one ``repro-vt --help`` follows every second iteration, so
        the ``setup_s`` samples span the run like the iterations do.  A
        traced run alternates untraced and traced iterations."""
        started = time.perf_counter()
        deadline = started + seconds
        iterations: list[Iteration] = []
        spent: list[float] = []
        while True:
            traced_done = sum(it.traced for it in iterations)
            enough = (len(iterations) >= MIN_ITERATIONS
                      and (not trace or traced_done >= MIN_TRACED))
            estimate = statistics.median(spent) if spent else 0.0
            if enough and time.perf_counter() + estimate / 2 > deadline:
                return iterations
            t0 = time.perf_counter()
            iterations.append(self.iterate(trace and len(iterations) % 2 == 1))
            if not trace and len(iterations) % 2 == 1:
                iterations[-1].setup_s = self.setup_seconds()
            spent.append(time.perf_counter() - t0)
            if any(leg.wall_s >= INVOCATION_TIMEOUT_S
                   for leg in iterations[-1].legs):
                return iterations

    # -- metrics ------------------------------------------------------

    def end_to_end(self, iterations: list[Iteration]) -> dict[str, float]:
        """Times are the smallest seen in the run (see README.md: other
        tenants of the host only ever add time); sizes are medians."""
        ref = self.reference
        # A failed iteration may have stopped early: time the good ones.
        measured = [it for it in iterations if it.ok] or iterations
        wall = fastest(measured, "wall_s")
        store_bytes = statistics.median(
            it.store_bytes for it in measured) or ref.store_bytes
        return {
            "wall_s": wall,
            "reports_per_s": ref.reports / wall,
            "cpu_s": fastest(measured, "cpu_s"),
            "setup_s": min(it.setup_s for it in iterations
                           if it.setup_s is not None),
            "peak_rss_mb": statistics.median(
                it.maxrss_kb for it in measured) / 1024.0,
            "store_bytes_per_report": store_bytes / ref.reports,
        }

    def per_layer(self, iterations: list[Iteration],
                  numpy_s: float) -> dict[str, float]:
        """The layer breakdown of the fastest traced iteration, chosen
        as ``wall_s`` is among untraced ones, so that its self times
        still add up to its wall."""
        traced_its = [it for it in iterations if it.traced and it.ok]
        plain = [it.wall_s for it in iterations if not it.traced]
        metrics: dict[str, float] = {}
        if traced_its:
            best = min(traced_its, key=lambda it: it.wall_s)
            metrics = layer_row(best, numpy_s)
            if plain:
                metrics["trace.overhead_s"] = best.wall_s - min(plain)
        failed = sum(not it.ok for it in iterations)
        metrics["failed_share"] = failed / len(iterations)
        return metrics


def fastest(iterations: list[Iteration], attr: str) -> float:
    """Sum over the workload's invocations of each one's smallest
    ``attr`` among the iterations."""
    best: dict[int, float] = {}
    for it in iterations:
        for i, leg in enumerate(it.legs):
            value = getattr(leg, attr)
            best[i] = min(best.get(i, value), value)
    return sum(best.values())


def layer_row(it: Iteration, numpy_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced iteration, summed over its legs.

    ``startup.*`` are per CLI invocation, like ``setup_s``; every other
    layer metric is the workload's total over its invocations.
    """
    legs = len(it.spans)
    span_sum = {span: {"self_s": 0.0, "rss_raise_mb": 0.0}
                for span in traced.SPANS}
    counts: dict[str, float] = {}
    for leg in it.spans:
        for span, entry in leg["spans"].items():
            span_sum[span]["self_s"] += entry["self_s"]
            span_sum[span]["rss_raise_mb"] += entry["rss_raise_mb"]
        for key, value in leg["counts"].items():
            counts[key] = counts.get(key, 0) + value
    row: dict[str, float] = {}
    for span, entry in span_sum.items():
        per = legs if span == "startup.import" else 1
        row[self_metric(span)] = entry["self_s"] / per
        row[f"{span}.rss_raise_mb"] = entry["rss_raise_mb"] / per
    row["startup.import.numpy_s"] = numpy_s
    stored = counts.pop("store.decode.blocks_stored")
    row.update(counts)
    scans = counts["vt.scan.reports"]
    row["vt.scan.us_per_report"] = (
        span_sum["vt.scan"]["self_s"] / scans * 1e6 if scans else 0.0)
    row["store.decode.amplification"] = (
        counts["store.decode.blocks"] / stored if stored else 0.0)
    total_self = sum(entry["self_s"] for entry in span_sum.values())
    row["other.self_s"] = it.wall_s - total_self
    row["trace.wall_s"] = it.wall_s
    return row


def file_sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def numpy_import_seconds(bench: Bench) -> float:
    """numpy's cumulative import time inside ``import repro.cli``."""
    samples = []
    for _ in range(IMPORTTIME_RUNS):
        out = bench.work / "importtime.out"
        run = bench.invoke([sys.executable, "-X", "importtime", "-c",
                            "import repro.cli"], out)
        if run.status != 0:
            raise SetupError("python -X importtime -c 'import repro.cli' failed")
        for line in out.with_suffix(".err").read_text().splitlines():
            # "import time: <self us> | <cumulative us> | <module>"
            fields = line.split("|")
            if len(fields) == 3 and fields[2].strip() == "numpy":
                samples.append(int(fields[1]) / 1e6)
    return statistics.median(samples) if samples else 0.0


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def report(bench: Bench, iterations: list[Iteration],
           metrics: dict[str, float], units: dict[str, str]) -> dict:
    """Print the metric table, then the result line; returns the result."""
    failed = sum(not it.ok for it in iterations)
    traced_n = sum(it.traced for it in iterations)
    print(f"workload {bench.name} (seed {bench.seed}): "
          f"{' '.join(bench.workload.base_args(bench.cli_seed))}, "
          f"{bench.reference.reports} reports; {len(iterations)} iterations "
          f"({traced_n} traced), {failed} failed")
    walls = sorted(it.wall_s for it in iterations if not it.traced)
    if walls:
        print(f"  untraced iteration wall: fastest {walls[0]:.3f} s, "
              f"median {statistics.median(walls):.3f} s, "
              f"slowest {walls[-1]:.3f} s")
    for metric, unit in units.items():
        print(f"  {metric:36s} {metrics[metric]:14.6f} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": len(iterations),
        "failed": failed,
        "metrics": {metric: {"value": metrics[metric], "unit": unit}
                    for metric, unit in units.items()},
    }
    print(json.dumps(result))
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "cli.py").is_file():
        print(f"perfbench: no repro sources under {SRC}", file=sys.stderr)
        return 2

    work = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    bench = Bench(args.workload, args.seed, work)
    try:
        if args.trace:
            numpy_s = numpy_import_seconds(bench)
            bench.build_reference()
            iterations = bench.loop(args.seconds, trace=True)
            metrics = bench.per_layer(iterations, numpy_s)
            units = per_layer_units()
        else:
            bench.build_reference()
            iterations = bench.loop(args.seconds, trace=False)
            metrics = bench.end_to_end(iterations)
            units = END_TO_END
        missing = sorted(set(units) - set(metrics))
        if missing:
            raise SetupError(f"no successful traced run to measure {missing}")
        report(bench, iterations, metrics, units)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass
    return 0


if __name__ == "__main__":
    # A SIGTERM unwinds like Ctrl-C, so children are stopped and the
    # work directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    raise SystemExit(main())
