"""Command-line interface: ``repro-vt``.

Subcommands mirror the reproduction workflow:

* ``generate`` — run a scenario and save the report store to disk;
* ``collect`` — run the resilient minute-by-minute collection pipeline
  (optionally under the standard chaos fault plan) into a working
  directory with checkpoint/store/dead-letter files;
* ``overview`` — Tables 2-3 and Figure 1 from a saved (or fresh) store;
* ``dynamics`` — Figures 2-8;
* ``stabilization`` — Figure 9 and Observation 8;
* ``engines`` — Figures 10-11 and the Tables 4-8 groups;
* ``metrics`` — the observability registry of a run (or a loaded
  store's accounting gauges) as a summary tree, Prometheus text or
  JSONL;
* ``serve`` — serve a saved store over HTTP (latest report, AV-Rank
  series, premium per-minute feed) with API keys and tiered quotas;
* ``lint`` — reprolint, the static determinism/invariant linter, over
  this package's own source (or ``--paths``);
* ``all`` — everything above in one run.

The global ``--metrics-out PATH`` flag works with every subcommand:
the run records into a live :class:`~repro.obs.MetricsRegistry` and the
export is written on exit (``.prom`` suffix → Prometheus text,
anything else → JSONL).

Exit codes are uniform across subcommands (pytest convention):

* ``0`` — success, and nothing to report;
* ``1`` — the command ran fine but *found* something: lint findings,
  a digest difference (``digest A B``), a failed calibration band;
* ``2`` — internal error or bad usage (bad flags, unreadable files,
  unknown lint codes).
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import TYPE_CHECKING

# Unused here since the analyses read ExperimentData.frame, but kept as a
# module attribute: perfbench/traced.py wraps repro.cli.collect_series.
from repro.core.avrank import collect_series  # noqa: F401
from repro.errors import ConfigError, ReproError
from repro.vt.clock import DEFAULT_ARCHIVE_RETENTION_MINUTES

if TYPE_CHECKING:
    from repro.analysis.experiment import ExperimentData

# Each command imports what it runs inside its own function, so that
# ``--help`` and ``lint`` never load numpy and ``generate`` loads no
# figure analysis (docs/architecture.md, "Startup and imports").


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-vt",
        description="Reproduce the IMC'23 VirusTotal label-dynamics study "
                    "on a simulated VT ecosystem.",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="exit codes: 0 = success; 1 = findings or differences "
               "(lint findings, digest mismatch, failed calibration); "
               "2 = internal error or bad usage",
    )
    parser.add_argument("--samples", type=int, default=10_000,
                        help="population size (default: 10000)")
    parser.add_argument("--seed", type=int, default=0,
                        help="scenario seed (default: 0)")
    parser.add_argument("--scenario", choices=("paper", "dynamics"),
                        default="dynamics",
                        help="population preset: full paper mix or the "
                             "dynamics-focused dataset S")
    parser.add_argument("--store", metavar="PATH",
                        help="load reports from a saved store instead of "
                             "generating")
    parser.add_argument("--workers", metavar="N|auto", default="1",
                        help="shard the scenario across N worker processes "
                             "('auto' = CPU count, capped by "
                             "REPRO_MAX_WORKERS); bit-identical to a "
                             "serial run (default: 1)")
    parser.add_argument("--executor",
                        choices=("auto", "in-process", "fork", "spawn"),
                        default="auto",
                        help="executor backend for --workers > 1: forked "
                             "or spawned process pool, or an in-process "
                             "queue (default: auto = fork where "
                             "available, else spawn)")
    parser.add_argument("--executor-chaos", action="store_true",
                        help="inject the standard executor fault plan "
                             "(worker crashes, hangs, corrupted shard "
                             "payloads); the run must still converge to "
                             "the fault-free digest")
    parser.add_argument("--metrics-out", metavar="PATH", default=None,
                        help="record run metrics and write the export here "
                             "on exit (.prom = Prometheus text, anything "
                             "else = JSONL)")
    sub = parser.add_subparsers(dest="command", required=True)
    gen = sub.add_parser("generate", help="generate and save a store")
    gen.add_argument("output", help="path for the saved store")
    dig = sub.add_parser(
        "digest",
        help="print the canonical content digest of a saved store "
             "(the serial/parallel equivalence gate compares these); "
             "with two paths, compare them (exit 1 on mismatch)")
    dig.add_argument("path", help="saved store to digest")
    dig.add_argument("path2", nargs="?", default=None,
                     help="second store to compare against (exit 1 if "
                          "the digests differ)")
    collect = sub.add_parser(
        "collect",
        help="run the resilient collection pipeline into a directory")
    collect.add_argument("outdir",
                         help="working directory (store, checkpoint, "
                              "dead letters)")
    collect.add_argument("--chaos", action="store_true",
                         help="inject the standard fault plan "
                              "(outage, transients, duplicates, corruption)")
    collect.add_argument("--resume", action="store_true",
                         help="resume a crashed run from its checkpoint")
    collect.add_argument("--until-days", type=float, default=None,
                         help="truncate the simulation horizon (days)")
    collect.add_argument("--crash-at-days", type=float, default=None,
                         help="simulate a crash after this many days "
                              "(no final flush; use --resume to continue)")
    collect.add_argument("--persist-every", type=int, default=24 * 60,
                         metavar="MINUTES",
                         help="checkpoint cadence in simulated minutes "
                              "(default: daily)")
    sub.add_parser("overview", help="Tables 2-3, Figure 1")
    sub.add_parser("dynamics", help="Figures 2-8")
    sub.add_parser("stabilization", help="Figure 9, Observation 8")
    sub.add_parser("engines", help="Figures 10-11, Tables 4-8")
    serve = sub.add_parser(
        "serve",
        help="serve a saved store over HTTP: GET /files/{sha256}, "
             "/files/{sha256}/series, /feeds/files/{minute} "
             "(premium keys only)")
    serve.add_argument("store_path", help="saved report store to serve")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default: 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8228,
                       help="bind port; 0 picks a free port "
                            "(default: 8228)")
    serve.add_argument("--api-key", action="append", default=None,
                       metavar="KEY:TIER",
                       help="register an API key (repeatable; tier is "
                            "'free' — 500/day at 4/min — or 'premium'). "
                            "Default: demo-free:free demo-premium:premium")
    serve.add_argument("--mmap", action="store_true",
                       help="memory-map the store file instead of reading "
                            "it up front; blocks decode lazily on first "
                            "touch, so multiple serve processes share one "
                            "page cache")
    serve.add_argument("--no-feed", action="store_true",
                       help="disable the /feeds endpoint (skips building "
                            "the archive)")
    serve.add_argument("--feed-retention", type=int,
                       default=DEFAULT_ARCHIVE_RETENTION_MINUTES,
                       metavar="MINUTES",
                       help="feed archive retention window in simulated "
                            "minutes (default: 7 days)")
    met = sub.add_parser(
        "metrics",
        help="print the metrics registry of a run (or of a loaded store)")
    met.add_argument("--format", choices=("summary", "prom", "jsonl"),
                     default="summary",
                     help="output format (default: human summary tree)")
    lint = sub.add_parser(
        "lint",
        help="reprolint: statically enforce the determinism contract "
             "(wall clocks, unseeded RNG, unordered iteration, metric "
             "discipline); exit 1 on findings")
    lint.add_argument("--format", choices=("text", "json"), default="text",
                      help="report format (default: grep-able text; json "
                           "is byte-deterministic)")
    lint.add_argument("--select", default=None, metavar="CODES",
                      help="comma-separated rule codes to run "
                           "(e.g. RPL001,RPL004; default: all)")
    lint.add_argument("--paths", nargs="*", default=None, metavar="PATH",
                      help="files/directories to lint (default: the "
                           "installed repro package source)")
    lint.add_argument("--output", default=None, metavar="PATH",
                      help="also write the report to this file")
    lint.add_argument("--explain", action="store_true",
                      help="with --paths: include whole-program evidence "
                           "(call chains) per finding; alone: list every "
                           "rule code with its summary and exit")
    sub.add_parser("all", help="every table and figure")
    sub.add_parser("calibrate", help="grade headline stats vs the paper")
    report = sub.add_parser("report", help="write a full markdown report")
    report.add_argument("output", help="path for the markdown report")
    return parser


def _config(args: argparse.Namespace):
    from repro.synth.scenario import dynamics_scenario, paper_scenario

    if args.scenario == "paper":
        return paper_scenario(n_samples=args.samples, seed=args.seed)
    return dynamics_scenario(n_samples=args.samples, seed=args.seed)


def _run(args: argparse.Namespace, metrics=None) -> ExperimentData:
    from repro.analysis.experiment import run_experiment

    return run_experiment(_config(args), workers=_workers(args),
                          metrics=metrics, executor=_executor(args))


def _data(args: argparse.Namespace, metrics=None) -> ExperimentData:
    if args.store:
        from repro.analysis.experiment import ExperimentData
        from repro.store.reportstore import ReportStore

        store = ReportStore.load(args.store, metrics=metrics)
        if metrics is not None:
            # No run happened: the registry carries only the loaded
            # store's accounting gauges (plus any later cache traffic).
            try:
                store.publish_metrics()
            except BaseException:
                store.close()
                raise
        return ExperimentData(
            config=_config(args),
            fleet=None,  # engine names are the default fleet's
            service=None,  # analyses never need the live service
            store=store,
            metrics=metrics,
        )
    # Wall time below is operator-facing elapsed display only; it never
    # feeds simulation state or stored bytes.
    started = time.perf_counter()  # reprolint: disable=RPL001 - display only
    data = _run(args, metrics)
    elapsed = time.perf_counter() - started  # reprolint: disable=RPL001 - display only
    print(f"[generated {data.store.report_count:,} reports from "
          f"{data.store.sample_count:,} samples in "
          f"{elapsed:.1f}s "
          f"({data.workers} worker{'s' if data.workers != 1 else ''})]\n",
          file=sys.stderr)
    return data


def _executor(args: argparse.Namespace):
    """The executor policy implied by ``--executor``/``--executor-chaos``.

    Returns the bare kind string in the common case (the runner applies
    its defaults); chaos builds a full policy with a deadline short
    enough that injected hangs are detected and stolen well within the
    run, not just tolerated.
    """
    if not args.executor_chaos:
        return args.executor
    from repro.faults.executor import standard_executor_chaos_plan
    from repro.parallel.scheduler import ExecutorPolicy

    return ExecutorPolicy(
        kind=args.executor,
        heartbeat_deadline=1.5,
        fault_plan=standard_executor_chaos_plan(
            seed=args.seed, hang_seconds=2.5),
    )


def _workers(args: argparse.Namespace) -> int | str:
    value = args.workers
    if value == "auto":
        return value
    try:
        return int(value)
    except ValueError as exc:
        # ConfigError → exit code 2 via main()'s uniform error handling.
        raise ConfigError(
            f"--workers must be an integer or 'auto', got {value!r}"
        ) from exc


def cmd_overview(data: ExperimentData) -> None:
    from repro.analysis import dataset as dataset_mod, rendering

    print(rendering.render_table2(data.store.stats()))
    print()
    print(rendering.render_table3(
        dataset_mod.file_type_distribution(data.store)))
    print()
    print(rendering.render_fig1(
        dataset_mod.ReportsPerSample.from_store(data.store)))


def cmd_dynamics(data: ExperimentData) -> None:
    from repro.analysis import dynamics as dynamics_mod, rendering

    frame, dataset_s = data.frame, data.dataset_s
    print(rendering.render_fig2(dynamics_mod.stable_dynamic_split(frame)))
    print()
    print(rendering.render_fig3_fig4(
        dynamics_mod.stable_sample_profile(frame)))
    print()
    print(rendering.render_fig5(dynamics_mod.delta_distributions(dataset_s)))
    print()
    print(rendering.render_fig6(dynamics_mod.per_type_dynamics(dataset_s)))
    print()
    print(rendering.render_fig7(dynamics_mod.interval_effect(dataset_s)))
    print()
    print(rendering.render_fig8(dynamics_mod.threshold_impact(dataset_s)))


def cmd_stabilization(data: ExperimentData) -> None:
    from repro.analysis import rendering, stabilization as stab_mod

    dataset_s = data.dataset_s
    print(rendering.render_obs8(
        stab_mod.avrank_stabilization_profile(dataset_s)))
    print()
    print(rendering.render_fig9(
        stab_mod.label_stabilization_profile(dataset_s)))


def cmd_engines(data: ExperimentData) -> None:
    from repro.analysis import engines as engines_mod, rendering

    names = data.engine_names
    stability = engines_mod.engine_stability(data.dataset_s, names)
    print(rendering.render_fig10(stability.flips,
                                 engines_mod.APPENDIX_FILE_TYPES))
    print()
    correlation = engines_mod.engine_correlation(data.frame, names)
    print(rendering.render_fig11(correlation.overall))
    print()
    print(rendering.render_group_tables(correlation.per_type))


def cmd_collect(args: argparse.Namespace, metrics=None) -> int:
    from repro.collect.driver import auto_resume_minute, run_collection
    from repro.faults.plan import standard_chaos_plan

    config = _config(args)
    if args.chaos:
        config = config.with_(fault_plan=standard_chaos_plan(args.seed))
    minutes_per_day = 24 * 60
    until = (int(args.until_days * minutes_per_day)
             if args.until_days is not None else None)
    stop_at = (int(args.crash_at_days * minutes_per_day)
               if args.crash_at_days is not None else None)
    resume_from = auto_resume_minute(args.outdir) if args.resume else None

    started = time.perf_counter()  # reprolint: disable=RPL001 - display only
    result = run_collection(
        config,
        out_dir=args.outdir,
        persist_every=args.persist_every,
        resume_from=resume_from,
        stop_at=stop_at,
        until_minute=until,
        metrics=metrics,
    )
    stats = result.stats
    elapsed = time.perf_counter() - started  # reprolint: disable=RPL001 - display only
    verb = "crashed (simulated)" if result.crashed else "completed"
    print(f"collection {verb} in {elapsed:.1f}s: "
          f"{result.store.report_count:,} reports from "
          f"{result.store.sample_count:,} samples in {args.outdir}")
    print(f"  minutes processed    {stats.minutes_processed:,}")
    print(f"  reports ingested     {stats.reports_ingested:,} "
          f"({stats.duplicates_skipped:,} duplicates skipped)")
    print(f"  transient errors     {stats.transient_errors:,} "
          f"({stats.backoff_minutes:.0f} simulated backoff minutes)")
    print(f"  outage minutes       {stats.outage_minutes:,}")
    print(f"  gaps backfilled      {stats.minutes_backfilled:,} minutes / "
          f"{stats.reports_backfilled:,} reports")
    print(f"  dead letters         {stats.dead_letters:,}")
    print(f"  checkpoint saves     {stats.checkpoint_saves:,}")
    if stats.pending_gap_minutes:
        print(f"  UNRECOVERED gap minutes: {stats.pending_gap_minutes:,}")
    return 0


def _write_metrics(registry, path: str) -> None:
    from repro.obs.export import write_jsonl, write_prometheus

    if path.endswith(".prom"):
        write_prometheus(registry, path)
    else:
        write_jsonl(registry, path)
    print(f"[wrote metrics to {path}]", file=sys.stderr)


def cmd_lint(args: argparse.Namespace) -> int:
    from repro.lint.config import LintConfig, parse_select
    from repro.lint.engine import default_target, lint_paths
    from repro.lint.report import render_json, render_rules, render_text

    # Bare --explain keeps its original meaning (the rule table); with
    # explicit --paths it switches the findings report to evidence mode.
    if args.explain and not args.paths:
        print(render_rules(), end="")
        return 0
    select = parse_select(args.select) if args.select else None
    config = LintConfig(select=select)
    targets = args.paths if args.paths else [default_target()]
    result = lint_paths(targets, config=config)
    text = (render_json(result) if args.format == "json"
            else render_text(result, explain=args.explain))
    print(text, end="")
    if args.output:
        from pathlib import Path

        Path(args.output).write_text(text, encoding="utf-8")
        print(f"[wrote lint report to {args.output}]", file=sys.stderr)
    return 0 if result.ok else 1


def cmd_serve(args: argparse.Namespace, metrics=None) -> int:
    from repro.serve.auth import TenantRegistry
    from repro.serve.http import ReportServer
    from repro.store.reportstore import ReportStore
    from repro.vt.feed import FeedArchive

    store = ReportStore.load(args.store_path, metrics=metrics,
                             use_mmap=args.mmap)
    try:
        tenants = TenantRegistry()
        specs = args.api_key or ["demo-free:free", "demo-premium:premium"]
        for spec in specs:
            tenants.add_spec(spec)
        archive = None
        if not args.no_feed:
            archive = FeedArchive.from_store(
                store, retention_minutes=args.feed_retention)
        server = ReportServer(store, tenants, archive,
                              host=args.host, port=args.port, metrics=metrics)
        host, port = server.address
        print(f"serving {store.report_count:,} reports "
              f"({store.sample_count:,} samples) from {args.store_path} "
              f"at http://{host}:{port}")
        if archive is not None:
            print(f"feed archive: minutes {archive.oldest_available}"
                  f"..{archive.horizon} "
                  f"({archive.minutes_retained():,} retained)")
        for tenant in tenants.tenants():
            print(f"  api key {tenant.key}  tier={tenant.tier.name}")
        try:
            server.serve_forever()
        except KeyboardInterrupt:
            print("shutting down", file=sys.stderr)
        finally:
            server.shutdown()
    finally:
        store.close()
    return 0


def cmd_digest(args: argparse.Namespace) -> int:
    from repro.store.reportstore import ReportStore

    digest = ReportStore.load(args.path).digest()
    if args.path2 is None:
        print(digest)
        return 0
    other = ReportStore.load(args.path2).digest()
    print(f"{digest}  {args.path}")
    print(f"{other}  {args.path2}")
    if digest != other:
        print("digests DIFFER")
        return 1
    print("digests match")
    return 0


def cmd_metrics(args: argparse.Namespace, registry) -> int:
    from repro.obs.export import jsonl_lines, prometheus_text, render_summary

    _data(args, metrics=registry)
    if args.format == "jsonl":
        print("\n".join(jsonl_lines(registry)))
    elif args.format == "prom":
        print(prometheus_text(registry), end="")
    else:
        print(render_summary(registry))
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    registry = None
    if args.metrics_out or args.command == "metrics":
        from repro.obs.registry import MetricsRegistry

        registry = MetricsRegistry()
    try:
        status = _dispatch(args, registry)
    except ReproError as exc:
        # Uniform convention: findings/differences exit 1 (returned by
        # the command), internal errors and bad usage exit 2.
        print(f"repro-vt: error: {exc}", file=sys.stderr)
        return 2
    if registry is not None and args.metrics_out:
        _write_metrics(registry, args.metrics_out)
    return status


def _dispatch(args: argparse.Namespace, registry) -> int:
    if args.command == "lint":
        return cmd_lint(args)
    if args.command == "metrics":
        return cmd_metrics(args, registry)
    if args.command == "collect":
        return cmd_collect(args, metrics=registry)
    if args.command == "serve":
        return cmd_serve(args, metrics=registry)
    if args.command == "generate":
        data = _run(args, registry)
        data.store.save(args.output)
        print(f"saved {data.store.report_count:,} reports to {args.output}")
        return 0
    if args.command == "digest":
        return cmd_digest(args)
    data = _data(args, metrics=registry)
    if args.command == "calibrate":
        from repro.analysis.calibration import calibration_report

        report = calibration_report(data)
        print(report.render())
        return 0 if report.passed else 1
    if args.command == "report":
        from repro.analysis.report import write_report

        path = write_report(data, args.output)
        print(f"wrote report to {path}")
        return 0
    if args.command in ("overview", "all"):
        cmd_overview(data)
    if args.command in ("dynamics", "all"):
        print()
        cmd_dynamics(data)
    if args.command in ("stabilization", "all"):
        print()
        cmd_stabilization(data)
    if args.command in ("engines", "all"):
        print()
        cmd_engines(data)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
