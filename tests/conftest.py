"""Shared fixtures.

Expensive artefacts (a scenario run, the default fleet) are session-scoped
so the whole suite pays for them once.
"""

from __future__ import annotations

import pytest

from repro.analysis.experiment import ExperimentData, run_experiment
from repro.store.columnar import ColumnarBatch, SeriesFrame
from repro.store.reportstore import ReportStore
from repro.synth.scenario import ScenarioConfig, tiny_scenario
from repro.vt.engines import EngineFleet, default_fleet
from repro.vt.reports import ScanReport
from repro.vt.samples import sha256_of


@pytest.fixture(scope="session")
def fleet() -> EngineFleet:
    return default_fleet(seed=0)


@pytest.fixture(scope="session", params=["row", "columnar"])
def store_block_format(request) -> str:
    """Both block layouts.  Store-bearing suites (index, merge, serve)
    take this fixture so every contract runs against the row path *and*
    the columnar v3 path without duplicated test bodies."""
    return request.param


@pytest.fixture()
def store_factory(store_block_format):
    """A :class:`ReportStore` constructor pinned to the active layout."""

    def make(**kwargs) -> ReportStore:
        kwargs.setdefault("block_format", store_block_format)
        return ReportStore(**kwargs)

    return make


@pytest.fixture(scope="session")
def tiny_config() -> ScenarioConfig:
    """The canonical tiny scenario the equivalence gates share."""
    return tiny_scenario(n_samples=150, seed=13)


@pytest.fixture(scope="session")
def tiny_serial(tiny_config) -> ExperimentData:
    """One serial run of ``tiny_config`` — the reference side of the
    serial/parallel digest and metrics gates."""
    return run_experiment(tiny_config)


@pytest.fixture(scope="session")
def tiny_store(tiny_serial):
    """The serial reference store for ``tiny_config``."""
    return tiny_serial.store


@pytest.fixture(scope="session")
def tiny_config_factory():
    """Builder for ad-hoc tiny scenarios (determinism/property tests)."""
    return tiny_scenario


@pytest.fixture(scope="session")
def chaos_config() -> ScenarioConfig:
    """The mini-scenario the chaos acceptance suite replays."""
    return tiny_scenario(n_samples=600, seed=3)


@pytest.fixture(scope="session")
def experiment() -> ExperimentData:
    """A small but analysable dynamics-scenario run."""
    return run_experiment(tiny_scenario(n_samples=900, seed=7))


@pytest.fixture(scope="session")
def paper_mix_experiment() -> ExperimentData:
    """A run with the full population mix (single-report majority)."""
    config = ScenarioConfig(seed=11, n_samples=1200)
    return run_experiment(config)


def make_report(
    sha: str = "a" * 64,
    file_type: str = "Win32 EXE",
    scan_time: int = 1000,
    labels: list[int] | None = None,
    versions: list[int] | None = None,
    first_submission: int = 0,
    n_engines: int = 5,
) -> ScanReport:
    """A hand-built report with a small synthetic fleet."""
    from repro.vt.reports import encode_labels

    if labels is None:
        labels = [0] * n_engines
    if versions is None:
        versions = [1] * n_engines
    positives = sum(1 for v in labels if v == 1)
    total = sum(1 for v in labels if v != -1)
    return ScanReport(
        sha256=sha,
        file_type=file_type,
        scan_time=scan_time,
        positives=positives,
        total=total,
        labels=encode_labels(labels),
        versions=tuple(versions),
        first_submission_date=first_submission,
        last_submission_date=max(first_submission, 0),
        last_analysis_date=scan_time,
        times_submitted=1,
    )


@pytest.fixture()
def report_factory():
    return make_report


def make_frame(reports: list[ScanReport]) -> SeriesFrame:
    """A report list grouped into a frame with planes, streamed in list
    order — how report-list callers reach the §7 kernels."""
    return SeriesFrame.from_batches([ColumnarBatch.from_reports(reports)])


def make_sha(token: str) -> str:
    return sha256_of(token)


@pytest.fixture()
def sha_factory():
    return make_sha
