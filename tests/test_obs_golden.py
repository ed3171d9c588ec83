"""Metric golden tests: fixed-seed exact values, serial == parallel.

Two gates live here, next to the store-digest equivalence gate:

1. **Golden values.**  A fixed-seed run of the canonical tiny scenario
   must export *exactly* the values pinned below.  Every pinned series
   is zlib-independent (report counts, verbose bytes, bucket counts) so
   the goldens hold across zlib builds; the compressed-bytes gauge is
   asserted present-and-positive only.
2. **Partition invariance.**  ``run_experiment(config, workers=3)``
   merges its shard registries into an export *byte-identical* to the
   serial run's — JSONL and Prometheus text alike.  This is the metrics
   analogue of the digest gate and the acceptance criterion of the
   observability layer.
"""

import json

import pytest

from repro.analysis.experiment import run_experiment
from repro.obs import (
    JSONL_SCHEMA,
    MetricsRegistry,
    jsonl_lines,
    prometheus_text,
    summary,
)

#: Per-month ingest counts of tiny_scenario(n_samples=150, seed=13).
GOLDEN_MONTH_RECORDS = {
    "05/2021": 18, "06/2021": 17, "07/2021": 26, "08/2021": 25,
    "09/2021": 43, "10/2021": 37, "11/2021": 32, "12/2021": 46,
    "01/2022": 62, "02/2022": 47, "03/2022": 40, "04/2022": 56,
    "05/2022": 69, "06/2022": 119,
}

#: Scalar series of the same run (zlib-independent only).
GOLDEN_SCALARS = {
    ("run.events.total", ()): 637,
    ("vt.register.total", ()): 150,
    ("vt.scan.total", (("kind", "upload"),)): 150,
    ("vt.scan.total", (("kind", "rescan"),)): 487,
    ("vt.report.total", ()): 637,
    ("store.ingest.bytes", ()): 274808,
    ("store.ingest.duplicates", ()): 0,
    ("store.ingest.batch_records", ()): 637,
    ("store.reports", ()): 637,
    ("store.samples", ()): 150,
    ("store.fresh_samples", ()): 150,
    ("store.blocks", ()): 14,
    ("store.bytes.verbose", ()): 8535800,
    ("store.bytes.buffered", ()): 0,
}

GOLDEN_POSITIVES = {
    "edges": [0, 1, 2, 3, 5, 8, 13, 21, 34, 55, 70],
    "counts": [239, 49, 37, 22, 54, 28, 50, 39, 30, 66, 23, 0],
    "sum": 7055,
    "count": 637,
}

GOLDEN_INTERVALS = {
    "edges": [60, 360, 1440, 4320, 10080, 20160, 43200, 129600, 259200],
    "counts": [3, 12, 73, 95, 89, 78, 68, 52, 13, 4],
    "sum": 11560706,
    "count": 487,
}


@pytest.fixture(scope="module")
def serial_metrics(tiny_config) -> MetricsRegistry:
    registry = MetricsRegistry()
    run_experiment(tiny_config, metrics=registry)
    return registry


@pytest.fixture(scope="module")
def parallel_metrics(tiny_config) -> MetricsRegistry:
    registry = MetricsRegistry()
    run_experiment(tiny_config, workers=3, metrics=registry)
    return registry


def _rows(registry) -> dict:
    rows = {}
    for line in jsonl_lines(registry)[1:]:
        row = json.loads(line)
        rows[(row["name"], tuple(sorted(row["labels"].items())))] = row
    return rows


# ----------------------------------------------------------------------
# Gate 1: fixed-seed golden values
# ----------------------------------------------------------------------


class TestGoldenValues:
    def test_schema_line(self, serial_metrics):
        assert (json.loads(jsonl_lines(serial_metrics)[0])
                == {"schema": JSONL_SCHEMA})

    def test_scalar_series_exact(self, serial_metrics):
        rows = _rows(serial_metrics)
        for key, expected in GOLDEN_SCALARS.items():
            assert rows[key]["value"] == expected, key

    def test_month_ingest_counters_exact(self, serial_metrics):
        rows = _rows(serial_metrics)
        got = {labels[0][1]: row["value"]
               for (name, labels), row in rows.items()
               if name == "store.ingest.records"}
        assert got == GOLDEN_MONTH_RECORDS

    def test_month_gauges_mirror_ingest_counters(self, serial_metrics):
        rows = _rows(serial_metrics)
        for month, expected in GOLDEN_MONTH_RECORDS.items():
            key = ("store.month.reports", (("month", month),))
            assert rows[key]["value"] == expected

    def test_positives_histogram_exact(self, serial_metrics):
        row = _rows(serial_metrics)[("vt.report.positives", ())]
        for field, expected in GOLDEN_POSITIVES.items():
            assert row[field] == expected, field

    def test_rescan_interval_histogram_exact(self, serial_metrics):
        row = _rows(serial_metrics)[("vt.rescan.interval_minutes", ())]
        for field, expected in GOLDEN_INTERVALS.items():
            assert row[field] == expected, field

    def test_record_bytes_histogram_consistent(self, serial_metrics):
        row = _rows(serial_metrics)[("store.ingest.record_bytes", ())]
        assert row["count"] == 637
        assert row["sum"] == 274808
        assert sum(row["counts"]) == row["count"]

    def test_compressed_bytes_present_not_pinned(self, serial_metrics):
        # zlib-build-dependent: present and positive, never hardcoded.
        row = _rows(serial_metrics)[("store.bytes.compressed", ())]
        assert row["value"] > 0

    def test_gauges_match_store_accounting(self, serial_metrics, tiny_store):
        rows = _rows(serial_metrics)
        assert (rows[("store.reports", ())]["value"]
                == tiny_store.report_count)
        assert (rows[("store.samples", ())]["value"]
                == tiny_store.sample_count)
        stats = tiny_store.stats()
        assert (rows[("store.bytes.verbose", ())]["value"]
                == stats.verbose_bytes)
        assert (rows[("store.bytes.compressed", ())]["value"]
                == stats.compressed_bytes)

    def test_rerun_exports_identical_bytes(self, tiny_config, serial_metrics):
        again = MetricsRegistry()
        run_experiment(tiny_config, metrics=again)
        assert jsonl_lines(again) == jsonl_lines(serial_metrics)
        assert prometheus_text(again) == prometheus_text(serial_metrics)


# ----------------------------------------------------------------------
# Gate 2: serial == merged-parallel, byte for byte
# ----------------------------------------------------------------------


class TestPartitionInvariance:
    def test_jsonl_byte_identical(self, serial_metrics, parallel_metrics):
        assert jsonl_lines(parallel_metrics) == jsonl_lines(serial_metrics)

    def test_prometheus_byte_identical(self, serial_metrics,
                                       parallel_metrics):
        assert (prometheus_text(parallel_metrics)
                == prometheus_text(serial_metrics))

    def test_summary_tree_identical(self, serial_metrics, parallel_metrics):
        assert summary(parallel_metrics) == summary(serial_metrics)

    def test_other_worker_counts_also_match(self, tiny_config,
                                            serial_metrics):
        registry = MetricsRegistry()
        run_experiment(tiny_config, workers=2, metrics=registry)
        assert jsonl_lines(registry) == jsonl_lines(serial_metrics)

    def test_parallel_run_still_digest_equivalent(self, tiny_config,
                                                  tiny_store):
        # The metrics gate rides on top of the dataset gate, not instead
        # of it: with a live registry attached the digests still match.
        registry = MetricsRegistry()
        data = run_experiment(tiny_config, workers=3, metrics=registry)
        assert data.store.digest() == tiny_store.digest()
