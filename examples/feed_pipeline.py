#!/usr/bin/env python3
"""Re-creating the paper's data-collection pipeline (§4.1).

The authors polled VirusTotal's premium feed every minute, parsed and
compressed the reports, and stored them by month.  This example drives
the same loop explicitly — client, service, feed, store — instead of
using the packaged experiment runner, then persists the store to disk
and reloads it, printing the Table 2 accounting both times.

Run:  python examples/feed_pipeline.py
"""

import tempfile
from pathlib import Path

from repro import PremiumFeed, ReportStore, VirusTotalService, VTClient
from repro.analysis.rendering import render_table2
from repro.synth.population import PopulationGenerator
from repro.synth.scenario import paper_scenario

config = paper_scenario(n_samples=3_000, seed=99)
service = VirusTotalService(seed=config.seed)
client = VTClient(service, key="premium-key", premium=True)
client.require_premium("feed")          # the gate the paper paid for
feed = PremiumFeed()
store = ReportStore(block_records=256)

# Generate the workload and flatten it into a time-ordered event list.
# Registering a sample that predates the window backfills its first
# submission.
events = []
for spec in PopulationGenerator(config):
    service.register(spec.sample)
    for ordinal, when in enumerate(spec.scan_times):
        events.append((when, spec.sample, ordinal))
events.sort(key=lambda e: e[0])

# The collection loop: submissions hit the API, and the service side
# publishes every report it generates to the feed; every poll of the
# feed returns the reports published since the last poll, which go
# straight into the compressed store.
for i, (when, sample, ordinal) in enumerate(events):
    if ordinal == 0 and sample.fresh:
        report = client.upload(sample, when)
    else:
        report = client.rescan(sample.sha256, when)
    feed.publish([report])
    if i % 2_000 == 0:
        store.ingest_batch(feed.poll())
store.ingest_batch(feed.poll())
store.close()

print(f"collected {store.report_count:,} reports "
      f"({feed.reports_served:,} served over {feed.batches_served} polls)")
print()
print(render_table2(store.stats()))

# Persist and reload, as the paper's MongoDB allowed across sessions.
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "vt-reports.store"
    store.save(path)
    print(f"\nsaved store: {path.stat().st_size / 1e6:.2f} MB on disk")
    reloaded = ReportStore.load(path)
    assert reloaded.report_count == store.report_count
    sha = next(iter(reloaded.samples()))
    print(f"reloaded OK; sample {sha[:12]}… has "
          f"{reloaded.report_count_of(sha)} report(s)")
