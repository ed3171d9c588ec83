"""Collector checkpoints: the last durably-ingested minute, plus gaps.

A checkpoint is only ever written *after* the store snapshot it
describes, so the pair on disk is always consistent: ``last_minute`` is
the last minute whose reports are in the saved store, ``gaps`` are the
half-open minute intervals known to be missing (outages, abandoned
polls, corrupt deliveries awaiting re-fetch), and ``report_count`` lets
resume verify it loaded the matching store.  Writes are atomic
(temp file + :func:`os.replace`) so a crash mid-write leaves the previous
checkpoint intact, and durable: the temp file is fsynced before the
rename and the directory after it, as the store's save does, so a power
loss cannot keep the checkpoint's rename and lose the store's.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import CheckpointError
from repro.store.reportstore import replace_durably

_VERSION = 1


@dataclass
class Checkpoint:
    """Durable collector state between runs."""

    #: Last minute fully handled (polled or gap-recorded); -1 = nothing.
    last_minute: int = -1
    #: Missing minute intervals ``[start, end)`` pending backfill.
    gaps: list[tuple[int, int]] = field(default_factory=list)
    #: Report count of the store snapshot this checkpoint describes.
    report_count: int = 0
    #: Collector counters at checkpoint time (restored on resume).
    counters: dict[str, float] = field(default_factory=dict)

    def add_gap(self, start: int, end: int) -> None:
        """Record ``[start, end)`` as missing, merging adjacent intervals."""
        if end <= start:
            return
        merged: list[tuple[int, int]] = []
        for s, e in sorted(self.gaps + [(start, end)]):
            if merged and s <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], e))
            else:
                merged.append((s, e))
        self.gaps = merged

    def remove_gap(self, start: int, end: int) -> None:
        """Mark ``[start, end)`` as recovered."""
        out: list[tuple[int, int]] = []
        for s, e in self.gaps:
            if e <= start or s >= end:
                out.append((s, e))
                continue
            if s < start:
                out.append((s, start))
            if e > end:
                out.append((end, e))
        self.gaps = out

    @property
    def gap_minutes(self) -> int:
        return sum(e - s for s, e in self.gaps)


def save_checkpoint(checkpoint: Checkpoint, path: str | Path) -> None:
    """Atomically and durably persist a checkpoint.

    Raises :class:`CheckpointError` when the file cannot be written.
    """
    path = Path(path)
    doc = {
        "version": _VERSION,
        "last_minute": checkpoint.last_minute,
        "gaps": [list(g) for g in checkpoint.gaps],
        "report_count": checkpoint.report_count,
        "counters": checkpoint.counters,
    }
    tmp = path.with_suffix(path.suffix + ".tmp")
    try:
        with tmp.open("w", encoding="utf-8") as fh:
            fh.write(json.dumps(doc, sort_keys=True))
            fh.flush()
            os.fsync(fh.fileno())
        replace_durably(tmp, path)
    except OSError as exc:
        raise CheckpointError(
            f"cannot write checkpoint {path}: {exc.strerror or exc}"
        ) from exc


def load_checkpoint(path: str | Path) -> Checkpoint:
    """Load a checkpoint, raising :class:`CheckpointError` when unusable."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"unreadable checkpoint {path}: {exc}") from exc
    try:
        if doc["version"] != _VERSION:
            raise CheckpointError(
                f"unsupported checkpoint version {doc['version']}"
            )
        checkpoint = Checkpoint(
            last_minute=int(doc["last_minute"]),
            report_count=int(doc["report_count"]),
            counters=dict(doc.get("counters", {})),
        )
        for start, end in doc["gaps"]:
            checkpoint.add_gap(int(start), int(end))
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(
            f"malformed checkpoint {path}: {exc!r}"
        ) from exc
    return checkpoint
