"""Per-engine label flips, hazard flips and flip ratios (§7.1).

For a sample scanned n times, each engine contributes a sequence of
verdicts; restricting to the scans where the engine actually responded
(dropping *undetected*), a **flip** is a change between consecutive
verdicts — 0→1 or 1→0.  A **hazard flip** is a round trip across three
consecutive responses: 0→1→0 or 1→0→1 (Zhu et al. found these dominant
under daily rescans; the paper found 9 in 109 M organic reports).

The per-engine, per-file-type **flip ratio** (Figure 10) is the number of
flips divided by the number of consecutive response pairs for that engine
on that type.

The analysis reads a :class:`~repro.store.columnar.SeriesFrame`'s label
and version planes one engine column at a time: each column is gathered
in per-sample time order, its undetected entries dropped, and every
count falls out of comparisons between neighbouring responses.  No
per-report object is built, and temporaries stay proportional to one
column of the analysed reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

import numpy as np

if TYPE_CHECKING:
    from repro.store.columnar import SeriesFrame

#: Byte value marking an unresponsive engine in the label plane.
_UNDETECTED_BYTE = 2


@dataclass
class FlipStats:
    """Accumulated flip statistics across a dataset."""

    engine_names: tuple[str, ...]
    #: Per-engine 0->1 and 1->0 flip counts.
    flips_up: np.ndarray = field(repr=False)
    flips_down: np.ndarray = field(repr=False)
    #: Per-engine consecutive-response pair counts (flip-ratio denominator).
    pairs: np.ndarray = field(repr=False)
    #: Per-engine hazard counts (0->1->0 plus 1->0->1).
    hazards_010: np.ndarray = field(repr=False)
    hazards_101: np.ndarray = field(repr=False)
    #: Per (file type) -> per-engine flip and pair counts (Figure 10).
    per_type_flips: dict[str, np.ndarray] = field(default_factory=dict, repr=False)
    per_type_pairs: dict[str, np.ndarray] = field(default_factory=dict, repr=False)
    #: Flips where the engine's signature version changed between the two
    #: responses (the §5.5 engine-update cause).
    flips_with_update: int = 0
    report_count: int = 0
    sample_count: int = 0

    # ------------------------------------------------------------------
    # Totals
    # ------------------------------------------------------------------

    @property
    def total_flips(self) -> int:
        return int(self.flips_up.sum() + self.flips_down.sum())

    @property
    def total_flips_up(self) -> int:
        return int(self.flips_up.sum())

    @property
    def total_flips_down(self) -> int:
        return int(self.flips_down.sum())

    @property
    def total_hazards(self) -> int:
        return int(self.hazards_010.sum() + self.hazards_101.sum())

    @property
    def update_coincidence_rate(self) -> float:
        """Fraction of flips with a co-occurring engine update (§5.5)."""
        total = self.total_flips
        return self.flips_with_update / total if total else float("nan")

    # ------------------------------------------------------------------
    # Per-engine / per-type views
    # ------------------------------------------------------------------

    def flip_ratio(self, engine: str) -> float:
        """Overall flip ratio of one engine."""
        i = self.engine_names.index(engine)
        pairs = self.pairs[i]
        return float((self.flips_up[i] + self.flips_down[i]) / pairs) if pairs else float("nan")

    def flip_ratio_matrix(
        self, file_types: Sequence[str] | None = None
    ) -> tuple[list[str], np.ndarray]:
        """Figure 10's (file types × engines) flip-ratio matrix.

        Returns the file-type row order and a matrix of ratios; cells with
        no observed pairs are NaN.
        """
        types = list(file_types) if file_types is not None else sorted(self.per_type_flips)
        matrix = np.full((len(types), len(self.engine_names)), np.nan)
        for row, ftype in enumerate(types):
            flips = self.per_type_flips.get(ftype)
            pairs = self.per_type_pairs.get(ftype)
            if flips is None or pairs is None:
                continue
            with np.errstate(divide="ignore", invalid="ignore"):
                matrix[row] = np.where(pairs > 0, flips / np.maximum(pairs, 1), np.nan)
        return types, matrix

    def flippiest_engines(self, top: int = 5) -> list[tuple[str, float]]:
        """Engines ranked by overall flip ratio, descending."""
        ratios = []
        for i, name in enumerate(self.engine_names):
            if self.pairs[i]:
                ratios.append(
                    (name, float((self.flips_up[i] + self.flips_down[i])
                                 / self.pairs[i]))
                )
        ratios.sort(key=lambda item: item[1], reverse=True)
        return ratios[:top]

    def stablest_engines(self, top: int = 5) -> list[tuple[str, float]]:
        """Engines ranked by overall flip ratio, ascending."""
        ranked = self.flippiest_engines(top=len(self.engine_names))
        return list(reversed(ranked))[:top]


def analyze_flips(
    frame: "SeriesFrame",
    engine_names: Sequence[str],
) -> FlipStats:
    """Run the full §7.1 flip analysis over every sample of ``frame``.

    ``frame`` must carry planes as wide as ``engine_names``.  Per-type
    entries appear in the order of the first sample of each type with
    two or more reports.  Undetected results are dropped from an engine
    column before neighbours are compared, so a 1, -1, 1 run is one pair
    and no flip, matching the paper's sequence-of-valid-labels framing.
    """
    n_engines = len(engine_names)
    labels, versions = frame.engine_planes(n_engines)
    counts = frame.counts()
    stats = FlipStats(
        engine_names=tuple(engine_names),
        flips_up=np.zeros(n_engines, dtype=np.int64),
        flips_down=np.zeros(n_engines, dtype=np.int64),
        pairs=np.zeros(n_engines, dtype=np.int64),
        hazards_010=np.zeros(n_engines, dtype=np.int64),
        hazards_101=np.zeros(n_engines, dtype=np.int64),
        report_count=frame.n_reports,
        sample_count=frame.n_samples,
    )
    type_ids: dict[str, int] = {}
    sample_type = np.zeros(frame.n_samples, np.int64)
    for s in np.flatnonzero(counts >= 2).tolist():
        sample_type[s] = type_ids.setdefault(frame.file_types[s],
                                             len(type_ids))
    n_types = len(type_ids)
    if not n_types:  # no sample has a pair
        return stats
    type_flips = np.zeros((n_types, n_engines), np.int64)
    type_pairs = np.zeros((n_types, n_engines), np.int64)
    rows = frame.rows
    sample_of = np.repeat(np.arange(frame.n_samples), counts)
    for engine in range(n_engines):
        # The engine's responses, samples contiguous, each in time order.
        column = labels[rows, engine]
        responded = np.flatnonzero(column != _UNDETECTED_BYTE)
        verdict = column[responded]
        owner = sample_of[responded]
        paired = owner[1:] == owner[:-1]
        later = verdict[1:]
        flipped = paired & (later != verdict[:-1])
        pair_type = sample_type[owner[1:]]
        stats.pairs[engine] = np.count_nonzero(paired)
        stats.flips_up[engine] = np.count_nonzero(flipped & (later == 1))
        stats.flips_down[engine] = np.count_nonzero(flipped & (later == 0))
        type_pairs[:, engine] = np.bincount(pair_type[paired],
                                            minlength=n_types)
        type_flips[:, engine] = np.bincount(pair_type[flipped],
                                            minlength=n_types)
        if not flipped.any():
            continue
        version = versions[rows[responded], engine]
        stats.flips_with_update += int(np.count_nonzero(
            flipped & (version[1:] != version[:-1])))
        # Hazards: the response two back (same sample) equals the new one.
        hazard = flipped[1:] & paired[:-1] & (verdict[2:] == verdict[:-2])
        stats.hazards_010[engine] = np.count_nonzero(hazard & (verdict[2:] == 0))
        stats.hazards_101[engine] = np.count_nonzero(hazard & (verdict[2:] == 1))
    for t, ftype in enumerate(type_ids):
        stats.per_type_flips[ftype] = type_flips[t]
        stats.per_type_pairs[ftype] = type_pairs[t]
    return stats
