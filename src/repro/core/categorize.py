"""White/black/gray categorisation under a voting threshold (§5.4).

Threshold-based labelling marks a sample malicious when its AV-Rank is at
least *t*.  Because AV-Rank moves over time, the paper sorts samples into
three categories per threshold:

* **white** — every observed AV-Rank is below *t* (always labelled
  benign, whatever the scan date);
* **black** — every observed AV-Rank is at least *t* (always malicious);
* **gray** — the trajectory crosses *t*: the label depends on *when* the
  sample was scanned.

The fraction of gray samples as a function of *t* (Figure 8) is the
paper's measure of how well threshold labelling tolerates label dynamics.

Note on boundaries: the paper's prose defines white as "all the AV-Ranks
of the sample are less than t" while typesetting ``p_max <= t``; the two
conflict at ``p_max == t``, where the sample *would* be labelled malicious
(the labelling rule is ``rank >= t``).  We follow the semantics: white is
``p_max < t``, black is ``p_min >= t``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

from repro.core.avrank import AVRankSeries
from repro.errors import ConfigError

if TYPE_CHECKING:
    from repro.store.columnar import SeriesFrame

WHITE = "white"
BLACK = "black"
GRAY = "gray"


def categorize(series: AVRankSeries, threshold: int) -> str:
    """The paper's three-way categorisation of one sample at ``threshold``."""
    if threshold < 1:
        raise ConfigError(f"threshold must be >= 1, got {threshold}")
    if series.p_max < threshold:
        return WHITE
    if series.p_min >= threshold:
        return BLACK
    return GRAY


@dataclass(frozen=True)
class CategoryCounts:
    """Category tallies at one threshold (one x-position of Figure 8)."""

    threshold: int
    white: int
    black: int
    gray: int

    @property
    def total(self) -> int:
        return self.white + self.black + self.gray

    @property
    def gray_fraction(self) -> float:
        return self.gray / self.total if self.total else 0.0

    @property
    def white_fraction(self) -> float:
        return self.white / self.total if self.total else 0.0

    @property
    def black_fraction(self) -> float:
        return self.black / self.total if self.total else 0.0


def category_distribution(
    frame: SeriesFrame,
    thresholds: Iterable[int],
) -> list[CategoryCounts]:
    """Category tallies across thresholds — the full Figure 8 curve.

    Per sample only (p_min, p_max) matter, and each threshold is an
    interval test against them: white is ``p_max < t``, black is
    ``p_min >= t`` (which excludes white) and gray is the rest.
    """
    p_min, p_max = frame.p_min(), frame.p_max()
    out: list[CategoryCounts] = []
    for t in thresholds:
        if t < 1:
            raise ConfigError(f"threshold must be >= 1, got {t}")
        white = int((p_max < t).sum())
        black = int((p_min >= t).sum())
        out.append(CategoryCounts(t, white, black,
                                  frame.n_samples - white - black))
    return out
