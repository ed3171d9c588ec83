"""Engine correlation analysis (§7.2).

The paper builds a matrix R over all scans: each row is one scan, each
column one engine, entries are 1 (malicious), 0 (benign) or −1
(undetected).  For every engine pair it computes Spearman's ρ between the
column vectors and calls the pair **strongly correlated** above 0.8; the
graph of strong correlations (Figure 11 overall, Figure 12 per type) has
connected components that recover the known OEM/copying groups
(Tables 4-8).

R is read straight from a :class:`~repro.store.columnar.SeriesFrame`'s
label plane, whose rows are the scans in stream order: no per-report
object is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.errors import AnalysisError, InsufficientDataError
from repro.stats.spearman import spearman_matrix

if TYPE_CHECKING:
    from repro.store.columnar import SeriesFrame

#: The paper's strong-correlation threshold.
STRONG_THRESHOLD = 0.8


def build_result_matrix(labels: np.ndarray, n_engines: int) -> np.ndarray:
    """The paper's R matrix from a (scans × engines) label plane.

    Values are in {1, 0, −1}; the plane's byte 2 (undetected) becomes −1.
    """
    if len(labels) == 0:
        raise InsufficientDataError(1, 0, "reports for correlation")
    if labels.shape[1] != n_engines:
        raise AnalysisError(
            f"reports carry {labels.shape[1]} engines, expected {n_engines}"
        )
    out = labels.astype(np.int8)
    out[out == 2] = -1
    return out


@dataclass(frozen=True)
class CorrelationAnalysis:
    """Pairwise engine correlations and the strong-correlation groups."""

    engine_names: tuple[str, ...]
    rho: np.ndarray
    threshold: float
    n_scans: int

    def rho_of(self, first: str, second: str) -> float:
        """Spearman ρ between two named engines."""
        i = self.engine_names.index(first)
        j = self.engine_names.index(second)
        return float(self.rho[i, j])

    def strong_pairs(self) -> list[tuple[str, str, float]]:
        """All engine pairs above the strong threshold, strongest first."""
        pairs = []
        n = len(self.engine_names)
        for i in range(n):
            for j in range(i + 1, n):
                value = self.rho[i, j]
                if np.isfinite(value) and value > self.threshold:
                    pairs.append(
                        (self.engine_names[i], self.engine_names[j],
                         float(value))
                    )
        pairs.sort(key=lambda item: item[2], reverse=True)
        return pairs

    def groups(self) -> list[list[str]]:
        """Connected components of the strong-correlation graph, whose
        edges are :meth:`strong_pairs` — the Tables 4-8 groups, largest
        first, members sorted by name."""
        parent: dict[str, str] = {}

        def root(name: str) -> str:
            while parent[name] != name:
                parent[name] = parent[parent[name]]
                name = parent[name]
            return name

        for first, second, _ in self.strong_pairs():
            parent.setdefault(first, first)
            parent.setdefault(second, second)
            parent[root(first)] = root(second)
        members: dict[str, list[str]] = {}
        for name in parent:
            members.setdefault(root(name), []).append(name)
        return sorted((sorted(group) for group in members.values()),
                      key=lambda group: (-len(group), group))

    def involved_engines(self) -> set[str]:
        """Engines appearing in at least one strong pair (the paper found
        17 at the overall level)."""
        out: set[str] = set()
        for first, second, _ in self.strong_pairs():
            out.add(first)
            out.add(second)
        return out


def correlation_analysis(
    frame: "SeriesFrame",
    engine_names: Sequence[str],
    threshold: float = STRONG_THRESHOLD,
) -> CorrelationAnalysis:
    """Run the full §7.2 analysis over every scan of ``frame``."""
    labels, _ = frame.engine_planes(len(engine_names))
    if len(frame.rows) < len(labels):
        # A selected sub-frame: gather its scans, kept in stream order.
        labels = labels[np.sort(frame.rows)]
    return _analysis(labels, engine_names, threshold)


def per_type_analyses(
    frame: "SeriesFrame",
    engine_names: Sequence[str],
    file_types: Sequence[str],
    threshold: float = STRONG_THRESHOLD,
    min_scans: int = 50,
) -> dict[str, CorrelationAnalysis]:
    """§7.2.2: one correlation analysis per file type.

    A scan's type is its sample's file type.  Keys follow the order in
    which each type first appears among the scans.  Types with fewer
    than ``min_scans`` scans are skipped — ρ over a handful of scans is
    noise.
    """
    labels, _ = frame.engine_planes(len(engine_names))
    names = list(dict.fromkeys(frame.file_types))
    type_id = {name: i for i, name in enumerate(names)}
    sample_type = np.fromiter((type_id[name] for name in frame.file_types),
                              np.int64, count=frame.n_samples)
    order = np.argsort(frame.rows, kind="stable")  # positions, stream order
    rows = frame.rows[order]
    row_type = np.repeat(sample_type, frame.counts())[order]
    codes, first = np.unique(row_type, return_index=True)
    wanted = set(file_types)
    out: dict[str, CorrelationAnalysis] = {}
    for code in codes[np.argsort(first)].tolist():
        ftype = names[code]
        picked = rows[row_type == code]
        if ftype in wanted and len(picked) >= min_scans:
            out[ftype] = _analysis(labels[picked], engine_names, threshold)
    return out


def _analysis(
    plane: np.ndarray, engine_names: Sequence[str], threshold: float
) -> CorrelationAnalysis:
    matrix = build_result_matrix(plane, len(engine_names))
    return CorrelationAnalysis(
        engine_names=tuple(engine_names),
        rho=spearman_matrix(matrix),
        threshold=threshold,
        n_scans=matrix.shape[0],
    )
