"""Engine correlation analysis (§7.2).

The paper builds a matrix R over all scans: each row is one scan, each
column one engine, entries are 1 (malicious), 0 (benign) or −1
(undetected).  For every engine pair it computes Spearman's ρ between the
column vectors and calls the pair **strongly correlated** above 0.8; the
graph of strong correlations (Figure 11 overall, Figure 12 per type) has
connected components that recover the known OEM/copying groups
(Tables 4-8).

R is never built.  A column of R takes three values, so its midranks,
and ρ between two columns, depend only on how often each pair of
verdicts co-occurs.  The analysis counts, over a
:class:`~repro.store.columnar.SeriesFrame`'s label plane, the scans on
which engine i said a and engine j said b: one 3m × 3m int64 matrix
(210 × 210 for the 70-engine fleet) whatever the scan count, summed over
fixed chunks of plane rows.  Counts are exact, add across any split of
the scans and do not depend on their order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.errors import InsufficientDataError

if TYPE_CHECKING:
    from repro.store.columnar import SeriesFrame

#: The paper's strong-correlation threshold.
STRONG_THRESHOLD = 0.8

#: Plane rows one-hot encoded per step.  A cell of one chunk's float32
#: product counts at most this many scans, far below 2**24, so it is
#: exact before it is added into the int64 counts.
_CHUNK_ROWS = 1024

#: The plane's verdict bytes in one-hot column order: benign (0),
#: malicious (1), undetected (2).
_VERDICTS = np.arange(3, dtype=np.uint8)


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
    # A selected sub-frame counts only its own plane rows.
    rows = frame.rows if len(frame.rows) < len(labels) else None
    return _analysis(labels, rows, engine_names, threshold)


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
            out[ftype] = _analysis(labels, picked, engine_names, threshold)
    return out


def _analysis(
    plane: np.ndarray, rows: np.ndarray | None,
    engine_names: Sequence[str], threshold: float,
) -> CorrelationAnalysis:
    """ρ over ``plane``'s ``rows`` (every row when ``rows`` is None)."""
    n_scans = len(plane) if rows is None else len(rows)
    if n_scans == 0:
        raise InsufficientDataError(1, 0, "reports for correlation")
    if n_scans < 3:
        raise InsufficientDataError(3, n_scans, "observations")
    return CorrelationAnalysis(
        engine_names=tuple(engine_names),
        rho=_spearman_from_counts(_cooccurrence(plane, rows), n_scans),
        threshold=threshold,
        n_scans=n_scans,
    )


def _cooccurrence(plane: np.ndarray, rows: np.ndarray | None) -> np.ndarray:
    """Verdict co-occurrence counts of a (scans × engines) label plane.

    Cell ``[3i + a, 3j + b]`` counts the scans on which engine ``i``
    gave verdict byte ``a`` and engine ``j`` byte ``b``: the int64 Gram
    matrix of the plane's one-hot encoding, summed over chunks of
    :data:`_CHUNK_ROWS` rows.  ``rows`` restricts the count to those
    plane rows.
    """
    n_engines = plane.shape[1]
    n_rows = len(plane) if rows is None else len(rows)
    counts = np.zeros((3 * n_engines, 3 * n_engines), np.int64)
    onehot = np.empty((min(n_rows, _CHUNK_ROWS), n_engines, 3), np.float32)
    for start in range(0, n_rows, _CHUNK_ROWS):
        stop = min(start + _CHUNK_ROWS, n_rows)
        chunk = plane[start:stop] if rows is None else plane[rows[start:stop]]
        part = onehot[:stop - start]
        np.equal(chunk[:, :, None], _VERDICTS, out=part)
        x = part.reshape(stop - start, 3 * n_engines)
        counts += (x.T @ x).astype(np.int64)
    return counts


def _spearman_from_counts(counts: np.ndarray, n_scans: int) -> np.ndarray:
    """Every engine pair's Spearman ρ from :func:`_cooccurrence` counts.

    Midranks follow R's order, undetected < benign < malicious.  A
    verdict that ``n`` of the ``n_scans`` scans hold, above ``b``
    lower-ranked ones, has the centred midrank ``b + n/2 − n_scans/2``;
    twice that is an integer, ``d``.  Then
    ``4·cov(i, j) = Σ_ab d_i(a)·counts[3i+a, 3j+b]·d_j(b)``, whose
    diagonal is 4·var.  A constant engine has ``d = 0`` for its one
    verdict, so its variance is exactly 0 and its row and column are
    NaN, as :func:`repro.stats.spearman.spearman` gives for a constant
    input.
    """
    n_engines = len(counts) // 3
    held = np.diagonal(counts).reshape(n_engines, 3)
    benign, _, undetected = held.T
    below = np.stack(
        [undetected, undetected + benign, np.zeros_like(undetected)], axis=1)
    doubled = (2 * below + held - n_scans).ravel().astype(np.float64)
    weighted = doubled[:, None] * counts * doubled[None, :]
    cov = weighted.reshape(n_engines, 3, n_engines, 3).sum(axis=(1, 3))
    var = np.diagonal(cov)
    with np.errstate(divide="ignore", invalid="ignore"):
        rho = cov / np.sqrt(np.outer(var, var))
    rho[:, var == 0] = np.nan
    rho[var == 0, :] = np.nan
    np.clip(rho, -1.0, 1.0, out=rho)
    return rho
