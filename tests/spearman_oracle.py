"""Oracles for the §7.2 correlation kernel.

``fractional_ranks_array`` and ``spearman_matrix`` are the vectorised
ranking and all-pairs Spearman code the analysis ran before it counted
verdict co-occurrences: it ranked every column of the (scans × engines)
matrix R as float64.  ``exact_rho`` is slower and exact: it computes ρ
from doubled integer midranks with Python ints and ``decimal``.
"""

from __future__ import annotations

from decimal import Decimal, localcontext

import numpy as np

from repro.errors import InsufficientDataError


def fractional_ranks_array(matrix: np.ndarray) -> np.ndarray:
    """Column-wise fractional ranks of a 2-D array, vectorised.

    The engine-correlation analysis ranks a (scans × engines) matrix with
    millions of rows; this implementation is pure numpy so it stays fast.
    Equivalent to applying :func:`fractional_ranks` to every column.
    """
    if matrix.ndim != 2:
        raise ValueError(f"expected 2-D matrix, got shape {matrix.shape}")
    n, m = matrix.shape
    ranks = np.empty((n, m), dtype=np.float64)
    for col in range(m):
        column = matrix[:, col]
        order = np.argsort(column, kind="stable")
        sorted_vals = column[order]
        # Boundaries of tie groups in the sorted order.
        boundaries = np.empty(n, dtype=bool)
        boundaries[0] = True
        np.not_equal(sorted_vals[1:], sorted_vals[:-1], out=boundaries[1:])
        group_ids = np.cumsum(boundaries) - 1
        group_starts = np.flatnonzero(boundaries)
        group_ends = np.append(group_starts[1:], n)
        # Average 1-based rank of each tie group.
        group_rank = (group_starts + group_ends - 1) / 2 + 1
        ranks[order, col] = group_rank[group_ids]
    return ranks


def spearman_matrix(matrix: np.ndarray) -> np.ndarray:
    """All pairwise Spearman ρ of the columns of ``matrix``.

    ``matrix`` is (observations × variables).  Columns with zero rank
    variance (an engine that answered identically on every scan) yield
    NaN against everything, matching the pairwise behaviour of
    :func:`spearman`.
    """
    if matrix.ndim != 2:
        raise ValueError(f"expected 2-D matrix, got shape {matrix.shape}")
    n = matrix.shape[0]
    if n < 3:
        raise InsufficientDataError(3, n, "observations")
    ranks = fractional_ranks_array(np.asarray(matrix))
    centred = ranks - ranks.mean(axis=0, keepdims=True)
    norms = np.sqrt((centred**2).sum(axis=0))
    with np.errstate(divide="ignore", invalid="ignore"):
        normalised = centred / norms
    corr = normalised.T @ normalised
    corr[:, norms == 0] = np.nan
    corr[norms == 0, :] = np.nan
    np.clip(corr, -1.0, 1.0, out=corr)
    return corr


def result_matrix(plane: np.ndarray) -> np.ndarray:
    """The paper's R from a label plane: byte 2 (undetected) becomes −1."""
    out = plane.astype(np.int8)
    out[out == 2] = -1
    return out


def exact_rho(matrix: np.ndarray) -> list[list[Decimal | None]]:
    """Spearman ρ of every column pair, exact to 40 digits.

    A value's midrank is ``less + (equal + 1)/2``, so twice its centred
    midrank is the integer ``2·less + equal − n``.  Covariances of those
    integers are exact Python ints; only the final square root and
    division round, at 40 significant digits.  ``None`` marks a pair
    with a constant column.
    """
    n, m = matrix.shape
    columns = [matrix[:, j].tolist() for j in range(m)]
    doubled = []
    for column in columns:
        held: dict[int, int] = {}
        for value in column:
            held[value] = held.get(value, 0) + 1
        less, centred = 0, {}
        for value in sorted(held):
            centred[value] = 2 * less + held[value] - n
            less += held[value]
        doubled.append([centred[value] for value in column])
    var = [sum(d * d for d in column) for column in doubled]
    out: list[list[Decimal | None]] = []
    with localcontext() as ctx:
        ctx.prec = 40
        for i in range(m):
            row: list[Decimal | None] = []
            for j in range(m):
                if var[i] == 0 or var[j] == 0:
                    row.append(None)
                    continue
                cov = sum(a * b for a, b in zip(doubled[i], doubled[j],
                                                 strict=True))
                row.append(Decimal(cov) / Decimal(var[i] * var[j]).sqrt())
            out.append(row)
    return out


def max_error_vs_exact(rho: np.ndarray, matrix: np.ndarray) -> float:
    """Largest |ρ − exact ρ| over the finite entries; NaN positions must
    be exactly the constant-column pairs."""
    exact = exact_rho(matrix)
    worst = Decimal(0)
    for i, row in enumerate(exact):
        for j, value in enumerate(row):
            if value is None:
                assert np.isnan(rho[i, j]), (i, j, rho[i, j])
                continue
            assert np.isfinite(rho[i, j]), (i, j)
            worst = max(worst, abs(Decimal(float(rho[i, j])) - value))
    return float(worst)
