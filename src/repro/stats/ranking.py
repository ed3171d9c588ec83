"""Fractional ranking with tie handling.

Spearman correlation is Pearson correlation over ranks; with the heavily
tied data the paper correlates (engine verdicts take only three values),
tie handling is the whole game.  :func:`fractional_ranks` assigns tied
values the average of the positions they occupy — the same convention as
``scipy.stats.rankdata(method="average")``.
"""

from __future__ import annotations

from typing import Sequence


def fractional_ranks(values: Sequence[float]) -> list[float]:
    """Average ranks (1-based) of ``values``, ties sharing their mean rank.

    >>> fractional_ranks([10, 20, 20, 30])
    [1.0, 2.5, 2.5, 4.0]
    """
    n = len(values)
    order = sorted(range(n), key=lambda i: values[i])
    ranks = [0.0] * n
    i = 0
    while i < n:
        j = i
        while j + 1 < n and values[order[j + 1]] == values[order[i]]:
            j += 1
        # Positions i..j (0-based) share the average 1-based rank.
        shared = (i + j) / 2 + 1
        for k in range(i, j + 1):
            ranks[order[k]] = shared
        i = j + 1
    return ranks

