"""Spearman rank correlation with significance.

Used twice by the paper: §5.3.5 correlates AV-Rank differences with scan
intervals (ρ = 0.9181, p = 2.6e-167), and §7.2 correlates engine verdict
columns pairwise, calling a pair strongly correlated above ρ = 0.8.

``spearman`` handles one pair with full tie handling and the standard
t-distribution p-value approximation.  The 70-engine analysis needs
2 415 pairs over millions of scans; it does not rank them here, but
derives every pair's ρ from verdict co-occurrence counts
(:mod:`repro.core.correlation`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from repro.errors import InsufficientDataError
from repro.stats.ranking import fractional_ranks


@dataclass(frozen=True)
class SpearmanResult:
    """Correlation coefficient and two-sided significance."""

    rho: float
    p_value: float
    n: int

    def strong(self, threshold: float = 0.8) -> bool:
        """The paper's strong-correlation criterion (§7.2)."""
        return self.rho > threshold


def _pearson(x: Sequence[float], y: Sequence[float]) -> float:
    n = len(x)
    mx = sum(x) / n
    my = sum(y) / n
    sxy = sxx = syy = 0.0
    for xi, yi in zip(x, y, strict=False):
        dx = xi - mx
        dy = yi - my
        sxy += dx * dy
        sxx += dx * dx
        syy += dy * dy
    if sxx == 0.0 or syy == 0.0:
        return float("nan")
    return sxy / math.sqrt(sxx * syy)


def _t_sf(t: float, df: float) -> float:
    """Survival function of Student's t via the incomplete beta function.

    Uses the continued-fraction evaluation of I_x(a, b) (Numerical Recipes
    6.4); accurate to ~1e-10, which the tests verify against scipy.
    """
    if math.isnan(t):
        return float("nan")
    x = df / (df + t * t)
    p = 0.5 * _betainc(df / 2.0, 0.5, x)
    return p if t > 0 else 1.0 - p


def _betainc(a: float, b: float, x: float) -> float:
    """Regularised incomplete beta I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_beta = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    front = math.exp(ln_beta + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (Lentz's method)."""
    tiny = 1e-300
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, 300):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-12:
            break
    return h


def p_value_for_rho(rho: float, n: int) -> float:
    """Two-sided p-value for a Spearman ρ under the t approximation."""
    if n < 3 or math.isnan(rho):
        return float("nan")
    if abs(rho) >= 1.0:
        return 0.0
    df = n - 2
    t = rho * math.sqrt(df / (1.0 - rho * rho))
    return min(1.0, 2.0 * _t_sf(abs(t), df))


def spearman(x: Sequence[float], y: Sequence[float]) -> SpearmanResult:
    """Spearman ρ of two equal-length sequences, with p-value."""
    if len(x) != len(y):
        raise ValueError(f"length mismatch: {len(x)} vs {len(y)}")
    if len(x) < 3:
        raise InsufficientDataError(3, len(x), "paired observations")
    rx = fractional_ranks(x)
    ry = fractional_ranks(y)
    rho = _pearson(rx, ry)
    return SpearmanResult(rho=rho, p_value=p_value_for_rho(rho, len(x)), n=len(x))

