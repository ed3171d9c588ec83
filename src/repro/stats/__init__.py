"""Statistics substrate.

The paper leans on a small set of statistical tools: empirical CDFs
(Figures 1, 2, 3, 5), box-plot five-number summaries (Figures 4, 6, 7),
and Spearman rank correlation with significance (Figure 7's interval
effect; §7.2's all-pairs engine correlation comes from verdict counts in
:mod:`repro.core.correlation`).  This subpackage implements them from
scratch — fractional ranking with ties, the t-approximation p-value — and
the test suite cross-validates each against scipy.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "bootstrap": ("ConfidenceInterval", "bootstrap_ci", "fraction_ci"),
    "cdf": ("EmpiricalCDF",),
    "descriptive": (
        "BoxplotStats", "boxplot_stats", "mean", "median", "quantile", "stdev",
    ),
    "ranking": ("fractional_ranks",),
    "spearman": ("SpearmanResult", "spearman"),
})
