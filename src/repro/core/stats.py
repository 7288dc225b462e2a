"""Measurement statistics: the SimFlex-style confidence-interval discipline.

The paper reports "95% confidence intervals that target ±5% error on
change in performance, using paired measurement sampling" (Section 3).
This module provides that arithmetic for our experiments: run a
configuration under several seeds (independent samples), summarize with a
mean and a 95% confidence interval, and compare two configurations with
*paired* deltas — differencing per-seed removes the between-seed workload
variance, which is exactly why SimFlex pairs its samples.

No SciPy dependency: the t quantiles for the small sample counts used here
are tabulated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

#: Two-sided 97.5% Student-t quantiles by degrees of freedom (1..30).
_T975 = (
    12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
    2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
    2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
)


def t_quantile_975(dof: int) -> float:
    """Two-sided 95% Student-t quantile for ``dof`` degrees of freedom."""
    if dof < 1:
        raise ValueError("need at least 2 samples (1 degree of freedom)")
    if dof <= len(_T975):
        return _T975[dof - 1]
    return 1.960  # normal limit


@dataclass(frozen=True)
class Summary:
    """Mean and 95% confidence half-width of a sample set.

    Attributes:
        mean: Sample mean.
        half_width: 95% CI half-width (0 for a single sample).
        n: Sample count.
    """

    mean: float
    half_width: float
    n: int

    @property
    def low(self) -> float:
        """Lower bound of the 95% interval."""
        return self.mean - self.half_width

    @property
    def high(self) -> float:
        """Upper bound of the 95% interval."""
        return self.mean + self.half_width

    def __str__(self) -> str:
        return f"{self.mean:.4g} ± {self.half_width:.2g} (n={self.n})"


def summarize(samples: list[float]) -> Summary:
    """Mean and 95% CI of independent samples.

    Raises:
        ValueError: on an empty sample list.
    """
    n = len(samples)
    if n == 0:
        raise ValueError("no samples")
    mean = sum(samples) / n
    if n == 1:
        return Summary(mean=mean, half_width=0.0, n=1)
    var = sum((x - mean) ** 2 for x in samples) / (n - 1)
    half = t_quantile_975(n - 1) * math.sqrt(var / n)
    return Summary(mean=mean, half_width=half, n=n)


@dataclass(frozen=True)
class PairedDelta:
    """Paired comparison of two configurations across common seeds.

    Attributes:
        delta: Summary of the per-seed differences (b - a).
        ratio_mean: Mean of the per-seed ratios (b / a).
        significant: Whether the 95% interval of the difference excludes 0.
    """

    delta: Summary
    ratio_mean: float
    significant: bool


def paired_delta(a: list[float], b: list[float]) -> PairedDelta:
    """Paired-measurement comparison (the paper's sampling methodology).

    Args:
        a, b: Per-seed measurements of the two configurations, index-aligned
            (same seed at the same position).

    Raises:
        ValueError: on length mismatch or empty input.
    """
    if len(a) != len(b):
        raise ValueError("paired samples must align")
    if not a:
        raise ValueError("no samples")
    diffs = [y - x for x, y in zip(a, b)]
    summary = summarize(diffs)
    ratios = [y / x for x, y in zip(a, b) if x]
    ratio_mean = sum(ratios) / len(ratios) if ratios else math.inf
    significant = summary.n > 1 and (
        summary.low > 0 or summary.high < 0
    )
    return PairedDelta(delta=summary, ratio_mean=ratio_mean,
                       significant=significant)
