"""One-way ANOVA across segmentation methods, with an exact F-tail.

The p-value is the upper tail of the F(d1, d2) distribution, evaluated
through the regularized incomplete beta function rather than a lookup
table: I_x(a, b) with x = d1·f/(d1·f + d2), a = d1/2, b = d2/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DegenerateData, TooFewGroups


@dataclass(frozen=True)
class GroupSample:
    """One method's metric values, one entry per case."""

    label: str
    values: tuple[float, ...]

    def __post_init__(self):
        if len(self.values) == 0:
            raise ValueError(f"group {self.label!r} has no values")
        if not all(math.isfinite(v) for v in self.values):
            raise ValueError(f"group {self.label!r} contains non-finite values")


@dataclass(frozen=True)
class AnovaTable:
    """Classical one-way decomposition about the grand mean."""

    ss_between: float
    ss_within: float
    ss_total: float
    df_between: int
    df_within: int
    ms_between: float
    ms_within: float
    f: float
    p: float

    @property
    def df_total(self) -> int:
        return self.df_between + self.df_within


@dataclass(frozen=True)
class SummaryStats:
    """Five-number summary plus n, mean, and sample standard deviation."""

    n: int
    mean: float
    sd: float
    min: float
    q1: float
    median: float
    q3: float
    max: float


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (modified Lentz method)."""
    MAXIT = 500
    EPS = 1e-15
    FPMIN = 1e-300
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < FPMIN:
        d = FPMIN
    d = 1.0 / d
    h = d
    for m in range(1, MAXIT + 1):
        m2 = 2 * m
        even = m * (b - m) * x / ((qam + m2) * (a + m2))
        odd = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        for aa in (even, odd):  # one Lentz half-step per term
            d = 1.0 + aa * d
            if abs(d) < FPMIN:
                d = FPMIN
            c = 1.0 + aa / c
            if abs(c) < FPMIN:
                c = FPMIN
            d = 1.0 / d
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < EPS:
            return h
    raise ArithmeticError(f"incomplete beta failed to converge (a={a}, b={b}, x={x})")


def betainc_regularized(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b).

    Evaluates the continued fraction on whichever side of the symmetry
    point x = (a+1)/(a+b+2) converges fast, using I_x(a,b) = 1 − I_{1−x}(b,a).
    """
    if a <= 0 or b <= 0:
        raise ValueError("a and b must be positive")
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def f_cdf(x: float, d1: int, d2: int) -> float:
    """CDF of the F(d1, d2) distribution at x ≥ 0."""
    if d1 < 1 or d2 < 1:
        raise ValueError("degrees of freedom must be positive")
    if x < 0:
        raise ValueError("F statistic must be nonnegative")
    if x == 0.0:
        return 0.0
    t = d1 * x / (d1 * x + d2)
    return betainc_regularized(d1 / 2.0, d2 / 2.0, t)


def one_way_anova(groups: Sequence[GroupSample]) -> AnovaTable:
    """Decompose variance about the grand mean; p = 1 − F-CDF(f; k−1, N−k).

    Unbalanced group sizes are supported; Welch's correction is not
    applied.
    """
    if len(groups) < 2:
        raise TooFewGroups(f"need at least 2 groups, got {len(groups)}")
    arrays = [np.asarray(g.values, dtype=np.float64) for g in groups]
    k = len(arrays)
    n_total = sum(a.size for a in arrays)
    if n_total <= k:
        raise DegenerateData(f"need more observations ({n_total}) than groups ({k})")
    grand = sum(float(a.sum()) for a in arrays) / n_total
    ss_between = sum(a.size * (float(a.mean()) - grand) ** 2 for a in arrays)
    ss_within = sum(float(((a - a.mean()) ** 2).sum()) for a in arrays)
    ss_total = sum(float(((a - grand) ** 2).sum()) for a in arrays)
    df_between = k - 1
    df_within = n_total - k
    ms_between = ss_between / df_between
    ms_within = ss_within / df_within
    if ms_within == 0.0:
        raise DegenerateData("within-group variance is zero (all values identical)")
    f = ms_between / ms_within
    p = 1.0 - f_cdf(f, df_between, df_within)
    return AnovaTable(
        ss_between=ss_between,
        ss_within=ss_within,
        ss_total=ss_total,
        df_between=df_between,
        df_within=df_within,
        ms_between=ms_between,
        ms_within=ms_within,
        f=f,
        p=p,
    )


def group_summary(g: GroupSample) -> SummaryStats:
    """n, mean, sd (N−1), and quartiles by linear interpolation at p·(n−1).

    A single observation reports sd = 0 with n = 1 as the flag.
    """
    a = np.asarray(g.values, dtype=np.float64)
    n = a.size
    q1, median, q3 = (float(q) for q in np.percentile(a, [25.0, 50.0, 75.0]))
    return SummaryStats(
        n=n,
        mean=float(a.mean()),
        sd=float(a.std(ddof=1)) if n > 1 else 0.0,
        min=float(a.min()),
        q1=q1,
        median=median,
        q3=q3,
        max=float(a.max()),
    )
