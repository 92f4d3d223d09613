"""Correlation and threshold-grouping analysis over subtopic reports.

pearson returns the sample correlation together with a two-tailed p-value
from the exact Student-t transform t = r * sqrt((n-2) / (1-r^2)) with n-2
degrees of freedom, evaluated through the regularized incomplete beta
function; permutation_p estimates the same tail probability by shuffling,
for cross-checking. classify_subtopics applies the report thresholds:
controversy above the score cut, the size split among large subtopics, and
the low-sentiment shortlist.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from .pipeline import ControversyReport


class StatsError(Exception):
    pass


class LengthMismatch(StatsError):
    pass


class TooFew(StatsError):
    pass


class ZeroVariance(StatsError):
    pass


# --- regularized incomplete beta (for the two-tailed t-test) ----------------

_CF_MAX_ITER = 300
_CF_EPS = 3e-16
_CF_FPMIN = 1e-300


def _beta_cf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta, modified Lentz scheme."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _CF_FPMIN:
        d = _CF_FPMIN
    d = 1.0 / d
    h = d
    for m in range(1, _CF_MAX_ITER + 1):
        m2 = 2 * m
        even = m * (b - m) * x / ((qam + m2) * (a + m2))
        odd = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        for aa in (even, odd):
            d = 1.0 + aa * d
            if abs(d) < _CF_FPMIN:
                d = _CF_FPMIN
            c = 1.0 + aa / c
            if abs(c) < _CF_FPMIN:
                c = _CF_FPMIN
            d = 1.0 / d
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < _CF_EPS:  # tested after the odd coefficient only
            return h
    raise StatsError("incomplete beta continued fraction did not converge")


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b) for a, b > 0 and x in [0, 1]."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x must be in [0,1], got {x}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    log_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(log_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cf(a, b, x) / a
    return 1.0 - front * _beta_cf(b, a, 1.0 - x) / b


def student_t_two_tailed(t: float, df: int) -> float:
    """P(|T| >= t) for the Student t distribution with df degrees of freedom."""
    if df < 1:
        raise ValueError(f"df must be >= 1, got {df}")
    if math.isinf(t):
        return 0.0
    return regularized_incomplete_beta(df / 2.0, 0.5, df / (df + t * t))


def pearson(xs: Sequence[float], ys: Sequence[float]) -> tuple[float, float]:
    """Sample Pearson r and its two-tailed p-value under the exact t-test.

    A NaN or infinite value raises ValueError.
    """
    n = len(xs)
    if n != len(ys):
        raise LengthMismatch(f"lengths differ: {n} vs {len(ys)}")
    if n < 3:
        raise TooFew(f"need at least 3 pairs, got {n}")
    if not all(math.isfinite(v) for v in (*xs, *ys)):
        raise ValueError("pearson inputs must be finite")
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    dx = [x - mean_x for x in xs]
    dy = [y - mean_y for y in ys]
    ss_x = sum(d * d for d in dx)
    ss_y = sum(d * d for d in dy)
    if ss_x == 0.0 or ss_y == 0.0:
        raise ZeroVariance("an input has zero variance")
    if all(a == b for a, b in zip(xs, ys)):
        return 1.0, 0.0
    if all(a == -b for a, b in zip(dx, dy)):
        return -1.0, 0.0
    r = sum(a * b for a, b in zip(dx, dy)) / math.sqrt(ss_x * ss_y)
    r = max(-1.0, min(1.0, r))
    df = n - 2
    if abs(r) == 1.0:
        return r, 0.0
    t = abs(r) * math.sqrt(df / (1.0 - r * r))
    return r, student_t_two_tailed(t, df)


def permutation_p(
    xs: Sequence[float],
    ys: Sequence[float],
    n_rounds: int = 10_000,
    seed: int = 0,
) -> float:
    """Two-tailed permutation p-value for the Pearson coefficient.

    Counts shuffles of ys whose |r| reaches the observed |r|; the +1
    smoothing keeps the estimate strictly positive. Slower than the exact
    t-test but assumption-free, which makes it a useful cross-check.
    """
    r_obs, _ = pearson(xs, ys)
    rng = np.random.default_rng(seed)
    x = np.asarray(xs, dtype=np.float64)
    y = np.asarray(ys, dtype=np.float64)
    dx = x - x.mean()
    denom_x = math.sqrt(float(dx @ dx))
    hits = 0
    for _ in range(n_rounds):
        shuffled = rng.permutation(y)
        dy = shuffled - shuffled.mean()
        r = float(dx @ dy) / (denom_x * math.sqrt(float(dy @ dy)))
        if abs(r) >= abs(r_obs) - 1e-12:
            hits += 1
    return (hits + 1) / (n_rounds + 1)


# --- indicators (controversy vs scale and sentiment) -------------------------


_INDICATORS = {
    "node_count": lambda r: float(r.node_count),
    "sentiment_mean": lambda r: r.sentiment_mean,
    "sentiment_std": lambda r: r.sentiment_std,
}


def correlate_indicators(
    reports: Sequence["ControversyReport"],
) -> dict[str, tuple[float, float]]:
    """Pearson (r, p) of the controversy score against scale and sentiment.

    Only cells where both the score and the compared indicator exist enter
    each correlation, in report order. Reports may come from a user's CSV,
    so a (subtopic, window) cell given twice, or a non-finite score or
    indicator, raises ValueError.
    """
    if len({(r.subtopic, r.window) for r in reports}) != len(reports):
        raise ValueError("duplicate (subtopic, window) pair in reports")
    pairs: dict[str, tuple[list[float], list[float]]] = {which: ([], []) for which in _INDICATORS}
    for r in reports:
        score = None if r.rwc is None else float(r.rwc.score)
        values = {which: get(r) for which, get in _INDICATORS.items()}
        if not all(math.isfinite(v) for v in (score, *values.values()) if v is not None):
            raise ValueError("indicator values must be finite")
        for which, value in values.items():
            if score is not None and value is not None:
                xs, ys = pairs[which]
                xs.append(score)
                ys.append(float(value))
    return {which: pearson(xs, ys) for which, (xs, ys) in pairs.items()}


# --- threshold grouping ------------------------------------------------------


@dataclass(frozen=True)
class Thresholds:
    """The group cuts behind both the report flags and classify_subtopics; its
    defaults are the ones PipelineConfig, emit_report and classify_subtopics use."""

    score: float = 0.3
    size: int = 10_000
    sentiment: float = -0.5

    def flags(self, report: "ControversyReport") -> tuple[bool | None, bool, bool | None]:
        """(score > cut, sized graph >= cut, sentiment < cut); None if unscored or no sentiment."""
        high = None if report.rwc is None else report.rwc.score > self.score
        large = not report.undersized and report.node_count >= self.size
        low = None if report.sentiment_mean is None else report.sentiment_mean < self.sentiment
        return high, large, low


@dataclass(frozen=True)
class ClassifiedReports:
    """The report views; each view partitions its input reports.

    high/low/undersized/failed partition all reports: high and low split the
    scored reports by the score threshold, undersized holds the unscored
    reports marked undersized, and failed every other unscored report (one
    with an error set). large_high/large_low partition the scored reports at
    or above the size threshold; low_sentiment lists reports whose sentiment
    mean falls below the sentiment threshold.
    """

    high: tuple["ControversyReport", ...]
    low: tuple["ControversyReport", ...]
    undersized: tuple["ControversyReport", ...]
    large_high: tuple["ControversyReport", ...]
    large_low: tuple["ControversyReport", ...]
    low_sentiment: tuple["ControversyReport", ...] = field(default=())
    failed: tuple["ControversyReport", ...] = field(default=())


def classify_subtopics(
    reports: Sequence["ControversyReport"],
    score_thresh: float = Thresholds.score,
    size_thresh: int = Thresholds.size,
    senti_thresh: float = Thresholds.sentiment,
) -> ClassifiedReports:
    """Group reports: score strictly above the cut counts as high controversy."""
    th = Thresholds(score_thresh, size_thresh, senti_thresh)
    groups: dict[str, list[ControversyReport]] = {f.name: [] for f in fields(ClassifiedReports)}
    for report in reports:
        is_high, is_large, is_low_senti = th.flags(report)
        if is_high is None:
            groups["undersized" if report.undersized else "failed"].append(report)
        else:
            side = "high" if is_high else "low"
            groups[side].append(report)
            if is_large:
                groups[f"large_{side}"].append(report)
        if is_low_senti:
            groups["low_sentiment"].append(report)
    return ClassifiedReports(**{name: tuple(view) for name, view in groups.items()})
