"""Order statistics for the benchmark report (standard library only)."""

from __future__ import annotations

import math
import statistics


def percentile(values, p: float) -> float:
    """p-th percentile with linear interpolation between order statistics
    (numpy's default method).  +inf entries, which stand for failed
    requests, sort last and give +inf only when the interpolation
    reaches them."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no values")
    pos = (len(xs) - 1) * p / 100.0
    lo = math.floor(pos)
    frac = pos - lo
    if frac == 0.0:
        return xs[lo]
    a, b = xs[lo], xs[lo + 1]
    if math.isinf(b):
        return b
    return a + (b - a) * frac


def geomean(values) -> float:
    """Geometric mean of positive values."""
    values = list(values)
    if not values or min(values) <= 0.0:
        raise ValueError("geometric mean needs positive values")
    return math.exp(math.fsum(math.log(v) for v in values) / len(values))


def quartile_spread(values) -> float:
    """(Q3 - Q1) / median, quartiles as statistics.quantiles(n=4) gives them."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
