"""Order statistics shared by the runner and the steadiness command."""

from __future__ import annotations

from typing import Iterable, List


def percentile(values: Iterable[float], q: float) -> float:
    """The *q*-th percentile, linearly interpolated between ranks."""
    xs: List[float] = sorted(values)
    if not xs:
        raise ValueError("percentile of no values")
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values: Iterable[float]) -> float:
    return percentile(values, 50)
