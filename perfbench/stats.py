"""Percentiles that say how many samples stand behind them.

A tail percentile is only worth reporting when at least
``MIN_BEYOND`` samples lie beyond it; otherwise it is one or two
outliers read back as a latency. :func:`summarize` reports the
median, the highest whole percentile that has that support, the
named tail the workload promised, and the sample count, and refuses
(:class:`UnsupportedTail`) a sample count that cannot carry the
named tail.
"""

from __future__ import annotations

import math
from typing import Dict, Sequence

#: Samples that must lie beyond a reported percentile.
MIN_BEYOND = 10


class UnsupportedTail(ValueError):
    """A named tail percentile asked of too few samples."""


def min_samples(q: float) -> int:
    """Fewest samples that put ``MIN_BEYOND`` of them beyond ``q``."""
    if not 0.0 < q < 100.0:
        raise ValueError(f"percentile must be in (0, 100), got {q}")
    return math.ceil(MIN_BEYOND * 100.0 / (100.0 - q) - 1e-9)


def highest_supported(n: int) -> int:
    """The highest whole percentile with ``MIN_BEYOND`` samples beyond it.

    Returns 0 when ``n`` is too small to support even the median's
    neighbourhood (fewer than ``MIN_BEYOND + 1`` samples).
    """
    if n <= MIN_BEYOND:
        return 0
    return 100 - math.ceil(MIN_BEYOND * 100 / n)


def percentile(samples: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile (numpy's default rule)."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    weight = position - low
    return ordered[low] + (ordered[high] - ordered[low]) * weight


def require_support(label: str, n: int, q: float) -> None:
    """Refuse a sample count that cannot carry percentile ``q``."""
    need = min_samples(q)
    if n < need:
        raise UnsupportedTail(
            f"{label}: p{q:g} needs at least {need} samples "
            f"({MIN_BEYOND} beyond it), the run gave {n}"
        )


def summarize(label: str, samples: Sequence[float], tail_q: float) -> Dict[str, float]:
    """Median, named tail, highest supported percentile and count."""
    n = len(samples)
    require_support(label, n, tail_q)
    return {
        "n": n,
        "p50": percentile(samples, 50.0),
        "tail": percentile(samples, tail_q),
        "highest_q": highest_supported(n),
    }
