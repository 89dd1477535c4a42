"""Order statistics the benchmark reports.

Latency percentiles use the nearest-rank rule over every attempted
request, with failed requests entered as ``+inf``: a failure misses any
latency limit, so it can only push a percentile up, never hide.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, Iterable, List, Optional, Sequence

INF = float("inf")


def nearest_rank(values: Iterable[float], q: float) -> float:
    """The nearest-rank ``q``-quantile (``0 < q <= 1``) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    if not 0.0 < q <= 1.0:
        raise ValueError(f"quantile {q} outside (0, 1]")
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


def latencies_with_failures(
    latencies: Sequence[float], failed: Sequence[bool]
) -> List[float]:
    """``latencies`` with every failed sample replaced by ``+inf``."""
    return [INF if bad else value for value, bad in zip(latencies, failed)]


def median(values: Iterable[float], default: float = 0.0) -> float:
    """The plain median, ``default`` when there are no values."""
    values = list(values)
    return statistics.median(values) if values else default


def spread(values: Sequence[float]) -> Dict[str, Optional[float]]:
    """Median, quartiles and their distance as a share of the median.

    Quartiles are ``statistics.quantiles(values, n=4)`` (the exclusive
    method), the same rule the acceptance check applies to run series.
    """
    values = [float(v) for v in values]
    if len(values) < 2:
        only = values[0] if values else None
        return {"median": only, "q1": only, "q3": only, "iqr_frac": None}
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return {
        "median": mid,
        "q1": q1,
        "q3": q3,
        "iqr_frac": (q3 - q1) / mid if mid else None,
    }
