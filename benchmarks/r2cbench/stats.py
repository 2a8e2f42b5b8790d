"""Order statistics shared by the runner and the compare tool."""

from __future__ import annotations

import statistics
from typing import Dict, Sequence, Tuple


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        value = values[0] if values else 0.0
        return value, value, value
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> Dict[str, object]:
    """Values with their quartiles and the IQR as a share of the median."""
    q1, middle, q3 = quartiles(values)
    return {
        "values": list(values),
        "median": middle,
        "q1": q1,
        "q3": q3,
        "iqr_share": (q3 - q1) / middle if middle else 0.0,
    }
