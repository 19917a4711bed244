"""Summary statistics the benchmark reports.

End-to-end timings take each request at the median of its runs in one
run of the benchmark (:func:`pass_medians`), and the metric over requests
is again a median or a sum. All runs are also summarised as a median plus
the highest percentile from ``TAIL_PERCENTILES`` that still has at least
``MIN_BEYOND`` samples above it, with the sample count.
"""

from __future__ import annotations

import math
import statistics
from typing import Sequence

TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)
MIN_BEYOND = 10


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of an empty sample")
    return float(statistics.median(values))


def percentile_rank(p: float, n: int) -> int:
    """1-based nearest rank of percentile ``p`` in a sample of ``n``."""
    if not 0 < p <= 100:
        raise ValueError("percentile must lie in (0, 100]")
    if n < 1:
        raise ValueError("percentile of an empty sample")
    # rounding first keeps e.g. 99.9 % of 10000 at rank 9990, not 9991
    return max(1, math.ceil(round(p * n / 100.0, 9)))


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least p % at or below it."""
    ordered = sorted(values)
    return float(ordered[percentile_rank(p, len(ordered)) - 1])


def tail_percentile(n: int) -> float | None:
    """Highest reportable tail percentile for ``n`` samples, or None."""
    for p in TAIL_PERCENTILES:
        if n - percentile_rank(p, n) >= MIN_BEYOND:
            return p
    return None


def pass_medians(samples) -> tuple[list[float], list[int]]:
    """Per request slot, the median of its runs' seconds and the solves it completes.

    ``samples`` holds (slot, seconds, solves) triples, solves being 0 for a
    failed run; a slot's solves are those of its successful runs. Returns
    two lists ordered by slot.
    """
    runs: dict[int, list[float]] = {}
    solves: dict[int, int] = {}
    for slot, seconds, done in samples:
        runs.setdefault(slot, []).append(seconds)
        solves[slot] = max(done, solves.get(slot, 0))
    slots = sorted(runs)
    return [median(runs[s]) for s in slots], [solves[s] for s in slots]
