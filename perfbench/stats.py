"""Order statistics the benchmark reports.

Kept inside the benchmark (not imported from ``repro``) so that a change to
the program's own percentile helpers cannot move the benchmark's figures.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

#: Candidate tail percentiles, highest first.  The reported tail is the
#: highest of these with at least :data:`TAIL_BEYOND` samples beyond it.
TAIL_LADDER = (99.99, 99.9, 99.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10


def nearest_rank(ordered: Sequence[float], p: float) -> float:
    """Nearest-rank percentile of an ascending sequence (p in (0, 100])."""
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = max(1, math.ceil(len(ordered) * p / 100.0))
    return ordered[rank - 1]


def tail(values: Sequence[float]) -> Optional[tuple[float, float, int]]:
    """``(value, percentile, samples_beyond)`` for the reported tail.

    The percentile is the highest entry of :data:`TAIL_LADDER` whose
    nearest-rank position leaves at least :data:`TAIL_BEYOND` samples
    strictly above it.  ``None`` when the sample is too small for any.
    """
    ordered = sorted(values)
    count = len(ordered)
    for p in TAIL_LADDER:
        rank = max(1, math.ceil(count * p / 100.0))
        beyond = count - rank
        if beyond >= TAIL_BEYOND:
            return ordered[rank - 1], p, beyond
    return None
