"""Statistics of the perfbench benchmark: percentiles and span self time."""

import math
import statistics
from collections import defaultdict

# Percentiles a latency may be reported at, lowest first.
TAIL_LADDER = (50.0, 90.0, 95.0, 99.0, 99.9)

# A percentile is reported only when this many samples lie beyond it.
MIN_BEYOND = 10


def percentile(values, q):
    """The q-th percentile (0..100) of values, linearly interpolated."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no samples")
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values):
    return percentile(values, 50.0)


def samples_beyond(n, q):
    """Expected number of the n samples above the q-th percentile."""
    # q is given to 0.1, so count in tenths of a percent to stay exact.
    return n * (1000 - round(q * 10)) / 1000.0


def tail_percentile(n, ladder=TAIL_LADDER, beyond=MIN_BEYOND):
    """Highest percentile of `ladder` with >= `beyond` samples above it.

    Returns None when n samples support none of them.
    """
    best = None
    for q in ladder:
        if samples_beyond(n, q) >= beyond:
            best = q
    return best


def union_length(intervals):
    """Total length covered by (start, end) intervals."""
    total = 0
    cur_start = cur_end = None
    for start, end in sorted(i for i in intervals if i[1] > i[0]):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """Self time of each span: its duration minus its children's coverage.

    `spans` is a sequence of (start, end, parent) with parent the index
    of the enclosing span or -1. Child intervals are clipped to the
    parent and overlapping children are counted once.
    """
    children = defaultdict(list)
    for i, (_, _, parent) in enumerate(spans):
        if parent >= 0:
            children[parent].append(i)
    result = []
    for i, (start, end, _) in enumerate(spans):
        covered = union_length(
            (max(spans[c][0], start), min(spans[c][1], end))
            for c in children[i])
        result.append((end - start) - covered)
    return result


def spread(values):
    """Distance between the first and third quartiles, over the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")
