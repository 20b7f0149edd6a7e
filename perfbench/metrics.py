"""Pure metric arithmetic of the flexrt benchmark (no I/O, no processes).

Kept apart from run.py so perfbench/test_metrics.py can pin the two rules
every published number rests on: the tail percentile and span self time.
"""

import math
import statistics


def median(values):
    """Median of `values`; +inf samples (failed requests) count as misses."""
    return statistics.median(values) if values else math.nan


def mean(values):
    """Arithmetic mean; one +inf sample (a failed request) makes it +inf."""
    return statistics.fmean(values) if values else math.nan


def tail(values, beyond=10):
    """The highest percentile that still has at least `beyond` samples
    beyond it: the (beyond+1)-th largest sample of n > beyond samples.

    Returns (value, percentile, n). With n <= beyond no percentile has
    enough samples beyond it; the maximum is returned at percentile 100 so
    the caller still prints a number, and the printed n shows why.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return math.nan, math.nan, 0
    if n <= beyond:
        return ordered[-1], 100.0, n
    return ordered[n - 1 - beyond], 100.0 * (n - beyond) / n, n


def union_length(intervals):
    """Total length covered by possibly overlapping [start, end) intervals."""
    total = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
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
    """Self time of every span: its duration minus the part of its interval
    that its children cover. Children may overlap one another (workers of
    a parallel loop) and may stick out of the parent; only the covered part
    inside the parent is subtracted, once.

    `spans` is a list of dicts with keys id, parent, start, end.
    Returns {id: self_time}.
    """
    children = {}
    for s in spans:
        if s["parent"]:
            children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        start, end = s["start"], s["end"]
        covered = union_length(
            (max(c["start"], start), min(c["end"], end))
            for c in children.get(s["id"], ()))
        out[s["id"]] = (end - start) - covered
    return out

