"""The arithmetic the benchmark reports with.

Pure functions, no program imports: metric-name rules, medians and the
tail percentiles ("the highest percentile with at least ten samples
beyond it"), and span self time.
"""

from __future__ import annotations

import re
import statistics

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")

#: candidate tail percentiles, in tenths of a percent, highest first
_LADDER = (999, 990, 950, 900, 750, 500)
#: samples that must lie beyond a reported percentile
MIN_BEYOND = 10


def valid_name(name: str) -> bool:
    """Whether ``name`` is a legal metric or workload name."""
    return bool(NAME_RE.match(name))


def valid_unit(unit: str) -> bool:
    """Whether ``unit`` is a legal metric unit."""
    return bool(UNIT_RE.match(unit))


def _rank(n: int, tenths: int) -> int:
    """1-based nearest rank of the ``tenths``/10 percentile of ``n``."""
    return -(-tenths * n // 1000)


def supported_percentile(n: int, wanted: float) -> float | None:
    """The highest percentile <= ``wanted`` that has at least
    :data:`MIN_BEYOND` of ``n`` samples beyond its nearest rank, or
    None when even the median lacks them."""
    for tenths in _LADDER:
        if tenths <= wanted * 10 and n - _rank(n, tenths) >= MIN_BEYOND:
            return tenths / 10
    return None


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile."""
    ordered = sorted(values)
    return ordered[max(1, _rank(len(ordered), round(q * 10))) - 1]


def tail(values: list[float], wanted: float) -> tuple[float, float]:
    """``(value, percentile used)``: ``wanted`` when the sample count
    supports it, else the highest supported one, else the median."""
    q = supported_percentile(len(values), wanted)
    if q is None:
        return statistics.median(values), 50.0
    return percentile(values, q), q


def self_times(starts, ends, parents) -> list[float]:
    """Each span's duration minus the part of it its children cover.

    Span ``i`` runs from ``starts[i]`` to ``ends[i]``; ``parents[i]`` is
    its parent's index, or -1.  Child intervals are clipped to the
    parent's and merged, so a child that overlaps a sibling, or
    outlives its parent's call, is never subtracted twice or beyond the
    parent's own interval.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for index, parent in enumerate(parents):
        if parent >= 0:
            children.setdefault(parent, []).append((starts[index],
                                                    ends[index]))
    result = []
    for index, (start, end) in enumerate(zip(starts, ends)):
        covered = 0.0
        reach = start
        for child_start, child_end in sorted(children.get(index, ())):
            lo = max(child_start, reach)
            hi = min(child_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result.append((end - start) - covered)
    return result
