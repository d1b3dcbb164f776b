"""Busy-interval traces for simulated devices.

Figure 8 of the paper plots the ratio between the time the GPU executes
and the time the CPU is fully utilized; to reproduce it we record, for
each device, the intervals during which it was busy and compute totals,
unions and pairwise overlaps.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

Interval = Tuple[float, float]


def merge_intervals(intervals: Iterable[Interval]) -> List[Interval]:
    """Union of possibly-overlapping intervals, sorted and disjoint.

    Zero-length intervals are dropped; an interval whose end precedes
    its start raises ``ValueError``.
    """
    cleaned = []
    for start, end in intervals:
        if end < start:
            raise ValueError(f"interval end {end} precedes start {start}")
        if end > start:
            cleaned.append((start, end))
    cleaned.sort()
    merged: List[Interval] = []
    for start, end in cleaned:
        if merged and start <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end))
        else:
            merged.append((start, end))
    return merged


def time_at_concurrency(intervals: Iterable[Interval], k: int) -> float:
    """Total time during which at least ``k`` intervals are active.

    Used for Fig. 8's blue line: the denominator is the time the CPU is
    *fully* utilized, i.e. all ``p`` per-core busy intervals overlap.
    Events sort by (time, then -1 before +1), so an interval ending
    exactly where another starts never counts as overlap.
    """
    if k < 1:
        raise ValueError(f"concurrency threshold must be >= 1, got {k!r}")
    events: List[Tuple[float, int]] = []
    for start, end in intervals:
        if end < start:
            raise ValueError(f"interval end {end} precedes start {start}")
        if end > start:
            events.append((start, 1))
            events.append((end, -1))
    events.sort()
    total = 0.0
    active = 0
    prev = 0.0
    for time, delta in events:
        if active >= k:
            total += time - prev
        active += delta
        prev = time
    return total


def overlap_length(a: Sequence[Interval], b: Sequence[Interval]) -> float:
    """Total length of the intersection of two interval unions."""
    return overlap_merged(merge_intervals(a), merge_intervals(b))


def overlap_merged(ma: Sequence[Interval], mb: Sequence[Interval]) -> float:
    """:func:`overlap_length` on already-merged (sorted, disjoint) input.

    Callers that need busy totals *and* the overlap merge each trace
    once and reuse the merged lists for both.
    """
    i = j = 0
    total = 0.0
    while i < len(ma) and j < len(mb):
        lo = max(ma[i][0], mb[j][0])
        hi = min(ma[i][1], mb[j][1])
        if hi > lo:
            total += hi - lo
        if ma[i][1] <= mb[j][1]:
            i += 1
        else:
            j += 1
    return total


class BusyTrace:
    """Accumulates tagged busy intervals for one device."""

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._intervals: List[Tuple[float, float, str]] = []

    def record(self, start: float, end: float, tag: str = "") -> None:
        """Record one busy interval ``[start, end]`` (zero-length allowed)."""
        if end < start:
            raise ValueError(
                f"busy interval for {self.name!r} ends ({end}) before it "
                f"starts ({start})"
            )
        self._intervals.append((start, end, tag))

    @property
    def intervals(self) -> List[Interval]:
        """All recorded intervals as ``(start, end)`` pairs."""
        return [(s, e) for s, e, _ in self._intervals]

    def tagged(self, tag: str) -> List[Interval]:
        """Intervals whose tag equals ``tag``."""
        return [(s, e) for s, e, t in self._intervals if t == tag]

    def busy_time(self) -> float:
        """Total busy time counting concurrent intervals once (union)."""
        return sum(e - s for s, e in merge_intervals(self.intervals))

    def work_time(self) -> float:
        """Total busy time counting concurrent intervals separately."""
        return sum(e - s for s, e, _ in self._intervals)

    def span(self) -> Interval:
        """Earliest start and latest end over all intervals."""
        if not self._intervals:
            return (0.0, 0.0)
        return (
            min(s for s, _, _ in self._intervals),
            max(e for _, e, _ in self._intervals),
        )

    def utilization(self, horizon: float) -> float:
        """Fraction of ``[0, horizon]`` covered by busy intervals.

        A zero or negative horizon yields 0.0: a device observed over an
        empty window has no measurable utilization.  (Degenerate windows
        occur legitimately, e.g. a schedule whose makespan rounds to 0.)
        """
        if horizon <= 0:
            return 0.0
        return self.busy_time() / horizon

    def overlap_with(self, other: "BusyTrace") -> float:
        """Length of time both traces were busy simultaneously."""
        return overlap_length(self.intervals, other.intervals)
