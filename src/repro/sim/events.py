"""The time-ordered event queue that drives the simulator.

The engine's contract is small: events pop in ascending timestamp
order, and events pushed at the *same* timestamp pop in push (FIFO)
order — this determinism is load-bearing for reproducible experiments.
:class:`EventQueue` keeps ``(time, seq, callback)`` triples in a binary
heap, with a monotone ``seq`` breaking ties.

The queue also supports the engine's batched drain: :meth:`pop_batch`
removes the entire run of earliest-equal-time events in one call, and
:meth:`requeue` puts not-yet-run callbacks back at the *front* of that
timestamp's FIFO run if a callback raises mid-batch — so an exception
leaves the queue exactly as popping one event at a time would.
``tests/sim/test_determinism.py`` pins the contract.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Callable, List, Sequence, Tuple

Callback = Callable[[], None]

#: When True, ``push`` validates that timestamps are finite.  Off by
#: default: ``push`` is the engine's hottest call and
#: :meth:`Simulator.schedule` already rejects negative, NaN and infinite
#: delays, so the check here only matters when driving a queue directly.
#: Flip it on in tests or while debugging.
DEBUG_VALIDATE = False


class EventQueue:
    """A binary heap of timestamped callbacks, FIFO among equal times."""

    __slots__ = ("_heap", "_counter", "_front")

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, Callback]] = []
        self._counter = itertools.count()
        #: Descending counter for :meth:`requeue`: restored events get
        #: negative seqs, so they sort ahead of every normally-pushed
        #: event at the same timestamp.
        self._front = 0

    def __len__(self) -> int:
        return len(self._heap)

    def push(self, time: float, callback: Callback) -> None:
        """Schedule ``callback`` to run at absolute ``time``."""
        if DEBUG_VALIDATE and not math.isfinite(time):
            raise ValueError(f"event time must be finite, got {time!r}")
        heapq.heappush(self._heap, (time, next(self._counter), callback))

    def pop(self) -> Tuple[float, Callback]:
        """Remove and return the earliest ``(time, callback)`` pair."""
        if not self._heap:
            raise IndexError("pop from an empty EventQueue")
        time, _seq, callback = heapq.heappop(self._heap)
        return time, callback

    def pop_batch(self) -> Tuple[float, List[Callback]]:
        """Remove the whole run of earliest-equal-time events (FIFO)."""
        heap = self._heap
        if not heap:
            raise IndexError("pop from an empty EventQueue")
        time, _seq, callback = heapq.heappop(heap)
        callbacks = [callback]
        while heap and heap[0][0] == time:
            callbacks.append(heapq.heappop(heap)[2])
        return time, callbacks

    def requeue(self, time: float, callbacks: Sequence[Callback]) -> None:
        """Restore ``callbacks`` at the front of ``time``'s FIFO run."""
        front = self._front - len(callbacks)
        self._front = front
        for offset, callback in enumerate(callbacks):
            heapq.heappush(self._heap, (time, front + offset, callback))

    def peek_time(self) -> float:
        """Timestamp of the earliest event (queue must be non-empty)."""
        if not self._heap:
            raise IndexError("peek on an empty EventQueue")
        return self._heap[0][0]
