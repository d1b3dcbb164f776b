"""Batch completion: an OpenMP-style worker team as a single waitable.

:class:`TeamBatch` reproduces, simulated-time step for step, the
semantics of spawning one generator process per worker that does
``request(1) -> Timeout(duration) -> trace.record -> release(1)`` —
but without the per-worker generator machinery:

- all core requests are issued back-to-back inside one zero-delay start
  event, exactly where the reference workers' spawn steps would run, so
  FIFO ordering against concurrently-requesting teams is preserved;
- workers whose grant time and duration coincide complete in a *single*
  event that records their trace intervals and releases their cores
  together (releasing ``k`` units at once wakes the same waiters at the
  same timestamps as ``k`` consecutive unit releases would).

For the homogeneous level batches of the schedule executor this turns
``2 x workers`` engine steps plus process/``AllOf`` bookkeeping into two
events total, while producing bit-identical clocks and traces.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from repro.errors import SimulationError
from repro.sim.signals import Signal
from repro.util.ambient import active_tracer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Simulator
    from repro.sim.resources import Resource
    from repro.sim.trace import BusyTrace


#: (trace name, pool name, tag) -> (span name, worker lane) for traced
#: team completions.  Teams are created per batch, so deriving the lane
#: f-string on each instance would allocate ~one string per batch; the
#: mapping is tiny (a handful of lanes per sweep) and immutable.
_SPAN_IDENTITY: Dict[tuple, tuple] = {}


class TeamBatch(Signal):
    """A worker team over a unit-resource pool; fires when all finish.

    Each entry of ``durations`` is one worker: it requests a single unit
    of ``pool`` (FIFO), holds it for its duration, optionally records a
    busy interval on ``trace`` under ``tag``, and releases the unit.
    The batch itself is a :class:`Signal` that fires with the worker
    count once every worker has completed, so processes simply
    ``yield TeamBatch(...)``.
    """

    __slots__ = ("_sim", "_pool", "_durations", "_trace", "_tag",
                 "_remaining", "_groups")

    def __init__(
        self,
        sim: "Simulator",
        pool: "Resource",
        durations: Sequence[float],
        trace: Optional["BusyTrace"] = None,
        tag: str = "",
    ) -> None:
        super().__init__(f"team({tag})" if tag else "team")
        if not durations:
            raise SimulationError("TeamBatch needs at least one worker")
        for duration in durations:
            if duration < 0:
                raise SimulationError(
                    f"worker duration must be >= 0, got {duration!r}"
                )
        self._sim = sim
        self._pool = pool
        self._durations = list(durations)
        self._trace = trace
        self._tag = tag
        self._remaining = len(self._durations)
        #: Completion groups: absolute end time -> start times of the
        #: workers finishing then (usually one group per batch).
        self._groups: Dict[float, List[float]] = {}
        # Defer the requests by one zero-delay event, exactly like the
        # reference worker processes' spawn steps: FIFO ordering against
        # other teams requesting at the same timestamp depends on it.
        sim.schedule(0.0, self._start)

    def _start(self) -> None:
        durations = self._durations
        pool = self._pool
        if pool.can_grant(len(durations)):
            # Uncontended pool: seize the whole team's units in one
            # call, skipping a grant Signal per worker.  Equivalent to
            # the request loop below, which would fire each grant
            # synchronously anyway.
            pool.acquire(len(durations))
            for duration in durations:
                self._granted(duration)
            return
        for duration in durations:
            pool.request(1).on_fire(
                lambda _grant, _d=duration: self._granted(_d)
            )

    def _granted(self, duration: float) -> None:
        start = self._sim.now
        end = start + duration
        group = self._groups.get(end)
        if group is None:
            self._groups[end] = group = []
            self._sim.schedule(duration, lambda _end=end: self._finish(_end))
        group.append(start)

    def _finish(self, end: float) -> None:
        starts = self._groups.pop(end)
        if self._trace is not None:
            for start in starts:
                self._trace.record(start, end, self._tag)
        tracer = active_tracer()
        if tracer is not None:
            # Worker-granularity spans on a per-device "... workers"
            # lane; the executor records the enclosing batch span.  The
            # row appends directly onto the tracer's buffer (the tuple
            # shape is repro.obs.tracer.SpanRow): in-run rows are
            # run-relative, which the sim times here already are — the
            # non-zero-offset case (recording outside any run) defers
            # to span_many for the shift.
            key = (
                self._trace.name if self._trace is not None else None,
                self._pool.name,
                self._tag,
            )
            ident = _SPAN_IDENTITY.get(key)
            if ident is None:
                base = (self._trace.name if self._trace is not None else "")
                ident = _SPAN_IDENTITY[key] = (
                    self._tag or "worker",
                    f"{base or self._pool.name}.workers",
                )
            name, lane = ident
            if tracer._offset == 0.0:
                tracer.span_rows.append(
                    (name, "cpu.worker",
                     starts[0] if len(starts) == 1 else tuple(starts),
                     end, lane, tracer._run_index, None)
                )
            else:
                tracer.span_many(name, "cpu.worker", starts, end,
                                 device=lane)
        self._pool.release(len(starts))
        self._remaining -= len(starts)
        if self._remaining == 0:
            self.fire(len(self._durations))
