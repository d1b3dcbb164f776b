"""The discrete-event simulator.

Drives the event queue and steps process generators.  The engine is
single-threaded and deterministic: same inputs, same event order, same
clock readings, every run.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.errors import DeadlockError, SimulationError
from repro.sim.events import EventQueue
from repro.sim.process import AllOf, Process, ProcessGenerator, Timeout
from repro.sim.signals import Signal


class Simulator:
    """A simulated clock plus the machinery to run processes against it."""

    __slots__ = (
        "_queue",
        "now",
        "_live_processes",
        "_running",
        "events_processed",
        "processes_spawned",
    )

    def __init__(self) -> None:
        self._queue = EventQueue()
        self.now: float = 0.0
        self._live_processes = 0
        self._running = False
        #: Observability counters, maintained unconditionally (two int
        #: increments per event/spawn); the schedule executor folds them
        #: into the metrics registry when a tracer is active.
        self.events_processed = 0
        self.processes_spawned = 0

    # ------------------------------------------------------------------
    # low-level scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, callback: Callable[[], None]) -> None:
        """Run ``callback`` after ``delay`` units of simulated time."""
        # The chained comparison also rejects NaN (every comparison with
        # NaN is false) and +inf, so EventQueue.push can skip validation.
        if not 0.0 <= delay < float("inf"):
            raise SimulationError(
                f"delay must be finite and >= 0, got {delay!r}"
            )
        self._queue.push(self.now + delay, callback)

    def fire_later(self, delay: float, signal: Signal, value: Any = None) -> None:
        """Fire ``signal`` with ``value`` after ``delay`` time units."""
        self.schedule(delay, lambda: signal.fire(value))

    # ------------------------------------------------------------------
    # processes
    # ------------------------------------------------------------------
    def spawn(self, generator: ProcessGenerator, name: str = "") -> Process:
        """Start a new process; it begins executing at the current time."""
        process = Process(generator, name)
        process._sim = self
        self._live_processes += 1
        self.processes_spawned += 1
        # Bound-method dispatch: scheduling the process's own resume
        # methods avoids allocating a closure (lambda + cell) per step —
        # this is the engine's hottest allocation site.
        self.schedule(0.0, process._kick)
        return process

    def _step(self, process: Process, send_value: Any) -> None:
        try:
            yielded = process.generator.send(send_value)
        except StopIteration as stop:
            self._live_processes -= 1
            process.fire(stop.value)
            return
        self._wire(process, yielded)

    def _wire(self, process: Process, yielded: Any) -> None:
        if isinstance(yielded, Timeout):
            self.schedule(yielded.duration, process._kick)
        elif isinstance(yielded, AllOf):
            yielded.as_signal().on_fire(process._resume)
        elif isinstance(yielded, Signal):  # includes child Process objects
            yielded.on_fire(process._resume)
        else:
            raise SimulationError(
                f"process {process.name!r} yielded unsupported waitable "
                f"{yielded!r}; expected Timeout, Signal, Process, or AllOf"
            )

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None) -> float:
        """Run events until the queue drains (or simulated ``until``).

        Returns the final clock reading.  Raises :class:`DeadlockError`
        if the queue drains while processes are still alive: that means
        some process is waiting on a signal nobody will ever fire.
        """
        if self._running:
            raise SimulationError("Simulator.run is not reentrant")
        self._running = True
        queue = self._queue
        pop_batch = queue.pop_batch
        # Events are drained in whole equal-time runs: callbacks fired
        # *during* the batch at the same timestamp queue behind it (they
        # would get later tie-break seqs anyway), so batch order equals
        # the one-event-at-a-time reference order.  The event counter
        # accumulates locally and flushes once on exit — nothing reads
        # it mid-run.
        events = 0
        try:
            while len(queue):
                if until is not None and queue.peek_time() > until:
                    self.now = until
                    return self.now
                time, callbacks = pop_batch()
                if time < self.now:
                    raise SimulationError(
                        f"event time {time} precedes current time {self.now}"
                    )
                self.now = time
                done = 0
                try:
                    for callback in callbacks:
                        done += 1
                        callback()
                except BaseException:
                    # Restore the unprocessed rest of the batch at the
                    # front of this timestamp's FIFO run, ahead of any
                    # same-time events the failing callback scheduled —
                    # exactly the state the unbatched loop would leave.
                    if done < len(callbacks):
                        queue.requeue(time, callbacks[done:])
                    events += done
                    raise
                events += done
            if self._live_processes > 0 and until is None:
                raise DeadlockError(
                    f"event queue drained at t={self.now} with "
                    f"{self._live_processes} process(es) still waiting"
                )
            return self.now
        finally:
            self.events_processed += events
            self._running = False

    def run_process(self, generator: ProcessGenerator, name: str = "") -> Any:
        """Spawn ``generator``, run to completion, return its result."""
        process = self.spawn(generator, name)
        self.run()
        if not process.fired:
            raise DeadlockError(
                f"process {process.name!r} never completed"
            )  # pragma: no cover - defended by run()'s deadlock check
        return process.value
