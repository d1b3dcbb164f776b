"""Determinism invariants of the event queue and the simulator clock.

These are the load-bearing guarantees behind every golden test in the
suite: FIFO tie-breaking at equal timestamps (one event at a time or
batched), exact ``run(until=...)`` clock semantics, and the validation
split between ``Simulator.schedule`` (always on) and ``EventQueue.push``
(opt-in via ``DEBUG_VALIDATE``).
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim import Simulator, Timeout
from repro.sim import events as events_module
from repro.sim.events import EventQueue


class TestEventQueueFIFO:
    def test_equal_timestamps_pop_in_push_order(self):
        queue = EventQueue()
        callbacks = [object() for _ in range(50)]
        for cb in callbacks:
            queue.push(7.0, cb)
        popped = [queue.pop() for _ in range(len(callbacks))]
        assert popped == [(7.0, cb) for cb in callbacks]

    def test_fifo_survives_interleaved_times(self):
        """Ties stay FIFO even when pushes interleave other timestamps."""
        queue = EventQueue()
        queue.push(5.0, "a")
        queue.push(1.0, "early")
        queue.push(5.0, "b")
        queue.push(9.0, "late")
        queue.push(5.0, "c")
        order = [queue.pop()[1] for _ in range(5)]
        assert order == ["early", "a", "b", "c", "late"]

    def test_sequence_counter_not_reset_by_pops(self):
        """A later push never jumps ahead of a coeval earlier one."""
        queue = EventQueue()
        queue.push(3.0, "first")
        assert queue.pop() == (3.0, "first")
        queue.push(3.0, "second")
        queue.push(3.0, "third")
        assert [queue.pop()[1], queue.pop()[1]] == ["second", "third"]

    def test_len_and_peek(self):
        queue = EventQueue()
        assert len(queue) == 0
        queue.push(2.0, "x")
        queue.push(1.0, "y")
        assert len(queue) == 2
        assert queue.peek_time() == 1.0

    def test_empty_queue_operations_raise(self):
        queue = EventQueue()
        with pytest.raises(IndexError):
            queue.pop()
        with pytest.raises(IndexError):
            queue.peek_time()

    def test_pop_batch_takes_whole_tie_run(self):
        queue = EventQueue()
        for name in ("a", "b", "c"):
            queue.push(2.0, name)
        queue.push(7.0, "later")
        assert queue.pop_batch() == (2.0, ["a", "b", "c"])
        assert len(queue) == 1
        assert queue.peek_time() == 7.0

    def test_requeue_restores_front_of_run(self):
        # An exception mid-batch puts the unrun tail back; it must pop
        # before anything pushed at the same stamp during the batch.
        queue = EventQueue()
        for name in ("a", "b", "c"):
            queue.push(4.0, name)
        time, callbacks = queue.pop_batch()
        queue.push(4.0, "pushed-mid-batch")
        queue.requeue(time, callbacks[1:])  # "a" ran, "b"/"c" did not
        order = [queue.pop()[1] for _ in range(3)]
        assert order == ["b", "c", "pushed-mid-batch"]

    # Tie-heavy schedules: few distinct stamps over many events.
    @given(
        times=st.lists(
            st.sampled_from([0.0, 1.0, 1.5, 2.0, 3.0]), max_size=60
        )
    )
    @settings(max_examples=100)
    def test_batched_drain_matches_single_pops(self, times):
        singles = EventQueue()
        batched = EventQueue()
        for seq, t in enumerate(times):
            singles.push(t, seq)
            batched.push(t, seq)
        flat = [singles.pop() for _ in range(len(times))]
        via_batches = []
        while len(batched):
            time, callbacks = batched.pop_batch()
            via_batches.extend((time, cb) for cb in callbacks)
        assert via_batches == flat


class TestEventQueueValidation:
    def test_nonfinite_times_allowed_by_default(self):
        """push skips validation by default: schedule() is the gate."""
        queue = EventQueue()
        queue.push(math.inf, "never")
        assert queue.peek_time() == math.inf

    def test_debug_validate_rejects_nonfinite_times(self, monkeypatch):
        monkeypatch.setattr(events_module, "DEBUG_VALIDATE", True)
        queue = EventQueue()
        queue.push(1.0, "fine")
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match="finite"):
                queue.push(bad, "bad")
        assert len(queue) == 1


class TestScheduleValidation:
    @pytest.mark.parametrize(
        "delay", [-1.0, -0.0001, math.inf, math.nan]
    )
    def test_schedule_rejects_bad_delays(self, delay):
        sim = Simulator()
        with pytest.raises(SimulationError, match="delay"):
            sim.schedule(delay, lambda: None)

    def test_schedule_accepts_zero_delay(self):
        sim = Simulator()
        hits = []
        sim.schedule(0.0, lambda: hits.append(sim.now))
        sim.run()
        assert hits == [0.0]


class TestRunUntilSemantics:
    def test_clock_lands_exactly_on_until(self):
        sim = Simulator()
        sim.schedule(3.0, lambda: None)
        sim.schedule(10.0, lambda: None)
        assert sim.run(until=5.0) == 5.0
        assert sim.now == 5.0

    def test_event_at_until_boundary_runs(self):
        """Only events strictly after ``until`` are deferred."""
        sim = Simulator()
        hits = []
        sim.schedule(5.0, lambda: hits.append("at"))
        sim.schedule(5.0 + 1e-9, lambda: hits.append("after"))
        sim.run(until=5.0)
        assert hits == ["at"]

    def test_resuming_after_until_continues_deterministically(self):
        sim = Simulator()
        hits = []
        for t in (1.0, 4.0, 6.0, 9.0):
            sim.schedule(t, lambda t=t: hits.append(t))
        sim.run(until=5.0)
        assert hits == [1.0, 4.0]
        sim.run()
        assert hits == [1.0, 4.0, 6.0, 9.0]
        assert sim.now == 9.0

    def test_until_with_empty_queue_keeps_clock(self):
        """A drained queue ends the run at the last event time, not
        ``until`` — the clock never advances past real work."""
        sim = Simulator()
        sim.schedule(2.0, lambda: None)
        assert sim.run(until=100.0) == 2.0

    def test_until_does_not_deadlock_on_waiting_processes(self):
        """Deadlock detection only applies to unbounded runs."""
        from repro.sim.signals import Signal

        sim = Simulator()
        sig = Signal("never-fired")

        def waiter():
            yield sig
            return None

        sim.spawn(waiter())
        sim.run(until=4.0)  # must not raise DeadlockError
        # The queue drained at the spawn kick; the clock stays there.
        assert sim.now == 0.0


class TestRunToRunDeterminism:
    def test_identical_runs_identical_clocks(self):
        """The same workload replayed on a fresh simulator reproduces
        every intermediate clock reading."""

        def workload(sim, readings):
            def proc(d):
                yield Timeout(d)
                readings.append(sim.now)
                yield Timeout(d / 2)
                readings.append(sim.now)
                return None

            for d in (3.0, 1.0, 2.0, 1.0):
                sim.spawn(proc(d))
            sim.run()
            return readings

        first = workload(Simulator(), [])
        second = workload(Simulator(), [])
        assert first == second
