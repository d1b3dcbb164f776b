"""Contracts of the event queue implementation, case by case.

The simulator's event queue is :class:`repro.sim.events.EventQueue`, a
binary heap (test id ``heap``).  These cases pin the small contract a
queue implementation owes the engine: FIFO among equal timestamps,
``IndexError`` on empty access, and opt-in finiteness validation.  The
batched-drain contract lives in ``tests/sim/test_determinism.py``.
"""

import math

import pytest

from repro.sim import events as events_module
from repro.sim.events import EventQueue

IMPLEMENTATIONS = {"heap": EventQueue}

pytestmark = pytest.mark.parametrize("backend", sorted(IMPLEMENTATIONS))


def make_queue(backend):
    return IMPLEMENTATIONS[backend]()


class TestEmptyQueueErrors:
    def test_pop_empty_raises(self, backend):
        with pytest.raises(IndexError, match="empty EventQueue"):
            make_queue(backend).pop()

    def test_pop_batch_empty_raises(self, backend):
        with pytest.raises(IndexError, match="empty EventQueue"):
            make_queue(backend).pop_batch()

    def test_peek_empty_raises(self, backend):
        with pytest.raises(IndexError, match="empty EventQueue"):
            make_queue(backend).peek_time()

    def test_drained_queue_raises_again(self, backend):
        queue = make_queue(backend)
        queue.push(1.0, "x")
        assert queue.pop() == (1.0, "x")
        with pytest.raises(IndexError):
            queue.pop()


class TestDebugValidate:
    @pytest.mark.parametrize(
        "bad", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"]
    )
    def test_non_finite_push_raises_when_enabled(
        self, backend, bad, monkeypatch
    ):
        monkeypatch.setattr(events_module, "DEBUG_VALIDATE", True)
        queue = make_queue(backend)
        with pytest.raises(ValueError, match="must be finite"):
            queue.push(bad, "boom")
        assert len(queue) == 0  # the bad event was not enqueued

    def test_validation_off_by_default(self, backend):
        # The hot path skips the check; Simulator.schedule guards it.
        assert events_module.DEBUG_VALIDATE is False
        queue = make_queue(backend)
        queue.push(math.inf, "accepted-unchecked")
        assert queue.pop() == (math.inf, "accepted-unchecked")

    def test_finite_push_passes_when_enabled(self, backend, monkeypatch):
        monkeypatch.setattr(events_module, "DEBUG_VALIDATE", True)
        queue = make_queue(backend)
        queue.push(3.5, "ok")
        assert queue.peek_time() == 3.5


class TestBackendContract:
    def test_fifo_among_equal_timestamps(self, backend):
        queue = make_queue(backend)
        queue.push(5.0, "a")
        queue.push(1.0, "early")
        queue.push(5.0, "b")
        queue.push(9.0, "late")
        queue.push(5.0, "c")
        order = [queue.pop()[1] for _ in range(5)]
        assert order == ["early", "a", "b", "c", "late"]
