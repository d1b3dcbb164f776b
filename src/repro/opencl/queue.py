"""In-order command queue binding a GPU device to the DES engine.

Mirrors OpenCL's default in-order queue semantics: commands (kernel
launches, reads, writes) execute one at a time in submission order.
Each command returns a :class:`~repro.sim.signals.Signal` the host
process can wait on; device busy intervals are recorded on the device's
trace so experiments can measure utilization and CPU/GPU overlap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional

from repro.errors import DeviceError
from repro.opencl.device import GPUDevice
from repro.opencl.kernel import Kernel, NDRange
from repro.opencl.memory import Buffer
from repro.sim import Resource, Simulator, Timeout
from repro.sim.signals import Signal
from repro.util.ambient import active_tracer, resilience_session

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np


@dataclass(frozen=True)
class CommandProfile:
    """OpenCL-event-style timestamps for one executed command.

    Mirrors ``CL_PROFILING_COMMAND_{QUEUED,START,END}``: ``queued`` is
    submission time, ``start`` when the device picked the command up
    (after every earlier command in the in-order queue), ``end`` its
    completion.
    """

    tag: str
    queued: float
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def queue_delay(self) -> float:
        """Time spent waiting behind earlier commands."""
        return self.start - self.queued


class CommandQueue:
    """An in-order queue of simulated device commands."""

    def __init__(self, sim: Simulator, device: GPUDevice, name: str = "queue") -> None:
        self.sim = sim
        self.device = device
        self.name = name
        self._order = Resource(1, f"{name}.order")
        #: Profiling log, one entry per completed command, in completion
        #: order (the queue is in-order, so also in submission order).
        self.profile: List[CommandProfile] = []

    # ------------------------------------------------------------------
    def _submit(self, run, tag: str, site: Optional[str] = None) -> Signal:
        """Serialize ``run`` (a zero-arg callable returning a duration).

        ``site`` names the fault-injection site of the command
        (``"kernel"`` / ``"transfer"``; ``None`` for barriers): when a
        :mod:`repro.resilience` session is installed, the command is
        checked against its fault plan as the device picks it up, and
        an injected failure raises the plan's typed error out of the
        simulation — the queue itself performs no retries; policies
        live in the schedule executor.
        """
        done = Signal(f"{self.name}.{tag}")
        queued_at = self.sim.now

        def command():
            yield self._order.request(1)
            if site is not None:
                session = resilience_session()
                if session is not None:
                    session.ambient_injector.check(site, "gpu", self.sim.now)
            start = self.sim.now
            duration = run()
            yield Timeout(duration)
            self.device.trace.record(start, self.sim.now, tag)
            self.profile.append(
                CommandProfile(
                    tag=tag, queued=queued_at, start=start, end=self.sim.now
                )
            )
            tracer = active_tracer()
            if tracer is not None:
                device = self.device.spec.name
                tracer.span(
                    tag,
                    "queue.cmd",
                    start,
                    self.sim.now,
                    device=device,
                    queue=self.name,
                    queued=queued_at,
                )
                metrics = tracer.metrics
                metrics.counter("queue.commands").inc(
                    device=device, queue=self.name
                )
                metrics.histogram("queue.wait").observe(
                    start - queued_at, device=device, queue=self.name
                )
            self._order.release(1)
            done.fire(self.sim.now)
            return None

        self.sim.spawn(command(), name=f"{self.name}.{tag}")
        return done

    # ------------------------------------------------------------------
    def enqueue_kernel(
        self, kernel: Kernel, ndrange: NDRange, args, tag: Optional[str] = None
    ) -> Signal:
        """Enqueue a kernel launch; returns a completion signal."""
        tracer = active_tracer()
        if tracer is not None:
            tracer.metrics.counter("gpu.kernel_launches").inc(
                device=self.device.spec.name, kernel=kernel.name
            )
        return self._submit(
            lambda: self.device.launch(kernel, ndrange, args),
            tag or f"kernel:{kernel.name}",
            site="kernel",
        )

    def enqueue_write(self, buf: Buffer, host: np.ndarray) -> Signal:
        """Copy ``host`` into the device buffer (host→device transfer)."""
        buf.check_live()
        if host.size > len(buf):
            raise DeviceError(
                f"write of {host.size} words overflows buffer "
                f"{buf.name!r} of {len(buf)} words"
            )

        def run() -> float:
            buf.data[: host.size] = host
            return self.device.transfer_time(int(host.size))

        tracer = active_tracer()
        if tracer is not None:
            tracer.metrics.counter("xfer.bytes").inc(
                int(host.nbytes), device=self.device.spec.name, dir="h2d"
            )
        return self._submit(run, f"write:{buf.name}", site="transfer")

    def enqueue_read(self, buf: Buffer, host: np.ndarray) -> Signal:
        """Copy the device buffer into ``host`` (device→host transfer)."""
        buf.check_live()
        if host.size > len(buf):
            raise DeviceError(
                f"read of {host.size} words overflows buffer "
                f"{buf.name!r} of {len(buf)} words"
            )

        def run() -> float:
            host[:] = buf.data[: host.size]
            return self.device.transfer_time(int(host.size))

        tracer = active_tracer()
        if tracer is not None:
            tracer.metrics.counter("xfer.bytes").inc(
                int(host.nbytes), device=self.device.spec.name, dir="d2h"
            )
        return self._submit(run, f"read:{buf.name}", site="transfer")

    def barrier(self) -> Signal:
        """A zero-duration command: fires when all prior commands finished."""
        return self._submit(lambda: 0.0, "barrier")
