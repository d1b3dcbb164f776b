"""The simulated multicore CPU device."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.cpu.cache import contention_factor
from repro.errors import DeviceError
from repro.sim.trace import BusyTrace
from repro.util.intmath import ceil_div

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim import Resource, Simulator


@dataclass(frozen=True)
class CPUDeviceSpec:
    """Static description of the multicore CPU.

    ``p`` is the paper's "cores available for processing tasks" — it may
    be lower than the physical count if cores are reserved for thread
    launching / scheduling (§3.2).  ``clock_ghz``, ``physical_cores``
    and ``llc_bytes`` record the Table 1 hardware; only ``p``,
    ``llc_bytes`` and ``cache_kappa`` affect timing.
    """

    name: str
    p: int
    llc_bytes: int
    physical_cores: int = 0
    clock_ghz: float = 0.0
    cache_kappa: float = 0.0
    thread_spawn_overhead: float = 0.0  # ops per spawned thread team

    def __post_init__(self) -> None:
        if self.p < 1:
            raise DeviceError(f"p must be >= 1, got {self.p!r}")
        if self.llc_bytes <= 0:
            raise DeviceError(f"llc_bytes must be positive, got {self.llc_bytes!r}")
        if self.cache_kappa < 0:
            raise DeviceError(
                f"cache_kappa must be >= 0, got {self.cache_kappa!r}"
            )
        if self.thread_spawn_overhead < 0:
            raise DeviceError(
                f"thread_spawn_overhead must be >= 0, got "
                f"{self.thread_spawn_overhead!r}"
            )


class CPUDevice:
    """A simulated multicore CPU: a core pool plus a busy trace.

    Time accounting uses the paper's normalization (one op per unit per
    core) with the LLC-contention factor of :mod:`repro.cpu.cache`.
    """

    def __init__(self, spec: CPUDeviceSpec) -> None:
        self.spec = spec
        self.trace = BusyTrace(spec.name)
        self._cores: Resource | None = None
        self._sim: Simulator | None = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<CPUDevice {self.spec.name!r} p={self.spec.p}>"

    # -- DES binding ----------------------------------------------------
    def bind(self, sim: Simulator) -> None:
        """Attach to a simulator run, creating a fresh core pool."""
        from repro.sim.resources import Resource

        self._sim = sim
        self._cores = Resource(self.spec.p, f"{self.spec.name}.cores")

    @property
    def cores(self) -> Resource:
        """The core pool (valid after :meth:`bind`)."""
        if self._cores is None:
            raise DeviceError(
                f"{self.spec.name!r} is not bound to a simulator; call bind()"
            )
        return self._cores

    # -- timing ---------------------------------------------------------
    def contention(self, active_cores: int, working_set_bytes: float) -> float:
        """LLC contention factor for the given execution conditions."""
        return contention_factor(
            working_set_bytes,
            self.spec.llc_bytes,
            active_cores,
            self.spec.cache_kappa,
        )

    def task_time(
        self, ops: float, active_cores: int = 1, working_set_bytes: float = 0.0
    ) -> float:
        """Duration of one task of ``ops`` operations on one core."""
        if ops < 0:
            raise DeviceError(f"task ops must be >= 0, got {ops!r}")
        return ops * self.contention(active_cores, working_set_bytes)

    def batch_time(
        self,
        num_tasks: int,
        ops_per_task: float,
        cores: int,
        working_set_bytes: float = 0.0,
    ) -> float:
        """Duration of ``num_tasks`` equal tasks on ``cores`` cores.

        Tasks are indivisible (the paper never parallelizes inside a
        divide/combine call), so the level time is the ceiling-balanced
        ``ceil(m/k)`` rounds of one task each, matching the paper's
        ``(a^i / p) f(n / b^i)`` when ``m >> k``.
        """
        if num_tasks < 0:
            raise DeviceError(f"num_tasks must be >= 0, got {num_tasks!r}")
        if not 1 <= cores <= self.spec.p:
            raise DeviceError(
                f"cores must be in [1, {self.spec.p}], got {cores!r}"
            )
        if num_tasks == 0:
            return 0.0
        active = min(cores, num_tasks)
        rounds = ceil_div(num_tasks, active)
        return rounds * self.task_time(ops_per_task, active, working_set_bytes)
