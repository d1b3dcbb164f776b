"""Work division and scheduling strategies (Section 5).

- :class:`~repro.core.schedule.workload.DCWorkload` — the geometry and
  device-mappable steps of one D&C problem instance.
- :class:`~repro.core.schedule.basic.BasicSchedule` — §5.1: each level
  runs entirely on the device where it is faster; one transfer each way
  at the crossover level ``log_a(p/γ)``.
- :class:`~repro.core.schedule.advanced.AdvancedSchedule` — §5.2: an
  ``α`` / ``1−α`` split below the top of the tree, the GPU climbing to
  transfer level ``y`` while the CPU stays saturated; two transfers.
- :mod:`~repro.core.schedule.program` — the step program every plan
  compiles to.
- :class:`~repro.core.schedule.executor.ScheduleExecutor` — runs a
  plan's program on a simulated HPU (closed-form replay, or the DES
  engine), returning makespan, per-device busy traces and the CPU/GPU
  overlap statistics of Fig. 8.
"""

from repro.core.schedule.advanced import AdvancedPlan, AdvancedSchedule
from repro.core.schedule.basic import BasicPlan, BasicSchedule
from repro.core.schedule.executor import HybridRunResult, ScheduleExecutor
from repro.core.schedule.extensions import (
    ParallelTailPlan,
    plan_parallel_tail,
)
from repro.core.schedule.workload import DCWorkload, KernelStep

__all__ = [
    "AdvancedPlan",
    "AdvancedSchedule",
    "BasicPlan",
    "BasicSchedule",
    "HybridRunResult",
    "ScheduleExecutor",
    "ParallelTailPlan",
    "plan_parallel_tail",
    "DCWorkload",
    "KernelStep",
]
