"""Divide-and-conquer sum — the paper's running example (Algorithms 4–5).

Algorithm 4 is the recursive form; Algorithm 5 the GPU form, where at a
level with ``b`` live partial sums thread ``i`` computes
``array[i] += array[i + b]``.  Tiny per-task cost makes sum the extreme
opposite of mergesort: ``f(n) = Θ(1)``, leaves dominate, and almost all
the time is level overhead — a useful stress case for the schedulers.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.core.schedule.workload import LEAVES, DCWorkload, KernelStep, LevelRef
from repro.core.spec import DCSpec
from repro.errors import SpecError
from repro.opencl.kernel import AccessPattern, Kernel
from repro.util.intmath import ilog2, is_power_of_two

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np


def sum_spec() -> DCSpec:
    """Algorithm 4 as a :class:`~repro.core.spec.DCSpec` over array views."""
    return DCSpec(
        name="dc-sum",
        a=2,
        b=2,
        is_base=lambda view: view.size == 1,
        base_case=lambda view: view[0],
        divide=lambda view: (view[: view.size // 2], view[view.size // 2 :]),
        combine=lambda subs, view: subs[0] + subs[1],
        size_of=lambda view: int(view.size),
        f_cost=lambda n: 1.0,  # one addition per combine
        leaf_cost=1.0,
    )


def sum_recursive(array: np.ndarray):
    """Algorithm 4 executed directly (the sequential baseline)."""
    import numpy as np

    view = np.asarray(array)
    if view.size == 0:
        raise SpecError("cannot sum an empty array")

    def recurse(v: np.ndarray):
        if v.size == 1:
            return v[0]
        half = v.size // 2
        return recurse(v[:half]) + recurse(v[half:])

    return recurse(view)


def sum_level_kernel(array: np.ndarray, live: int) -> Kernel:
    """Algorithm 5: ``array[i] += array[i + live]`` for ``i < live``.

    One GPU level of the breadth-first sum with ``2·live`` partial sums
    reduced to ``live``.  Regular, coalesced, one addition per item.
    """

    def vector_fn(n_items: int, args) -> None:
        array[:n_items] += array[n_items : 2 * n_items]

    def scalar_fn(gid: int, args) -> None:
        array[gid] += array[gid + live]

    return Kernel(
        name=f"sum[live={live}]",
        ops_per_item=lambda args: 1.0,
        vector_fn=vector_fn,
        scalar_fn=scalar_fn,
        divergent=False,
        access=AccessPattern.COALESCED,
    )


def gpu_sum_host_program(hpu, array: np.ndarray):
    """Algorithm 5 as a complete OpenCL-style host program.

    The paper's §4.3 sketch, executed against the simulated device
    through a real command queue: allocate a buffer, write the input,
    launch one stride-halving kernel per recursion level (each level is
    one ``numSubProblems`` launch), read back the result.  Returns
    ``(total, simulated_time)``.

    This is the literal Algorithm-5 layout (thread ``i`` adds
    ``array[i + live]``), which is fine here because the whole
    reduction runs on one device — see :class:`SumHost` for why the
    *hybrid* path uses the offset layout instead.
    """
    import numpy as np

    from repro.opencl.queue import CommandQueue
    from repro.sim import AllOf, Simulator

    data = np.asarray(array)
    if data.ndim != 1 or not is_power_of_two(max(data.size, 1)):
        raise SpecError(
            f"gpu_sum_host_program needs a 1-D power-of-two array, got "
            f"shape {data.shape}"
        )
    sim = Simulator()
    _, gpu = hpu.make_devices()
    queue = CommandQueue(sim, gpu, name="sum-queue")
    buf = gpu.alloc_like(data.astype(np.int64), name="sum-data")
    out = np.zeros(1, dtype=np.int64)

    def host():
        pending = [queue.enqueue_write(buf, data.astype(np.int64))]
        live = data.size // 2
        while live >= 1:
            kernel = sum_level_kernel(buf.data, live)
            ndrange = gpu.default_ndrange(live)
            pending.append(queue.enqueue_kernel(kernel, ndrange, {}))
            live //= 2
        pending.append(queue.enqueue_read(buf, out))
        yield AllOf(pending)
        return sim.now

    elapsed = sim.run_process(host(), name="sum-host")
    return int(out[0]), float(elapsed)


class SumHost:
    """Host state for a hybrid D&C sum over ``n = 2^k`` values.

    Partial sums use Algorithm 4's *offset* layout — task ``j`` at a
    level of size-``s`` subproblems keeps its partial at ``array[j·s]``
    (``array[0]`` ends up holding the total, as in the paper).  The
    literal Algorithm-5 stride layout pairs task ``j`` with ``j + b``,
    which would create cross-partition dependencies under the hybrid
    α-split; the offset layout keeps each side's tasks self-contained.
    """

    def __init__(self, array: np.ndarray) -> None:
        import numpy as np

        data = np.array(array)
        if data.ndim != 1 or not is_power_of_two(max(data.size, 1)):
            raise SpecError(
                "hybrid sum needs a 1-D power-of-two array, got shape "
                f"{data.shape}"
            )
        self.array = data
        self.k = ilog2(data.size)

    def execute(self, phase: str, level: LevelRef, offset: int, count: int) -> None:
        if phase == "base" or level == LEAVES:
            return  # a single element is already its own sum
        size = self.array.size >> int(level)  # subproblem size at level
        view = self.array[offset * size : (offset + count) * size]
        mat = view.reshape(count, size)
        mat[:, 0] += mat[:, size // 2]

    @property
    def result(self):
        return self.array[0]


def make_sum_workload(
    n: int, host: Optional[SumHost] = None, element_bytes: int = 4
) -> DCWorkload:
    """The D&C-sum workload for ``n = 2^k`` values."""
    if not is_power_of_two(n) or n < 4:
        raise SpecError(f"hybrid sum needs a power-of-two n >= 4, got {n}")
    k = ilog2(n)

    def gpu_steps(workload, level, tasks, offset):
        return [
            KernelStep(
                name=f"sum:{level}",
                items=tasks,
                ops_per_item=1.0,
                divergent=False,
                access=AccessPattern.COALESCED,
            )
        ]

    return DCWorkload(
        name="dc-sum",
        level_tasks=[1 << i for i in range(k)],
        level_cost=[1.0] * k,
        leaf_tasks=n,
        leaf_cost=1.0,
        total_elements=n,
        element_bytes=element_bytes,
        working_set_factor=1.0,
        execute=host.execute if host is not None else None,
        gpu_steps_fn=gpu_steps,
    )
