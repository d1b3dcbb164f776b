"""Work-group execution: local memory and barriers.

The OpenCL model (§3.1 of the paper) gives work-items in the same
work-group two things the flat reference executor cannot express:
shared *local memory* and *barriers*.  This module provides a faithful
semantic executor for such kernels:

- a work-item is a Python *generator* over its :class:`WorkItemContext`;
  ``yield BARRIER`` suspends it at a barrier;
- all work-items of a group advance in lock-step barrier intervals:
  every item must reach barrier ``k`` before any item resumes past it;
- a group where some items hit a barrier while others already returned
  exhibits *barrier divergence* — undefined behaviour on real devices,
  a loud :class:`KernelError` here;
- local memory is allocated per group and torn down after it, so
  cross-group leakage is impossible by construction.

:func:`group_reduce_kernel` is the canonical example: the classic
local-memory tree reduction every OpenCL tutorial opens with.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, Generator, List

from repro.errors import KernelError
from repro.opencl.kernel import NDRange

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np

#: Sentinel yielded by work-item generators at a barrier.
BARRIER = object()


class LocalMemory:
    """Per-work-group shared scratch memory."""

    def __init__(self, limit_bytes: int = 32 * 1024) -> None:
        self.limit_bytes = limit_bytes
        self._arrays: Dict[str, np.ndarray] = {}
        self._used = 0

    def alloc(self, name: str, size: int, dtype="int64") -> np.ndarray:
        """Allocate (or fetch) a named local array.

        Repeated allocation with the same name returns the same array —
        every work-item in the group sees one buffer, as in OpenCL.
        """
        if name in self._arrays:
            return self._arrays[name]
        import numpy as np

        nbytes = size * np.dtype(dtype).itemsize
        if self._used + nbytes > self.limit_bytes:
            raise KernelError(
                f"local memory exhausted: {name!r} needs {nbytes} B, "
                f"{self.limit_bytes - self._used} B free"
            )
        array = np.zeros(size, dtype=dtype)
        self._arrays[name] = array
        self._used += nbytes
        return array


@dataclass
class WorkItemContext:
    """Everything a work-item can see."""

    global_id: int
    local_id: int
    group_id: int
    local_size: int
    local: LocalMemory
    args: Any
    ops: float = 0.0  # accumulated cost, for cross-checking models

    def charge(self, ops: float) -> None:
        """Account ``ops`` abstract operations to this work-item."""
        self.ops += ops


WorkItemBody = Callable[[WorkItemContext], Generator]


@dataclass
class GroupKernel:
    """A kernel whose work-items may share local memory and barrier."""

    name: str
    body: WorkItemBody
    local_mem_limit: int = 32 * 1024
    meta: dict = field(default_factory=dict)


def run_grouped(kernel: GroupKernel, ndrange: NDRange, args: Any) -> float:
    """Execute ``kernel`` group by group with barrier semantics.

    Returns the total ops charged by all work-items (useful for
    validating declared cost models against actual behaviour).
    """
    total_ops = 0.0
    for group_id in range(ndrange.num_groups):
        first = group_id * ndrange.local_size
        size = min(ndrange.local_size, ndrange.global_size - first)
        if size <= 0:
            continue
        local = LocalMemory(kernel.local_mem_limit)
        contexts = [
            WorkItemContext(
                global_id=first + lid,
                local_id=lid,
                group_id=group_id,
                local_size=size,
                local=local,
                args=args,
            )
            for lid in range(size)
        ]
        items: List[Generator] = [kernel.body(ctx) for ctx in contexts]
        active = list(range(size))
        while active:
            at_barrier: List[int] = []
            finished: List[int] = []
            for index in active:
                try:
                    yielded = next(items[index])
                except StopIteration:
                    finished.append(index)
                    continue
                if yielded is not BARRIER:
                    raise KernelError(
                        f"kernel {kernel.name!r}: work-item "
                        f"{contexts[index].global_id} yielded "
                        f"{yielded!r}; only BARRIER may be yielded"
                    )
                at_barrier.append(index)
            if at_barrier and finished:
                raise KernelError(
                    f"kernel {kernel.name!r}: barrier divergence in group "
                    f"{group_id} — {len(at_barrier)} item(s) at a barrier "
                    f"while {len(finished)} returned (undefined behaviour "
                    f"on a real device)"
                )
            active = at_barrier
        total_ops += sum(ctx.ops for ctx in contexts)
    return total_ops


def group_reduce_kernel(
    source: np.ndarray, group_sums: np.ndarray
) -> GroupKernel:
    """The canonical local-memory tree reduction.

    Each group loads its slice of ``source`` into local memory, halves
    the active range with a barrier between rounds, and work-item 0
    writes the group's sum to ``group_sums[group_id]``.
    """

    def body(ctx: WorkItemContext):
        scratch = ctx.local.alloc("scratch", ctx.local_size)
        value = source[ctx.global_id] if ctx.global_id < source.size else 0
        scratch[ctx.local_id] = value
        ctx.charge(2.0)  # global load + local store
        yield BARRIER
        # start from the next power of two so partial groups (size not
        # a power of two) still fold every element in
        stride = 1
        while stride * 2 < ctx.local_size:
            stride *= 2
        while stride >= 1:
            if ctx.local_id < stride:
                partner = ctx.local_id + stride
                if partner < ctx.local_size:
                    scratch[ctx.local_id] += scratch[partner]
                    ctx.charge(1.0)
            yield BARRIER
            stride //= 2
        if ctx.local_id == 0:
            group_sums[ctx.group_id] = scratch[0]
            ctx.charge(1.0)

    return GroupKernel(name="group-reduce", body=body)
