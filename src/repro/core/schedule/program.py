"""Step programs: what every strategy compiles to before it runs.

The paper's §4 translation turns a D&C recursion into a breadth-first
list of levels, each mapped to a batch of CPU tasks or to kernels.  A
:class:`Program` is that list for one run, with the work division
already applied: which tasks of which level run where, in what order,
and what overlaps.  Every strategy compiles to one —

- :func:`cpu_only`: the levels bottom-up on the cores;
- :func:`basic` (§5.1): one device chain, then the CPU levels;
- :func:`advanced` (§5.2): a CPU side concurrent with a device chain
  and its CPU tail, then the top levels;
- :func:`parallel_tail` (§7): the same, with the device chain climbing
  on parallel kernels;
- :func:`multi` (§3.2): the device side striped over the cards of a
  multi-GPU HPU, one chain per card.

— and two interpreters run it: the event-driven ``_Run`` driver in
:mod:`~repro.core.schedule.executor` and the closed-form replay in
:mod:`~repro.core.schedule.macro`.  The producers own the plan checks,
so neither interpreter repeats them.

A CPU batch is ``(level, offset, count, prefix)``: its span tag is the
prefix for the leaves and ``prefix:level`` otherwise.  A device level
is ``(level, offset, count, parallel)``.  Producers leave out batches
and levels of zero tasks: both interpreters expect at least one task
per step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.core.schedule.workload import LEAVES, DCWorkload
from repro.errors import ScheduleError


@dataclass(frozen=True)
class Chain:
    """One card's device work: ``words`` host→device, the kernel
    levels bottom-up, then the same ``words`` back."""

    words: int
    levels: Tuple[tuple, ...]


@dataclass(frozen=True)
class Program:
    """The steps of one run.

    When ``cpu`` (the CPU side) is non-empty it runs concurrently with
    the device side; otherwise the device side runs first, alone.  The
    device side is the ``chains`` (one per card: a :class:`Chain`, or
    ``None`` for a card with no share), then the ``tail`` of CPU
    batches over what the chains handed back.  ``top`` runs after both
    sides.  ``striped`` programs run their chains on the cards of a
    multi-GPU HPU, whose transfers queue on one shared host link.
    """

    cpu: Tuple[tuple, ...] = ()
    chains: Tuple[Optional[Chain], ...] = ()
    tail: Tuple[tuple, ...] = ()
    top: Tuple[tuple, ...] = ()
    #: Salts the run's measurement noise; part of every result's value.
    noise_key: tuple = ()
    #: Recovery label when a failed device chain may re-plan its
    #: remaining levels onto the CPU; ``None`` lets the error surface.
    fallback: Optional[str] = None
    #: CPU cores the run draws on; ``None``: all of the platform's.
    cores: Optional[int] = None
    striped: bool = False
    #: The operating point the conformance oracle evaluates on traced
    #: runs: ``("advanced", α, y)`` or ``("basic", crossover, use_gpu)``.
    oracle: Optional[tuple] = None


def _nonempty(steps) -> Tuple[tuple, ...]:
    """The steps with at least one task (their third field)."""
    return tuple([step for step in steps if step[2]])


def cpu_only(
    hpu, workload: DCWorkload, cores: Optional[int] = None
) -> Program:
    """Breadth-first on ``cores`` cores (all ``p`` by default)."""
    p = hpu.cpu_spec.p
    if not 1 <= (p if cores is None else cores) <= p:
        raise ScheduleError(f"cores must be in [1, {p}], got {cores!r}")
    w = workload
    top = [(LEAVES, 0, w.leaf_tasks, "leaves")]
    top += [
        (level, 0, w.level_tasks[level], "level")
        for level in range(w.k - 1, -1, -1)
    ]
    return Program(
        top=_nonempty(top), noise_key=("cpu-only", cores), cores=cores
    )


def basic(workload: DCWorkload, plan) -> Program:
    """§5.1: the GPU's levels in one chain, then the CPU's."""
    w = workload
    top = [
        (level, 0, w.tasks_at(level), "level")
        for level in plan.cpu_levels(w.k)
    ]
    shared = dict(
        noise_key=("basic", plan.crossover),
        oracle=("basic", plan.crossover, plan.use_gpu),
    )
    if not plan.use_gpu:
        top.insert(0, (LEAVES, 0, w.leaf_tasks, "leaves"))
        return Program(top=_nonempty(top), **shared)
    levels = [(LEAVES, 0, w.leaf_tasks, False)]
    levels += [
        (level, 0, w.tasks_at(level), False) for level in plan.gpu_levels(w.k)
    ]
    chain = Chain(w.words_for_tasks(LEAVES, w.leaf_tasks), _nonempty(levels))
    return Program(
        chains=(chain,), top=_nonempty(top), fallback="basic.gpu-phase",
        **shared,
    )


def _sides(workload: DCWorkload, plan, stop: int, name: str) -> tuple:
    """What advanced-shaped programs share: the CPU side (leaves, then
    levels ``k-1 .. t``), the GPU side's task shares ``(level, offset,
    count)`` of the leaves and levels ``k-1 .. stop``, the CPU tail of
    its shares of levels ``stop-1 .. t``, and the top (``t-1 .. 0``).
    ``stop`` must lie in ``[t, k]``; ``name`` names it in the error.

    The split counts are ``plan.cpu_tasks_at``/``gpu_tasks_at``
    inlined (a tuner sweep compiles hundreds of programs): the loops
    stay inside the accessors' checked level range.
    """
    w = workload
    t = plan.split_level
    if t < 0:
        raise ScheduleError(f"split level {t} is negative")
    if not t <= stop <= w.k:
        raise ScheduleError(f"{name} {stop} outside [{t}, {w.k}]")
    level_tasks = w.level_tasks
    cpu_split = plan.cpu_tasks_at_split
    total_split = cpu_split + plan.gpu_tasks_at_split
    cpu_leaves = cpu_split * (w.leaf_tasks // total_split)
    cpu = [(LEAVES, 0, cpu_leaves, "cpu-side")]
    gpu = [(LEAVES, cpu_leaves, w.leaf_tasks - cpu_leaves)]
    for level in range(w.k - 1, t - 1, -1):
        tasks = level_tasks[level]
        offset = cpu_split * (tasks // total_split)
        cpu.append((level, 0, offset, "cpu-side"))
        gpu.append((level, offset, tasks - offset))
    climb = 1 + w.k - stop  # the leaves and levels k-1 .. stop
    tail = [(*share, "gpu-tail") for share in gpu[climb:]]
    top = [
        (level, 0, level_tasks[level], "top") for level in range(t - 1, -1, -1)
    ]
    return _nonempty(cpu), gpu[:climb], _nonempty(tail), _nonempty(top)


def _one_card(
    workload, plan, stop: int, switch: int, name: str, **fields
) -> Program:
    """An advanced-shaped program on the platform's one GPU, which
    climbs to ``stop`` with parallel kernels below ``switch``."""
    w = workload
    cpu, shares, tail, top = _sides(w, plan, stop, name)
    gpu_leaves = shares[0][2]
    if not gpu_leaves:
        return Program(cpu=cpu, top=top, **fields)
    levels = _nonempty(
        (level, offset, count, level != LEAVES and level < switch)
        for level, offset, count in shares
    )
    chain = Chain(w.words_for_tasks(LEAVES, gpu_leaves), levels)
    return Program(cpu=cpu, chains=(chain,), tail=tail, top=top, **fields)


def advanced(workload: DCWorkload, plan) -> Program:
    """§5.2 / Algorithm 8: the GPU climbs to the transfer level ``y``."""
    t, y = plan.split_level, plan.transfer_level
    return _one_card(
        workload, plan, stop=y, switch=0, name="transfer level",
        noise_key=("advanced", plan.cpu_tasks_at_split, t, y),
        fallback="advanced.gpu-side",
        oracle=("advanced", plan.effective_alpha, y),
    )


def parallel_tail(workload: DCWorkload, plan) -> Program:
    """§7: the advanced schedule whose GPU, past its switch level,
    climbs on intra-task parallel kernels to ``plan.stop_level``."""
    base = plan.base
    switch, stop = plan.switch_level, plan.stop_level
    return _one_card(
        workload, base, stop=stop, switch=switch, name="stop level",
        noise_key=(
            "parallel-tail", base.cpu_tasks_at_split, base.split_level,
            switch, stop,
        ),
        fallback="parallel-tail.gpu-side",
    )


def multi(hpu, workload: DCWorkload, plan) -> Program:
    """§3.2: the advanced schedule with its GPU share striped over the
    cards of a multi-GPU HPU, each card an equal contiguous slice of
    every level.  No CPU fallback: the cards share one fault lane."""
    if not hasattr(hpu, "make_gpu_devices"):
        raise ScheduleError(
            f"{hpu.name!r} is not a multi-GPU platform; use "
            f"run_advanced instead"
        )
    w = workload
    t, y = plan.split_level, plan.transfer_level
    m = hpu.num_cards
    cpu, shares, tail, top = _sides(w, plan, y, "transfer level")

    def card_chain(card: int) -> Optional[Chain]:
        levels = []
        for level, offset, total in shares:
            base, extra = divmod(total, m)
            start = card * base + min(card, extra)
            count = base + (card < extra)
            levels.append((level, offset + start, count, False))
        leaves = levels[0][2]
        if not leaves:
            return None
        return Chain(w.words_for_tasks(LEAVES, leaves), _nonempty(levels))

    return Program(
        cpu=cpu,
        chains=tuple(card_chain(card) for card in range(m)),
        tail=tail,
        top=top,
        noise_key=("multi-gpu", m, plan.cpu_tasks_at_split, t, y),
        striped=True,
    )
