"""Whole-run closed-form execution: the macro fast path.

The paper's point is that the hybrid schedule's behaviour is
predictable from closed forms; the DES should only pay event-by-event
cost when something the closed forms cannot express is in play.  Every
run compiles to one :class:`~repro.core.schedule.program.Program`, and
two interpreters run programs: the DES driver of
:mod:`~repro.core.schedule.executor` and :func:`replay` here.  For a
run with no fault plan and no functional execute hook, a program on
one GPU is a straight-line chain of closed-form batch durations — so
:func:`replay` runs the whole program with plain float arithmetic and
emits the same :class:`~repro.core.schedule.executor.HybridRunResult`.
That covers the CPU-only, basic, advanced and parallel-tail
strategies; multi-card programs stay on the DES, because their
transfers queue FIFO on the shared host link.

Bit-identity is the contract, not an aspiration: the replay performs
the *same float additions in the same order* as the DES —

- batch ends are ``start + duration`` with the identical ``duration``
  expression (spawn overhead + chunk · cost · contention, or the
  kernel/transfer cost model), chained left to right;
- trace intervals append in DES event order (CPU side, then the GPU
  tail, then the top — the sides never interleave on an eligible run);
- heterogeneous worker teams reproduce :class:`~repro.sim.batch.
  TeamBatch`'s completion groups, including their end-time drain order;
- ``gpu_kernel_time``/``transfer_time`` accumulate in the same order,
  and the noise key and application are identical.

Core-pool contention — the GPU side's CPU tail racing a still-running
CPU side — is replayed by a minimal two-stream event loop
(:func:`_replay_tail_contention`) that reproduces the DES's FIFO grant
and completion-group semantics, including its same-timestamp tie-break
order, with a conservative bail back to the DES in the one case the
tie-break cannot be reproduced cheaply (the tail starting at exactly
the timestamp of another pending pool event).

Under an active tracer the replay records what the DES records: the
run record, ``cpu.worker``/``cpu.batch``/``gpu.kernel``/``gpu.xfer``
span rows in DES event order, and the per-level, transfer, core-wait
and run metrics (``sim.events``/``sim.processes`` excepted: they count
DES work, and a replayed run does none).  Everything is held back
until the replay can no longer bail, and a traced run whose two sides
complete something at the exact same timestamp — where the DES order
would depend on event sequence numbers — bails to the DES.

Anything guarded, hooked, or slow-path always takes the DES, and
``ScheduleExecutor(macro=False)`` forces it per executor (the DES
oracle the tests compare against).
The differential suite (``tests/core/schedule/test_macro_path.py``)
pins DES-vs-macro bit-identity, traced and untraced, across the fig8
operating grid and the parallel-tail plans.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from typing import Optional

from repro.core.schedule import program as _program
from repro.core.schedule.extensions import ParallelTailPlan
from repro.core.schedule.workload import LEAVES
from repro.cpu.cache import contention_factor
from repro.obs.tracer import active as _obs_active
from repro.util.ambient import resilience_session
from repro.util.intmath import ceil_div


def macro_enabled(executor) -> bool:
    """Whether ``executor``'s next run may skip the DES entirely.

    Requires the fast path (the reference path exists to exercise the
    DES), no resilience config (explicit or ambient session: faults and
    deadlines need events), and no functional execute hook (hooks
    observe per-batch scheduling order).  An active tracer does not
    matter: the replay records the same trace.
    """
    return (
        executor.macro is not False
        and executor.fast
        and executor.resilience is None
        and executor.workload.execute is None
        and resilience_session() is None
    )


class _TracedLevel(tuple):
    """A cached GPU level's kernel durations, plus ``steps``: each
    kernel step's (name, items, ops) for the rows and counters a traced
    replay records.  Untraced replays cache plain duration tuples."""


class _MacroRun:
    """Closed-form mirror of the executor's per-run state.

    A CPU batch travels as ``(durations, level, count, tag prefix)``:
    the program's batch with its per-worker durations in place of its
    offset.
    """

    __slots__ = (
        "x", "w", "cores", "ws", "llc", "kappa", "spawn",
        "cpu_iv", "gpu_iv", "gpu_kernel_time", "transfer_time",
        "tracer", "ri", "lane", "rows", "dev_rows", "agg", "gpu_incs",
        "xfers", "zero_waits", "waits",
    )

    def __init__(self, executor, cores: Optional[int] = None) -> None:
        self.x = executor
        self.w = executor.workload
        cpu_spec = executor.hpu.cpu_spec
        self.cores = cpu_spec.p if cores is None else cores
        self.ws = self.w.working_set_bytes()
        self.llc = cpu_spec.llc_bytes
        self.kappa = cpu_spec.cache_kappa
        self.spawn = cpu_spec.thread_spawn_overhead
        # Raw busy intervals in DES record order, as (start, end) pairs
        # like BusyTrace.intervals (the result exposes no tags).  The
        # workers of one completion group share one pair.
        self.cpu_iv = []
        self.gpu_iv = []
        self.gpu_kernel_time = 0.0
        self.transfer_time = 0.0
        self.tracer = tracer = _obs_active()
        if tracer is not None:
            # What the DES would record, held back until finish(): the
            # run index is already fixed (nothing else records while
            # the replay runs).  Rows go to ``rows`` in DES order; an
            # advanced run points ``dev_rows`` at a list of its own and
            # merges the two sides by time.
            self.ri = len(tracer.runs)
            # TeamBatch's worker lane: the CPU trace name, else the pool's.
            name = cpu_spec.name
            self.lane = f"{name or f'{name}.cores'}.workers"
            self.rows = []
            self.dev_rows = self.rows
            self.agg = {}  # level -> [ops, batches, llc events], call order
            self.gpu_incs = []  # (level, launches, ops) per GPU level
            self.xfers = []  # (tag, words) per transfer
            self.zero_waits = 0  # core-pool grants with no wait
            self.waits = []  # queued grants' waits, in grant order

    # -- CPU -----------------------------------------------------------
    def team_durations(self, level, count: int):
        """Per-worker durations of one team batch of ``count > 0`` tasks.

        The same arithmetic as ``_Run.cpu_batch``: ``min(count, cores)``
        workers with statically ceil-divided chunks, spawn overhead when
        more than one, the LLC contention factor throughout.  Durations
        are non-increasing (full chunks first, then the remainder), so
        ``durations[0]`` is the batch's uncontended critical path.

        Memoized per executor on (level, count, cores): the inputs are
        otherwise fixed per (HPU, workload), and a tuner sweep replays
        the same level batches across hundreds of runs.
        """
        cache = self.x._team_cache
        key = (level, count, self.cores)
        durations = cache.get(key)
        if durations is not None:
            return durations
        cost = self.w.cost_at(level)
        cores = self.cores
        workers = count if count < cores else cores
        contention = contention_factor(self.ws, self.llc, workers, self.kappa)
        chunk = ceil_div(count, workers)
        spawn = self.spawn if workers > 1 else 0.0
        if chunk * workers == count:
            durations = (spawn + chunk * cost * contention,) * workers
        else:
            priced = []
            remaining = count
            for _ in range(workers):
                take = chunk if chunk < remaining else remaining
                if take <= 0:
                    break
                priced.append(spawn + take * cost * contention)
                remaining -= take
            durations = tuple(priced)
        cache[key] = durations
        return durations

    def record_team(self, now: float, batch) -> float:
        """Record one uncontended team batch; returns its fire time.

        Mirrors :class:`TeamBatch` on a free pool: every worker is
        granted at ``now``, completion groups drain in ascending end
        order, and each group records one interval per worker.
        """
        durations = batch[0]
        if durations[0] == durations[-1]:
            # Homogeneous static chunks: one completion group.
            end = now + durations[0]
            self.cpu_iv += [(now, end)] * len(durations)
            if self.tracer is not None:
                self.trace_team(batch, now, ((end, len(durations)),))
            return end
        # Heterogeneous chunks: group workers by identical end time and
        # drain the groups in end order, exactly like TeamBatch._finish
        # events popping off the queue.
        groups = {}
        for duration in durations:
            end = now + duration
            groups[end] = groups.get(end, 0) + 1
        ordered = sorted(groups.items())
        for end, workers in ordered:
            self.cpu_iv += [(now, end)] * workers
        if self.tracer is not None:
            self.trace_team(batch, now, ordered)
        return ordered[-1][0]

    def teams(self, batches) -> list:
        """A program's CPU batches, each with its worker durations."""
        return [
            (self.team_durations(level, count), level, count, prefix)
            for level, _offset, count, prefix in batches
        ]

    def cpu_batches(self, now: float, batches) -> float:
        """Uncontended batches one after another from ``now``; returns
        the last one's end."""
        for batch in self.teams(batches):
            now = self.record_team(now, batch)
        return now

    # -- CPU tracing (traced runs only) ----------------------------------
    def trace_batch_start(self, batch) -> str:
        """The DES's ``cpu_batch`` call: fold the batch into its level's
        counter aggregate; returns the batch's span tag."""
        _durations, level, count, prefix = batch
        agg = self.agg.get(level)
        if agg is None:
            agg = self.agg[level] = [0.0, 0, 0]
        agg[0] += count * self.w.cost_at(level)
        agg[1] += 1
        workers = count if count < self.cores else self.cores
        if contention_factor(self.ws, self.llc, workers, self.kappa) > 1.0:
            agg[2] += 1
        return prefix if level == LEAVES else f"{prefix}:{level}"

    def trace_group(self, tag: str, starts, end: float) -> None:
        """The ``cpu.worker`` row of one completion group."""
        self.rows.append(
            (tag, "cpu.worker", starts[0] if len(starts) == 1 else starts,
             end, self.lane, self.ri, None)
        )

    def trace_batch_end(self, batch, tag: str, start: float,
                        end: float) -> None:
        """The ``cpu.batch`` row, with the executor's shared attr dict."""
        _durations, level, count, _prefix = batch
        workers = count if count < self.cores else self.cores
        cache = self.x._obs_caches[2]
        key = (tag, count, workers)
        attrs = cache.get(key)
        if attrs is None:
            attrs = cache[key] = {
                "level": level,
                "phase": "base" if level == LEAVES else "combine",
                "tasks": count,
                "workers": workers,
            }
        self.rows.append((tag, "cpu.batch", start, end, "cpu", self.ri, attrs))

    def trace_team(self, batch, now: float, groups) -> None:
        """Rows and counters of one uncontended team: its whole-team
        core acquire waits for nothing."""
        tag = self.trace_batch_start(batch)
        self.zero_waits += 1
        for end, workers in groups:
            self.trace_group(tag, (now,) * workers, end)
        self.trace_batch_end(batch, tag, now, groups[-1][0])

    # -- GPU -----------------------------------------------------------
    def gpu_level(self, now: float, level, offset: int, count: int,
                  parallel: bool) -> float:
        """The kernel chain of one level; returns its end time."""
        # gpu_steps is a pure function of its arguments, so whole levels
        # cache on the executor as duration tuples, skipping step
        # construction and kernel pricing on the sweeps that replay
        # identical levels hundreds of times.  A traced replay upgrades
        # its entry to a _TracedLevel carrying the steps' span data.
        traced = self.tracer is not None
        level_cache = self.x._gpu_level_cache
        key = (level, count, offset, parallel)
        durations = level_cache.get(key)
        if durations is None or (traced and type(durations) is tuple):
            steps, priced = self.x._kernel_level(
                level, offset, count, parallel
            )
            if traced:
                durations = _TracedLevel(priced)
                durations.steps = tuple(
                    (step.name, step.items, step.items * step.ops_per_item)
                    for step in steps
                )
            else:
                durations = tuple(priced)
            level_cache[key] = durations
        intervals = self.gpu_iv
        kernel_time = self.gpu_kernel_time
        if not traced:
            for duration in durations:
                end = now + duration
                intervals.append((now, end))
                kernel_time += duration
                now = end
            self.gpu_kernel_time = kernel_time
            return now
        rows = self.dev_rows
        ri = self.ri
        cache = self.x._obs_caches[2]
        ops = 0.0
        for duration, (name, items, step_ops) in zip(
            durations, durations.steps
        ):
            end = now + duration
            intervals.append((now, end))
            kernel_time += duration
            ck = (name, level, items, parallel)
            ent = cache.get(ck)
            if ent is None:
                ent = cache[ck] = (
                    f"kernel:{name}",
                    {"level": level, "items": items, "parallel": parallel},
                )
            rows.append((ent[0], "gpu.kernel", now, end, "gpu", ri, ent[1]))
            ops += step_ops
            now = end
        self.gpu_kernel_time = kernel_time
        if durations:
            self.gpu_incs.append((level, len(durations), ops))
        return now

    def gpu_transfer(self, now: float, words: int, tag: str) -> float:
        """One host↔device transfer; returns its end time."""
        duration = self.x.hpu.transfer_time(words)
        end = now + duration
        self.gpu_iv.append((now, end))
        self.transfer_time += duration
        if self.tracer is not None:
            self.dev_rows.append(
                (tag, "gpu.xfer", now, end, "gpu", self.ri, {"words": words})
            )
            self.xfers.append((tag, words))
        return end

    def chain(self, now: float, chain) -> float:
        """One device chain from ``now``; returns its end time."""
        now = self.gpu_transfer(now, chain.words, "h2d")
        for level, offset, count, parallel in chain.levels:
            now = self.gpu_level(now, level, offset, count, parallel)
        return self.gpu_transfer(now, chain.words, "d2h")

    # -- wrap-up ---------------------------------------------------------
    def finish(self, final_now: float, program, cpu_side: float,
               gpu_side: float):
        from repro.core.schedule.executor import HybridRunResult

        x = self.x
        makespan = x.noise.apply(final_now, self.w.name, *program.noise_key)
        if self.tracer is not None:
            self.flush(final_now, makespan)
        result = HybridRunResult(
            makespan=makespan,
            sequential_ops=x.sequential_ops(),
            gpu_kernel_time=self.gpu_kernel_time,
            transfer_time=self.transfer_time,
            cores=self.cores,
            cpu_side_time=cpu_side,
            gpu_side_time=gpu_side,
            cpu_intervals=tuple(self.cpu_iv),
            gpu_intervals=tuple(self.gpu_iv),
            recovery=(),
        )
        if self.tracer is not None and program.oracle is not None:
            x._note_conformance(self.tracer, self.ri, result, program.oracle)
        return result

    def flush(self, final_now: float, makespan: float) -> None:
        """Record the replayed run on the tracer as ``_Run`` would."""
        x = self.x
        w = self.w
        tracer = self.tracer
        tracer.begin_run(
            f"{x.hpu.name}:{w.name}",
            platform=x.hpu.name,
            workload=w.name,
            n=w.total_elements,
            cores=self.cores,
            fast=x.fast,
        )
        obs = x._obs_metrics(tracer.metrics)
        tracer.span_rows.extend(self.rows)
        for wait in self.waits:
            obs.core_wait.observe_at(obs.lk_wait, wait)
        obs.core_wait.observe_many_at(obs.lk_wait, 0.0, self.zero_waits)
        for level, launches, ops in self.gpu_incs:
            key = obs.gpu_label(level)
            obs.kernel_launches.inc_at(key, launches)
            obs.gpu_ops.inc_at(key, ops)
        for tag, words in self.xfers:
            obs.count_transfer("gpu", tag, words)
        obs.flush_cpu(self.agg)
        obs.runs.inc_at(obs.lk_none)
        obs.makespan.observe_at(obs.lk_run, makespan)
        tracer.end_run(final_now)


def _merge_by_time(pool_rows, device_rows):
    """Interleave the two sides' rows in DES order, or ``None`` to bail.

    Each side appends its rows in its own order at nondecreasing times,
    so the DES order is the merge by time — except where the two sides
    record at the same timestamp, which the engine orders by sequence
    numbers the replay does not track.
    """
    if not device_rows:
        return pool_rows
    merged = []
    append = merged.append
    i = j = 0
    n_pool = len(pool_rows)
    n_dev = len(device_rows)
    while i < n_pool and j < n_dev:
        t_pool = pool_rows[i][3]
        t_dev = device_rows[j][3]
        if t_pool < t_dev:
            append(pool_rows[i])
            i += 1
        elif t_dev < t_pool:
            append(device_rows[j])
            j += 1
        else:
            return None
    merged.extend(pool_rows[i:])
    merged.extend(device_rows[j:])
    return merged


# ----------------------------------------------------------------------
# contended two-stream replay
# ----------------------------------------------------------------------
def _replay_tail_contention(run, cpu_batches, tail_batches,
                            tail_start: float):
    """Replay two batch streams contending for the core pool.

    ``cpu_batches`` starts at 0, ``tail_batches`` at ``tail_start``;
    each is a list of ``(durations, level, count, prefix)`` batches.
    Returns ``(cpu_done, tail_done)`` fire times and appends the busy
    intervals to ``run``'s CPU intervals in DES trace order (and, traced,
    the rows, counter aggregates and core waits) — or ``None`` to bail
    to the DES.

    This is the DES, shrunk to the only state the contended phase has:
    a unit-core FIFO pool and two sequential streams of
    :class:`~repro.sim.batch.TeamBatch` equivalents.  Events carry a
    locally-assigned sequence number, and every push happens in the
    order the engine's callbacks would push it (drain grants before the
    finished batch advances its stream, next batch's start behind
    already-queued same-time events), so the ``(time, seq)`` pop order
    equals the engine's.  The one seq the replay cannot derive is the
    tail's first start, which the DES pushes from a *GPU* event: if any
    pool event shares that exact timestamp, the relative order depends
    on event history we did not track — bail and let the DES decide.
    A batch START pops exactly where the DES calls ``cpu_batch``, so the
    traced per-level aggregates see the same call order.
    """
    intervals = run.cpu_iv
    capacity = run.cores
    traced = run.tracer is not None
    heap = []
    seq = 0
    in_use = 0
    # FIFO unit-core waiters as (duration, batch).  Invariant (all
    # requests are single units): waiters non-empty implies a full
    # pool, so a newly-starting batch never overtakes the queue.
    waiters = deque()
    streams = (cpu_batches, tail_batches)
    index = [0, 0]  # next batch to create, per stream
    done = [0.0, 0.0]
    # batch state: [stream, remaining_workers, completion_groups, spec,
    # start time, tag].  heap entry: (time, seq, kind, batch, payload) —
    # kind 1 is a batch START carrying its durations, kind 0 a
    # completion-group FINISH carrying its end time.  seq is unique, so
    # entries never compare beyond it.

    def start_batch(stream: int, time: float) -> None:
        nonlocal seq
        spec = streams[stream][index[stream]]
        index[stream] += 1
        durations = spec[0]
        heappush(
            heap,
            (time, seq, 1, [stream, len(durations), {}, spec, time, None],
             durations),
        )
        seq += 1

    def grant(duration: float, batch, now: float) -> None:
        nonlocal seq, in_use
        in_use += 1
        end = now + duration
        groups = batch[2]
        group = groups.get(end)
        if group is None:
            groups[end] = group = []
            heappush(heap, (end, seq, 0, batch, end))
            seq += 1
        group.append(now)

    start_batch(0, 0.0)
    start_batch(1, tail_start)  # seq 1: pops first among tail_start ties
    while heap:
        time, sq, kind, batch, payload = heappop(heap)
        if sq == 1 and heap and heap[0][0] == time:
            return None  # tail start ties a pool event: order unknown
        if kind == 1:  # batch START: grant workers in order, queue rest
            whole = not waiters and in_use + len(payload) <= capacity
            if traced:
                batch[5] = run.trace_batch_start(batch[3])
                if whole:  # TeamBatch acquires the whole team at once
                    run.zero_waits += 1
            for duration in payload:
                if not waiters and in_use < capacity:
                    grant(duration, batch, time)
                    if traced and not whole:
                        run.zero_waits += 1
                else:
                    waiters.append((duration, batch))
        else:  # completion-group FINISH at time == payload
            starts = batch[2].pop(payload)
            for start in starts:
                intervals.append((start, payload))
            if traced:
                run.trace_group(batch[5], tuple(starts), payload)
            in_use -= len(starts)
            while waiters and in_use < capacity:
                duration, waiting = waiters.popleft()
                grant(duration, waiting, time)
                if traced:
                    run.waits.append(time - waiting[4])
            batch[1] -= len(starts)
            if batch[1] == 0:  # batch fires: its stream advances
                if traced:
                    run.trace_batch_end(batch[3], batch[5], batch[4], time)
                stream = batch[0]
                if index[stream] < len(streams[stream]):
                    start_batch(stream, time)
                else:
                    done[stream] = time
    return done


# ----------------------------------------------------------------------
# the replay, and its per-strategy entries
# ----------------------------------------------------------------------
def replay(executor, program):
    """Run ``program`` in closed form; its result, or ``None`` to run
    the DES.

    Both sides' batch durations are start-time independent, so the CPU
    side and the GPU tail reduce to precomputed duration lists.  When
    the device chain hands back at or after the CPU side's uncontended
    end, both sides chain in closed form (a tail landing exactly at the
    CPU side's end is safe: every grant happens at that same timestamp
    either way).  A tail that starts earlier contends for the core
    pool, which :func:`_replay_tail_contention` replays — bailing to
    the DES only when its start ties another pool event's timestamp.
    Striped (multi-card) programs always bail: their transfers queue
    FIFO on the shared host link.
    """
    if program.striped:
        return None
    run = _MacroRun(executor, program.cores)
    traced = run.tracer is not None
    cpu_end = gpu_span = 0.0
    if not program.cpu:
        # One device at a time: the chain, then its tail.
        now = 0.0
        for chain in program.chains:
            now = run.chain(now, chain)
        now = run.cpu_batches(now, program.tail)
    elif not program.chains:
        now = cpu_end = run.cpu_batches(0.0, program.cpu)
    else:
        if traced:
            run.dev_rows = []
        cpu_batches = run.teams(program.cpu)
        gpu_span = dev = run.chain(0.0, program.chains[0])
        tail_batches = run.teams(program.tail)
        # Uncontended critical path of the CPU side: each batch fires
        # at start + durations[0] (its longest worker).
        dry_end = 0.0
        for batch in cpu_batches:
            dry_end += batch[0][0]
        if tail_batches and dev < dry_end:
            ends = _replay_tail_contention(
                run, cpu_batches, tail_batches, dev
            )
            if ends is None:
                return None  # ambiguous tie: let the DES order it
            cpu_end, tail_done = ends
        else:
            for batch in cpu_batches:
                cpu_end = run.record_team(cpu_end, batch)
            tail_done = dev
            for batch in tail_batches:
                tail_done = run.record_team(tail_done, batch)
        if traced:
            rows = _merge_by_time(run.rows, run.dev_rows)
            if rows is None:
                return None  # the sides record at one timestamp
            run.rows = run.dev_rows = rows
        now = cpu_end if cpu_end >= tail_done else tail_done
    now = run.cpu_batches(now, program.top)
    return run.finish(now, program, cpu_end, gpu_span)


def try_macro_cpu_only(executor, cores: Optional[int] = None):
    """The replay of ``run_cpu_only``, or ``None`` to run the DES."""
    if not macro_enabled(executor):
        return None
    return replay(
        executor, _program.cpu_only(executor.hpu, executor.workload, cores)
    )


def try_macro_basic(executor, plan):
    """The replay of ``run_basic``, or ``None`` to run the DES."""
    if not macro_enabled(executor):
        return None
    return replay(executor, _program.basic(executor.workload, plan))


def try_macro_advanced(executor, plan):
    """The replay of ``run_advanced`` — or, for a
    :class:`~repro.core.schedule.extensions.ParallelTailPlan`, of
    ``run_advanced_parallel_tail`` — or ``None`` to run the DES."""
    if not macro_enabled(executor):
        return None
    if isinstance(plan, ParallelTailPlan):
        compile_plan = _program.parallel_tail
    else:
        compile_plan = _program.advanced
    return replay(executor, compile_plan(executor.workload, plan))
