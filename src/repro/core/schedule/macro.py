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

Each CPU team, GPU level and transfer is priced once per executor
into a template (:class:`_Team`, :class:`_Level`, :class:`_Xfer`); a
tuner sweep replays the same ones across hundreds of runs.  Under an
active tracer the replay records what the DES records — the run
record, the ``cpu.worker``/``cpu.batch``/``gpu.kernel``/``gpu.xfer``
span rows in DES event order, and the per-level, transfer, core-wait
and run metrics (``sim.events``/``sim.processes`` excepted: they count
DES work, and a replayed run does none) — but keeps the rows compact:
one :class:`~repro.obs.tracer.RunRows` per run, the templates that ran
and their start times.  Templates carry the rows' names, lanes and
attrs (built on a traced run's first use and shared across executors)
and their counter increments.  Everything is held back until the
replay can no longer bail, and a traced run whose two sides complete
something at the exact same timestamp — where the DES order would
depend on event sequence numbers — bails to the DES.

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
from operator import itemgetter
from typing import Dict, Optional

from repro.core.schedule import program as _program
from repro.core.schedule.extensions import ParallelTailPlan
from repro.core.schedule.workload import LEAVES
from repro.cpu.cache import contention_factor
from repro.util.ambient import active_tracer, resilience_session
from repro.util.intmath import ceil_div

_end = itemgetter(1)  # an interval's end


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


#: Row parts and attr dicts shared by every executor's templates: equal
#: parts are one object, whose text an export encodes once (tuners of
#: one sweep price the same batch shapes on different executors).
#: Bounded like the metrics' label-key cache: past the bound, parts go
#: unshared.
_SHARED: Dict[tuple, object] = {}
_SHARED_MAX = 1 << 16


def _shared(key: tuple, make):
    """What ``make()`` builds, shared under ``key``, which must
    determine it."""
    value = _SHARED.get(key)
    if value is None:
        value = make()
        if len(_SHARED) < _SHARED_MAX:
            _SHARED[key] = value
    return value


class _Template:
    """One step of an executor's programs, priced once: the
    ``durations`` the replay chains and, built when a traced run first
    needs them, the ``rows`` it records — the ``(name, category, lane,
    attrs)`` parts of :class:`~repro.obs.tracer.RunRows`."""

    __slots__ = ("durations", "_rows")

    @property
    def rows(self) -> tuple:
        rows = self._rows
        if rows is None:
            rows = self._rows = _shared(self._row_key(), self._make_rows)
        return rows


class _Team(_Template):
    """One CPU team batch.

    ``durations`` are the per-worker times of ``_Run.cpu_batch``:
    ``min(count, cores)`` workers with statically ceil-divided chunks,
    spawn overhead when more than one, the LLC contention factor
    throughout.  They are non-increasing (full chunks first, then the
    remainder), so ``durations[0]`` is the batch's uncontended critical
    path.  The rows are its ``cpu.worker`` and ``cpu.batch`` rows; a
    traced run also counts its ``cpu_batch`` increments (``ops``,
    ``llc``).
    """

    __slots__ = (
        "level", "count", "workers", "prefix", "cpu_name", "ops", "llc",
    )

    def __init__(self, executor, level, count: int, cores: int,
                 prefix: str) -> None:
        w = executor.workload
        spec = executor.hpu.cpu_spec
        cost = w.cost_at(level)
        workers = count if count < cores else cores
        contention = contention_factor(
            w.working_set_bytes(), spec.llc_bytes, workers, spec.cache_kappa
        )
        chunk = ceil_div(count, workers)
        spawn = spec.thread_spawn_overhead if workers > 1 else 0.0
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
        self.durations = durations
        self._rows = None
        self.level = level
        self.count = count
        self.workers = workers
        self.prefix = prefix
        self.cpu_name = spec.name
        self.ops = count * cost
        self.llc = 1 if contention > 1.0 else 0

    def _row_key(self) -> tuple:
        return ("team rows", self.cpu_name, self.prefix, self.level,
                self.count, self.workers)

    def _make_rows(self) -> tuple:
        level = self.level
        tag = self.prefix if level == LEAVES else f"{self.prefix}:{level}"
        # TeamBatch's worker lane: the CPU trace name, else the pool's.
        name = self.cpu_name
        count, workers = self.count, self.workers
        attrs = _shared(("team attrs", level, count, workers), lambda: {
            "level": level,
            "phase": "base" if level == LEAVES else "combine",
            "tasks": count,
            "workers": workers,
        })
        return (
            (tag, "cpu.worker", f"{name or f'{name}.cores'}.workers", None),
            (tag, "cpu.batch", "cpu", attrs),
        )


class _Level(_Template):
    """One GPU level: its kernel steps' durations, one ``gpu.kernel``
    row each."""

    __slots__ = ("level", "parallel", "steps")

    def __init__(self, executor, level, offset: int, count: int,
                 parallel: bool) -> None:
        steps, priced = executor._kernel_level(level, offset, count, parallel)
        self.durations = tuple(priced)
        self._rows = None
        self.level = level
        self.parallel = parallel
        self.steps = steps

    @property
    def ops(self) -> float:
        """The level's kernel ops, summed in step order."""
        ops = 0.0
        for step in self.steps:
            ops += step.items * step.ops_per_item
        return ops

    def _row_key(self) -> tuple:
        return ("level rows", self.level, self.parallel,
                tuple([(step.name, step.items) for step in self.steps]))

    def _make_rows(self) -> tuple:
        level, parallel = self.level, self.parallel
        return tuple(
            (f"kernel:{step.name}", "gpu.kernel", "gpu", _shared(
                ("kernel attrs", level, step.items, parallel),
                lambda items=step.items: {
                    "level": level, "items": items, "parallel": parallel,
                },
            ))
            for step in self.steps
        )


class _Xfer(_Template):
    """One host↔device transfer: one ``gpu.xfer`` row."""

    __slots__ = ("tag", "words")

    def __init__(self, executor, tag: str, words: int) -> None:
        self.durations = (executor.hpu.transfer_time(words),)
        self._rows = None
        self.tag = tag
        self.words = words

    def _row_key(self) -> tuple:
        return ("xfer rows", self.tag, self.words)

    def _make_rows(self) -> tuple:
        return ((self.tag, "gpu.xfer", "gpu", {"words": self.words}),)


class _MacroRun:
    """Closed-form mirror of the executor's per-run state.

    CPU batches travel as :class:`_Team` templates, cached per executor
    on ``(level, count, cores, prefix)``: a tuner sweep replays the same
    batches across hundreds of runs.
    """

    __slots__ = (
        "x", "cores", "cpu_iv", "gpu_iv", "gpu_kernel_time",
        "transfer_time", "tracer", "pool", "device", "agg", "zero_waits",
        "waits",
    )

    def __init__(self, executor, cores: Optional[int] = None) -> None:
        self.x = executor
        self.cores = executor.hpu.cpu_spec.p if cores is None else cores
        # Raw busy intervals in DES record order, as (start, end) pairs
        # like BusyTrace.intervals (the result exposes no tags).  The
        # workers of one completion group share one pair.
        self.cpu_iv = []
        self.gpu_iv = []
        self.gpu_kernel_time = 0.0
        self.transfer_time = 0.0
        self.tracer = tracer = active_tracer()
        if tracer is not None:
            # What the DES would record, held back until finish(): the
            # templates that ran and when, as RunRows' pool and device
            # lists, and the counters' increments.
            self.pool = []
            self.device = []
            self.agg = {}  # level -> [ops, batches, llc events], call order
            self.zero_waits = 0  # core-pool grants with no wait
            self.waits = []  # queued grants' waits, in grant order

    # -- CPU -----------------------------------------------------------
    def teams(self, batches) -> list:
        """A program's CPU batches as :class:`_Team` templates."""
        x = self.x
        cache = x._team_cache
        cores = self.cores
        teams = []
        for level, _offset, count, prefix in batches:
            key = (level, count, cores, prefix)
            team = cache.get(key)
            if team is None:
                team = cache[key] = _Team(x, level, count, cores, prefix)
            teams.append(team)
        return teams

    def count_batch(self, team: _Team) -> None:
        """The DES's ``cpu_batch`` call: fold the team into its level's
        counter aggregate (traced runs only)."""
        agg = self.agg.get(team.level)
        if agg is None:
            agg = self.agg[team.level] = [0.0, 0, 0]
        agg[0] += team.ops
        agg[1] += 1
        agg[2] += team.llc

    def record_team(self, now: float, team: _Team) -> float:
        """Record one uncontended team batch; returns its fire time.

        Mirrors :class:`TeamBatch` on a free pool: every worker is
        granted at ``now`` (a whole-team acquire that waits for
        nothing), completion groups drain in ascending end order, and
        each group records one interval per worker.
        """
        durations = team.durations
        traced = self.tracer is not None
        if traced:
            self.count_batch(team)
            self.zero_waits += 1
        if durations[0] == durations[-1]:
            # Homogeneous static chunks: one completion group.
            end = now + durations[0]
            self.cpu_iv += [(now, end)] * len(durations)
            if traced:
                self.pool.append((team, now))
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
        if traced:
            last = ordered[-1][0]
            for end, workers in ordered:  # the batch fires with the last
                self.pool.append((
                    team, now if workers == 1 else (now,) * workers, end,
                    now if end == last else None,
                ))
        return ordered[-1][0]

    def cpu_batches(self, now: float, batches) -> float:
        """Uncontended batches one after another from ``now``; returns
        the last one's end."""
        for team in self.teams(batches):
            now = self.record_team(now, team)
        return now

    # -- GPU -----------------------------------------------------------
    def gpu_level(self, now: float, level, offset: int, count: int,
                  parallel: bool) -> float:
        """The kernel chain of one level; returns its end time."""
        # gpu_steps is a pure function of its arguments, so whole levels
        # cache on the executor, skipping step construction and kernel
        # pricing on the sweeps that replay identical levels hundreds of
        # times.
        cache = self.x._gpu_level_cache
        key = (level, count, offset, parallel)
        template = cache.get(key)
        if template is None:
            template = cache[key] = _Level(
                self.x, level, offset, count, parallel
            )
        if self.tracer is not None:
            self.device.append((template, now))
        intervals = self.gpu_iv
        kernel_time = self.gpu_kernel_time
        for duration in template.durations:
            end = now + duration
            intervals.append((now, end))
            kernel_time += duration
            now = end
        self.gpu_kernel_time = kernel_time
        return now

    def gpu_transfer(self, now: float, words: int, tag: str) -> float:
        """One host↔device transfer; returns its end time."""
        cache = self.x._xfer_cache
        key = (tag, words)
        template = cache.get(key)
        if template is None:
            template = cache[key] = _Xfer(self.x, tag, words)
        if self.tracer is not None:
            self.device.append((template, now))
        duration = template.durations[0]
        end = now + duration
        self.gpu_iv.append((now, end))
        self.transfer_time += duration
        return end

    def chain(self, now: float, chain) -> float:
        """One device chain from ``now``; returns its end time."""
        now = self.gpu_transfer(now, chain.words, "h2d")
        for level, offset, count, parallel in chain.levels:
            now = self.gpu_level(now, level, offset, count, parallel)
        return self.gpu_transfer(now, chain.words, "d2h")

    def sides_tie(self) -> bool:
        """Whether a pool row and a device row end at the same time.

        Each side records at nondecreasing times, so the DES order of
        the rows is the merge by end time — except where the two sides
        record at one timestamp, which the engine orders by sequence
        numbers the replay does not track.  Every row ends where a busy
        interval does.
        """
        device_ends = set(map(_end, self.gpu_iv))
        return not device_ends.isdisjoint(map(_end, self.cpu_iv))

    # -- wrap-up ---------------------------------------------------------
    def finish(self, final_now: float, program, cpu_side: float,
               gpu_side: float):
        from repro.core.schedule.executor import HybridRunResult

        x = self.x
        makespan = x.noise.apply(
            final_now, x.workload.name, *program.noise_key
        )
        if self.tracer is not None:
            run_index = self.flush(final_now, makespan)
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
            x._note_conformance(self.tracer, run_index, result, program.oracle)
        return result

    def flush(self, final_now: float, makespan: float) -> int:
        """Record the replayed run on the tracer as ``_Run`` would;
        returns its run index."""
        from repro.obs.tracer import RunRows

        x = self.x
        w = x.workload
        tracer = self.tracer
        record = tracer.begin_run(
            f"{x.hpu.name}:{w.name}",
            platform=x.hpu.name,
            workload=w.name,
            n=w.total_elements,
            cores=self.cores,
            fast=x.fast,
        )
        obs = x._obs_metrics(tracer.metrics)
        pool = self.pool
        device = self.device
        lanes = (pool[0][0].rows[0][2], "cpu") if pool else ()
        if device:
            lanes += ("gpu",)
        tracer.span_rows.append(RunRows(record.index, pool, device, lanes))
        observe, lk_wait = obs.core_wait.observe_at, obs.lk_wait
        for wait in self.waits:
            observe(lk_wait, wait)
        obs.core_wait.observe_many_at(lk_wait, 0.0, self.zero_waits)
        xfers = []
        for template, _start in device:
            if type(template) is _Xfer:
                xfers.append(template)
            elif template.durations:
                key = obs.gpu_label(template.level)
                obs.kernel_launches.inc_at(key, len(template.durations))
                obs.gpu_ops.inc_at(key, template.ops)
        for template in xfers:
            obs.count_transfer("gpu", template.tag, template.words)
        obs.flush_cpu(self.agg)
        obs.runs.inc_at(obs.lk_none)
        obs.makespan.observe_at(obs.lk_run, makespan)
        tracer.end_run(final_now)
        return record.index


# ----------------------------------------------------------------------
# contended two-stream replay
# ----------------------------------------------------------------------
_START, _GROUP, _WHOLE = 0, 1, 2  # the contended replay's event kinds


def _replay_tail_contention(run, cpu_teams, tail_teams, tail_start: float):
    """Replay two team streams contending for the core pool.

    ``cpu_teams`` starts at 0, ``tail_teams`` at ``tail_start``; each is
    a list of :class:`_Team` templates.  Returns ``(cpu_done,
    tail_done)`` fire times and appends the busy intervals to ``run``'s
    CPU intervals in DES trace order (and, traced, the pool rows,
    counter aggregates and core waits) — or ``None`` to bail to the DES.

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
    pool_rows = run.pool if traced else None
    heap = []
    seq = 0
    in_use = 0
    # FIFO unit-core waiters, as [duration, batch, count] runs of one
    # batch's consecutive equal-duration workers.  Invariant (all
    # requests are single units): waiters non-empty implies a full
    # pool, so a newly-starting batch never overtakes the queue.
    waiters = deque()
    streams = (cpu_teams, tail_teams)
    index = [0, 0]  # next batch to create, per stream
    done = [0.0, 0.0]
    # batch state: [stream, remaining workers, completion groups, team,
    # start time].  heap entry: (time, seq, kind, batch, end) — kind
    # _START starts a batch, _GROUP finishes the completion group ending
    # at ``end``, _WHOLE finishes a homogeneous team granted whole.
    # seq is unique, so entries never compare beyond it.

    def start_batch(stream: int, time: float) -> None:
        nonlocal seq
        team = streams[stream][index[stream]]
        index[stream] += 1
        batch = [stream, len(team.durations), {}, team, time]
        heappush(heap, (time, seq, _START, batch, None))
        seq += 1

    def grant(duration: float, batch, now: float, workers: int = 1) -> None:
        """Grant ``workers`` equal workers of ``batch`` at ``now``: what
        granting them one by one would push, as they share an end."""
        nonlocal seq, in_use
        in_use += workers
        end = now + duration
        groups = batch[2]
        group = groups.get(end)
        if group is None:
            groups[end] = group = []
            heappush(heap, (end, seq, _GROUP, batch, end))
            seq += 1
        group += [now] * workers

    start_batch(0, 0.0)
    start_batch(1, tail_start)  # seq 1: pops first among tail_start ties
    while heap:
        time, sq, kind, batch, end = heappop(heap)
        if sq == 1 and heap and heap[0][0] == time:
            return None  # tail start ties a pool event: order unknown
        if kind == _START:  # grant workers in order, queue the rest
            durations = batch[3].durations
            if traced:
                run.count_batch(batch[3])
            if not waiters and in_use + len(durations) <= capacity:
                if traced:  # TeamBatch acquires the whole team at once
                    run.zero_waits += 1
                if durations[0] == durations[-1]:
                    # One completion group: what granting each worker
                    # would push, in one push.
                    in_use += len(durations)
                    end = time + durations[0]
                    heappush(heap, (end, seq, _WHOLE, batch, end))
                    seq += 1
                else:
                    for duration in durations:
                        grant(duration, batch, time)
                continue
            free = 0 if waiters else capacity - in_use
            if traced:
                run.zero_waits += free
            if durations[0] == durations[-1]:
                if free:
                    grant(durations[0], batch, time, free)
                waiters.append([durations[0], batch, len(durations) - free])
                continue
            for duration in durations[:free]:
                grant(duration, batch, time)
            for duration in durations[free:]:
                last = waiters[-1] if waiters else None
                if (last is not None and last[1] is batch
                        and last[0] == duration):
                    last[2] += 1
                else:
                    waiters.append([duration, batch, 1])
            continue
        # a completion group finishes at time == end
        if kind == _WHOLE:
            workers = batch[1]
            start = batch[4]
            intervals += [(start, end)] * workers
            if traced:
                pool_rows.append((batch[3], start))
        else:
            starts = batch[2].pop(end)
            workers = len(starts)
            for start in starts:
                intervals.append((start, end))
            if traced:
                pool_rows.append((
                    batch[3], starts[0] if workers == 1 else tuple(starts),
                    end, None if workers < batch[1] else batch[4],
                ))
        in_use -= workers
        while waiters and in_use < capacity:
            duration, waiting, queued = waiters[0]
            granted = capacity - in_use
            if granted < queued:
                waiters[0][2] = queued - granted
            else:
                granted = queued
                waiters.popleft()
            grant(duration, waiting, time, granted)
            if traced:
                run.waits += [time - waiting[4]] * granted
        batch[1] -= workers
        if batch[1] == 0:  # batch fires: its stream advances
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
        cpu_teams = run.teams(program.cpu)
        gpu_span = dev = run.chain(0.0, program.chains[0])
        tail_teams = run.teams(program.tail)
        # Uncontended critical path of the CPU side: each batch fires
        # at start + durations[0] (its longest worker).
        dry_end = 0.0
        for team in cpu_teams:
            dry_end += team.durations[0]
        if tail_teams and dev < dry_end:
            ends = _replay_tail_contention(run, cpu_teams, tail_teams, dev)
            if ends is None:
                return None  # ambiguous tie: let the DES order it
            cpu_end, tail_done = ends
        else:
            for team in cpu_teams:
                cpu_end = run.record_team(cpu_end, team)
            tail_done = dev
            for team in tail_teams:
                tail_done = run.record_team(tail_done, team)
        if run.tracer is not None and run.sides_tie():
            return None  # the sides record at one timestamp
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
