"""The asyncio job daemon: queue, cache, executor, metrics.

:class:`JobDaemon` owns the whole job lifecycle:

1.  :meth:`submit` validates the request (:mod:`repro.serve.protocol`),
    canonicalizes it, and consults the content-addressed cache
    (:mod:`repro.serve.cache`).  A hit completes the job instantly —
    state ``done``, ``cache_hit`` marker, artifacts of the original run
    — without touching the queue.
2.  Misses enter the :class:`~repro.serve.jobs.PriorityJobQueue`; a
    scheduler task drains it under an ``asyncio.Semaphore`` bound, so
    at most ``concurrency`` simulations run at once no matter how many
    clients connect.
3.  Each running job is one ``loop.run_in_executor`` call of
    :func:`repro.serve.worker.execute_job` — a process-pool worker by
    default, so ambient tracer/resilience state stays per-job.  Job-level
    retry/timeout policies ride on the resilience layer's own
    dataclasses: ``RetryPolicy.delay()`` drives wall-clock backoff
    between attempts, and ``timeout_s`` (validated through
    ``TimeoutPolicy``) bounds each attempt via ``asyncio.wait_for``.
4.  Completion registers the run with the cache and wakes
    long-pollers.  No tuner state comes back: each reused pool worker
    keeps its own exact tuner memo.

Service metrics land in a :class:`~repro.obs.metrics.MetricsRegistry`
(`serve.submitted`, `serve.completed`, `serve.cache` hit/miss,
`serve.queue_depth`, plus the SLA histograms `serve.wait_s` /
`serve.exec_s` / `serve.total_s` and the `serve.deadline_burn`
counter — `serve.run_s` is the deprecated pre-rename alias of
`serve.exec_s`, still mirrored in :meth:`stats` output for one
release), exported via :meth:`stats` (including a derived per-workload
``sla`` quantile block) and writable as the standard metrics JSON.

Live telemetry (all opt-in, see ``docs/OBSERVABILITY.md``):

- ``telemetry_interval`` starts a :class:`~repro.obs.live.
  TelemetrySampler` snapshotting :meth:`stats` into a flight recorder
  (``flight_dump`` writes it on shutdown or scheduler crash, and the
  transport's ``telemetry`` op streams it to clients).
- ``trace_jobs`` opens daemon spans per job (queued → executing, wall
  clock) carrying the job id as correlation id, has workers return
  their engine traces, and stitches both into one Chrome export.
- ``log_json`` appends structured events (shared with worker + runner
  processes, correlated by job id) to one JSON-lines file.
"""

from __future__ import annotations

import asyncio
import json
import time
import uuid
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.obs.live import (
    SLA_BUCKETS,
    TelemetrySampler,
    sla_block,
    stitch_chrome_trace,
    write_stitched_trace,
)
from repro.obs.log import JsonLogger
from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.tracer import Tracer
from repro.resilience.policies import RetryPolicy
from repro.serve.cache import ResultCache, cache_key
from repro.serve.jobs import (
    CANCELLED,
    DONE,
    FAILED,
    QUEUED,
    RUNNING,
    Job,
    PriorityJobQueue,
    job_table,
)
from repro.serve.protocol import (
    JobRequest,
    ProtocolError,
    canonical_request,
    validate_request,
)


class JobDaemon:
    """A long-lived simulation service over one results tree."""

    def __init__(
        self,
        results_dir: Union[str, Path] = Path("results"),
        concurrency: int = 2,
        executor: str = "process",
        metrics: Optional[MetricsRegistry] = None,
        telemetry_interval: Optional[float] = None,
        telemetry_capacity: int = 256,
        trace_jobs: Union[bool, str, Path, None] = None,
        log_json: Union[str, Path, None] = None,
        flight_dump: Union[str, Path, None] = None,
    ) -> None:
        if concurrency < 1:
            raise ValueError(f"concurrency must be >= 1, got {concurrency}")
        if executor not in ("process", "thread"):
            raise ValueError(
                f"executor must be 'process' or 'thread', got {executor!r}"
            )
        self.results_dir = Path(results_dir)
        self.concurrency = concurrency
        self.executor_kind = executor
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.cache = ResultCache(self.results_dir)
        #: Operational notes (executor fallbacks), newest last.
        self.notes: List[str] = []

        # -- live telemetry (everything opt-in, no-op by default) ------
        self.telemetry_interval = telemetry_interval
        self.sampler: Optional[TelemetrySampler] = None
        if telemetry_interval is not None:
            self.sampler = TelemetrySampler(
                self.telemetry_snapshot,
                interval_s=telemetry_interval,
                capacity=telemetry_capacity,
            )
        self.flight_dump = Path(flight_dump) if flight_dump else None
        #: Collect per-job worker traces (truthy) and, when a path,
        #: write the stitched daemon+jobs Chrome trace there on shutdown.
        self.trace_jobs = bool(trace_jobs)
        self.trace_path = (
            Path(trace_jobs) if isinstance(trace_jobs, (str, Path)) else None
        )
        self.tracer: Optional[Tracer] = (
            Tracer(name="repro-serve-daemon") if self.trace_jobs else None
        )
        self._job_traces: List[dict] = []
        self.log_json = Path(log_json) if log_json else None
        self.log: Optional[JsonLogger] = (
            JsonLogger(self.log_json, "daemon") if self.log_json else None
        )
        self._t0 = time.time()

        self._queue = PriorityJobQueue()
        self._jobs: Dict[str, Job] = {}
        self._executor = None
        self._scheduler_task: Optional[asyncio.Task] = None
        self._wakeup: Optional[asyncio.Event] = None
        self._semaphore: Optional[asyncio.Semaphore] = None
        self._running_tasks: Dict[str, asyncio.Task] = {}
        self._accepting = False
        self._started = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Create the executor and the scheduler task."""
        if self._started:
            return
        self._wakeup = asyncio.Event()
        self._semaphore = asyncio.Semaphore(self.concurrency)
        self._executor = self._make_executor()
        self._accepting = True
        self._started = True
        if self.sampler is not None:
            self.sampler.start()
        if self.log is not None:
            self.log.event(
                "serve.daemon.started",
                concurrency=self.concurrency,
                executor=self.executor_kind,
                results_dir=str(self.results_dir),
            )
        self._scheduler_task = asyncio.get_running_loop().create_task(
            self._scheduler()
        )

    def _make_executor(self):
        from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor

        if self.executor_kind == "process":
            try:
                pool = ProcessPoolExecutor(max_workers=self.concurrency)
                # Fail now, not at the first job: restricted containers
                # refuse to fork/spawn only once work is submitted.
                pool.submit(int, 0).result(timeout=60)
                return pool
            except Exception as exc:  # noqa: BLE001 - any pool failure
                self.notes.append(
                    f"process pool unavailable ({exc!r}); falling back "
                    f"to a single-threaded executor"
                )
                self.executor_kind = "thread"
        # Ambient tracer/resilience state is process-global, so
        # the thread fallback must never run two jobs at once.
        self.concurrency = 1
        self._semaphore = asyncio.Semaphore(1)
        return ThreadPoolExecutor(max_workers=1)

    async def shutdown(self, drain: bool = False) -> dict:
        """Stop the daemon.

        ``drain=True`` finishes every queued and running job first;
        ``drain=False`` (the default) cancels the queue and waits only
        for jobs already on the executor (worker tasks cannot be
        interrupted mid-simulation).  Returns a final :meth:`stats`
        snapshot.  Idempotent.
        """
        self._accepting = False
        if not self._started or not drain:
            # Never-started daemons cannot drain (there is no executor);
            # their queue is cancelled unconditionally.
            for job in self._queue.drain():
                job.error = "daemon shutting down"
                job.finish(CANCELLED)
                self._complete_metrics(job)
            self._observe_queue_depth()
        if not self._started:
            self._finalize_telemetry()
            return self.stats()
        while len(self._queue) or self._running_tasks:
            pending = [
                t for t in self._running_tasks.values() if not t.done()
            ]
            if pending:
                await asyncio.gather(*pending, return_exceptions=True)
            else:
                # Queued work exists but nothing is running yet: yield
                # so the scheduler task can dispatch it.
                await asyncio.sleep(0.01)
        if self._scheduler_task is not None:
            self._scheduler_task.cancel()
            try:
                await self._scheduler_task
            except asyncio.CancelledError:
                pass
            self._scheduler_task = None
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
        self._started = False
        self._finalize_telemetry()
        if self.log is not None:
            self.log.event(
                "serve.daemon.stopped",
                jobs=len(self._jobs),
                uptime_s=round(time.time() - self._t0, 3),
            )
        return self.stats()

    def _finalize_telemetry(self) -> None:
        """Stop the sampler and write the opted-in artifacts (idempotent)."""
        if self.sampler is not None:
            self.sampler.stop()
        if self.flight_dump is not None and self.sampler is not None:
            self.sampler.recorder.dump(self.flight_dump)
        if self.trace_path is not None and self.tracer is not None:
            write_stitched_trace(
                self.trace_path, self.tracer, self._job_traces
            )

    # ------------------------------------------------------------------
    # client operations
    # ------------------------------------------------------------------
    async def submit(self, request_data: dict) -> Job:
        """Validate, cache-check and enqueue one request.

        Raises :class:`ProtocolError` on a malformed request and
        ``RuntimeError`` once the daemon stops accepting work.
        """
        if not self._accepting:
            raise RuntimeError("daemon is shutting down")
        request = validate_request(request_data)
        # Traced workers record the same canonical the runner computes
        # for a traced run — keep the submit-time lookup key identical,
        # or job tracing would turn every lookup into a cache miss.
        canonical = canonical_request(request, traced=self.trace_jobs)
        key = cache_key(canonical)
        job = Job(
            job_id=uuid.uuid4().hex[:12],
            request=request,
            canonical=canonical,
            cache_key=key,
        )
        self._jobs[job.job_id] = job
        self.metrics.counter(
            "serve.submitted", "jobs accepted by the daemon"
        ).inc(kind=request.kind)
        if self.log is not None:
            self.log.event(
                "serve.job.submitted",
                correlation_id=job.job_id,
                kind=request.kind,
                workload=request.workload or "mergesort",
                cache_key=key,
                priority=request.priority,
            )

        entry = self.cache.lookup(key)
        if entry is not None:
            job.cache_hit = True
            job.run_id = entry.get("run_id")
            manifest = self.cache.manifest_path(entry)
            job.manifest_path = str(manifest)
            report = manifest.parent / "report.md"
            if report.is_file():
                job.report_path = str(report)
            job.finish(DONE)
            self.metrics.counter(
                "serve.cache", "content-addressed cache verdicts"
            ).inc(outcome="hit")
            self._complete_metrics(job)
            return job
        self.metrics.counter(
            "serve.cache", "content-addressed cache verdicts"
        ).inc(outcome="miss")

        self._queue.push(job)
        self._observe_queue_depth()
        if self._wakeup is not None:
            self._wakeup.set()
        return job

    def get(self, job_id: str) -> Job:
        job = self._jobs.get(job_id)
        if job is None:
            raise KeyError(f"no such job: {job_id!r}")
        return job

    async def wait(
        self, job_id: str, timeout: Optional[float] = None
    ) -> Job:
        """Long-poll: return once the job is terminal (or on timeout,
        with whatever state it is in)."""
        job = self.get(job_id)
        if job.terminal:
            return job
        try:
            await asyncio.wait_for(job.done_event().wait(), timeout)
        except asyncio.TimeoutError:
            pass
        return job

    async def cancel(self, job_id: str) -> Job:
        """Cancel a job.  Queued jobs cancel immediately; running jobs
        get a best-effort cancellation request (the executor task is
        not interruptible, but retries stop)."""
        job = self.get(job_id)
        if job.state == QUEUED:
            job.error = "cancelled by client"
            job.finish(CANCELLED)
            self._observe_queue_depth()
            self._complete_metrics(job)
        elif job.state == RUNNING:
            job.cancel_requested = True
        return job

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def list_jobs(self) -> List[dict]:
        return job_table(self._jobs)

    def stats(self) -> dict:
        """Queue/cache/latency counters for clients and operators."""
        states: Dict[str, int] = {}
        for job in self._jobs.values():
            states[job.state] = states.get(job.state, 0) + 1
        cache = self.metrics.counter(
            "serve.cache", "content-addressed cache verdicts"
        )
        hits = cache.value(outcome="hit")
        misses = cache.value(outcome="miss")
        total = hits + misses
        metrics = self.metrics.summary()
        if "serve.exec_s" in metrics:
            # Deprecated alias: ``serve.run_s`` was renamed
            # ``serve.exec_s``; mirrored here for one release.
            metrics["serve.run_s"] = metrics["serve.exec_s"]
        return {
            "accepting": self._accepting,
            "concurrency": self.concurrency,
            "executor": self.executor_kind,
            "queue_depth": len(self._queue),
            "running": len(self._running_tasks),
            "states": states,
            "cache_hits": hits,
            "cache_misses": misses,
            "cache_hit_rate": (hits / total) if total else 0.0,
            "uptime_s": time.time() - self._t0,
            "sla": sla_block(self.metrics),
            "telemetry": self.telemetry_stats(),
            "notes": list(self.notes),
            "results_dir": str(self.results_dir),
            "metrics": metrics,
        }

    def telemetry_snapshot(self) -> dict:
        """One sampler frame: the full :meth:`stats` block (reads only —
        sampling cannot perturb any job or simulated result)."""
        return self.stats()

    def telemetry_stats(self) -> dict:
        """Sampler/flight-recorder state for ``stats()`` and the
        ``telemetry`` op."""
        if self.sampler is None:
            return {"enabled": False}
        recorder = self.sampler.recorder
        return {
            "enabled": True,
            "interval_s": self.sampler.interval_s,
            "capacity": recorder.capacity,
            "frames": len(recorder),
            "last_seq": recorder.last_seq,
            "dropped": recorder.dropped(),
        }

    def telemetry_frames(self, after_seq: int = 0) -> List[dict]:
        """Buffered sampler frames newer than ``after_seq`` (empty when
        the sampler is off)."""
        if self.sampler is None:
            return []
        return self.sampler.recorder.snapshots(after_seq)

    def stitched_trace(self) -> dict:
        """The combined daemon + per-job Chrome trace document."""
        tracer = self.tracer if self.tracer is not None else Tracer(
            name="repro-serve-daemon"
        )
        return stitch_chrome_trace(tracer, self._job_traces)

    def write_metrics(self, path: Union[str, Path]) -> Path:
        """Dump the service metrics registry as standard metrics JSON."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "format": "repro.obs.metrics/v1",
            "metrics": self.metrics.to_dict(),
        }
        path.write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n"
        )
        return path

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _observe_queue_depth(self) -> None:
        self.metrics.gauge(
            "serve.queue_depth", "jobs waiting for an executor slot"
        ).set(float(len(self._queue)))

    @staticmethod
    def _sla_labels(job: Job) -> Dict[str, str]:
        """The (kind, workload, figure) label set of the SLA metrics."""
        request = job.request
        if request.kind == "figure":
            figure = "+".join(request.experiments)
        else:
            figure = "sweep"
        return {
            "kind": request.kind,
            "workload": request.workload or "mergesort",
            "figure": figure,
        }

    def _sla_hist(self, name: str, help: str) -> Histogram:
        """Seconds-scale SLA histogram (first creation pins the buckets)."""
        return self.metrics.histogram(name, help, buckets=SLA_BUCKETS)

    def _observe_sla(self, job: Job) -> None:
        """Record wait/exec/total latencies for one completed job.

        Cache hits count too (with ~zero wait and exec): the SLA a
        client experiences includes the jobs the cache absorbed.
        """
        labels = self._sla_labels(job)
        finished = job.finished_unix or time.time()
        started = job.started_unix if job.started_unix is not None else finished
        self._sla_hist(
            "serve.wait_s", "seconds spent queued before starting"
        ).observe(max(0.0, started - job.submitted_unix), **labels)
        self._sla_hist(
            "serve.exec_s", "executor seconds per completed job"
        ).observe(max(0.0, finished - started), **labels)
        self._sla_hist(
            "serve.total_s", "submit-to-done seconds per completed job"
        ).observe(max(0.0, finished - job.submitted_unix), **labels)

    def _trace_job(self, job: Job) -> None:
        """Record the daemon-side spans of one finished job.

        Two wall-clock spans (seconds since daemon start): the queued
        interval on the ``daemon.queue`` lane and the executing interval
        on ``daemon.exec``, both carrying the job id as
        ``correlation_id`` — the same id stamped into the worker's
        engine trace, which is what the stitcher correlates on.
        """
        if self.tracer is None:
            return
        t0 = self._t0
        finished = (job.finished_unix or time.time()) - t0
        submitted = max(0.0, job.submitted_unix - t0)
        started = (
            job.started_unix - t0 if job.started_unix is not None else finished
        )
        attrs = {
            "correlation_id": job.job_id,
            "state": job.state,
            "cache_hit": job.cache_hit,
            **self._sla_labels(job),
        }
        self.tracer.span(
            f"job {job.job_id} queued",
            "daemon",
            submitted,
            max(started, submitted),
            device="daemon.queue",
            **attrs,
        )
        if job.started_unix is not None:
            self.tracer.span(
                f"job {job.job_id} executing",
                "daemon",
                started,
                max(finished, started),
                device="daemon.exec",
                **attrs,
            )

    def _complete_metrics(self, job: Job) -> None:
        self.metrics.counter(
            "serve.completed", "jobs reaching a terminal state"
        ).inc(state=job.state)
        if job.state == DONE:
            self._observe_sla(job)
        self._trace_job(job)
        if self.log is not None:
            self.log.event(
                "serve.job.finished",
                correlation_id=job.job_id,
                state=job.state,
                cache_hit=job.cache_hit,
                run_id=job.run_id,
                attempts=job.attempts,
                error=job.error,
            )

    async def _scheduler(self) -> None:
        """Drain the queue into the executor, bounded by the semaphore.

        A scheduler crash dumps the flight recorder first — the black
        box exists precisely for the runs that end badly."""
        try:
            await self._scheduler_loop()
        except asyncio.CancelledError:
            raise
        except BaseException:
            self.dump_flight()
            raise

    def dump_flight(self) -> Optional[Path]:
        """Write the flight recorder to ``flight_dump`` now (one final
        sample included); returns the path, or ``None`` when telemetry
        or the dump path is off."""
        if self.sampler is None or self.flight_dump is None:
            return None
        self.sampler.sample_once()
        return self.sampler.recorder.dump(self.flight_dump)

    async def _scheduler_loop(self) -> None:
        assert self._wakeup is not None and self._semaphore is not None
        while True:
            await self._wakeup.wait()
            self._wakeup.clear()
            while True:
                await self._semaphore.acquire()
                job = self._queue.pop()
                if job is None:
                    self._semaphore.release()
                    break
                task = asyncio.get_running_loop().create_task(
                    self._run_job(job)
                )
                self._running_tasks[job.job_id] = task
                task.add_done_callback(
                    lambda _t, job_id=job.job_id: self._running_tasks.pop(
                        job_id, None
                    )
                )

    async def _run_job(self, job: Job) -> None:
        assert self._semaphore is not None
        try:
            job.state = RUNNING
            job.started_unix = time.time()
            self._observe_queue_depth()
            if self.log is not None:
                self.log.event(
                    "serve.job.dispatched",
                    correlation_id=job.job_id,
                    wait_s=round(job.wait_s, 6),
                )

            retry = RetryPolicy(
                max_retries=int(job.request.retry.get("max_retries", 0)),
                backoff=float(job.request.retry.get("backoff", 0.0)),
            )
            from repro.serve.worker import build_spec, execute_job

            spec = build_spec(
                job.request,
                results_dir=str(self.results_dir),
                run_id=f"{time.strftime('%Y%m%d-%H%M%S')}-{job.job_id}",
                correlation_id=job.job_id,
                collect_trace=self.trace_jobs,
                log_json=str(self.log_json) if self.log_json else None,
            )
            last_error: Optional[str] = None
            for attempt in range(retry.max_retries + 1):
                if job.cancel_requested:
                    job.error = last_error or "cancelled by client"
                    job.finish(CANCELLED)
                    self._complete_metrics(job)
                    return
                if attempt:
                    await asyncio.sleep(retry.delay(attempt))
                job.attempts += 1
                try:
                    reply = await self._execute(
                        execute_job,
                        {"spec": spec},
                        timeout=job.request.timeout_s,
                    )
                except asyncio.TimeoutError:
                    last_error = (
                        f"job exceeded its {job.request.timeout_s}s "
                        f"deadline (attempt {job.attempts})"
                    )
                    self.metrics.counter(
                        "serve.deadline_burn",
                        "attempts that blew their wall-clock deadline",
                    ).inc(**self._sla_labels(job))
                    continue
                except Exception as exc:  # noqa: BLE001 - job isolation
                    last_error = f"{type(exc).__name__}: {exc}"
                    continue
                self._absorb(job, reply)
                job.finish(DONE)
                self._complete_metrics(job)
                return
            job.error = last_error or "job failed"
            job.finish(FAILED)
            self._complete_metrics(job)
        finally:
            self._semaphore.release()
            if self._wakeup is not None:
                self._wakeup.set()

    async def _execute(self, fn, payload, timeout: Optional[float]):
        future = asyncio.get_running_loop().run_in_executor(
            self._executor, fn, payload
        )
        if timeout is None:
            return await future
        return await asyncio.wait_for(future, timeout)

    def _absorb(self, job: Job, reply: dict) -> None:
        """Fold one worker reply into daemon state."""
        outcome = reply["outcome"]
        job.run_id = outcome["run_id"]
        job.manifest_path = outcome["manifest_path"]
        job.report_path = outcome["report_path"]
        if self.trace_jobs and reply.get("trace") is not None:
            self._job_traces.append(
                {"correlation_id": job.job_id, "snapshot": reply["trace"]}
            )
        # The run's own manifest.write already appended the index line;
        # registering it here just saves the next lookup a re-read.
        if outcome.get("cache_key") and outcome.get("manifest_path"):
            manifest = Path(outcome["manifest_path"])
            try:
                rel = manifest.resolve().relative_to(
                    self.results_dir.resolve()
                )
            except ValueError:
                rel = manifest
            self.cache.record(
                {
                    "cache_key": outcome["cache_key"],
                    "run_id": outcome["run_id"],
                    "manifest": rel.as_posix(),
                }
            )


__all__ = ["JobDaemon", "JobRequest", "ProtocolError"]
