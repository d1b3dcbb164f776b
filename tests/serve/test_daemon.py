"""Job daemon behavior: queueing, caching, policies, shutdown.

Most daemon tests run on the single-threaded fallback executor — jobs
here are tiny sweeps (milliseconds), and the thread executor keeps the
suite fast and independent of the container's fork/spawn abilities.
The process-pool tests at the end cover served-vs-direct identity on
reused workers and concurrent index appends.
"""

import asyncio
import json

import pytest

from repro.serve.daemon import JobDaemon
from repro.serve.jobs import (
    CANCELLED,
    DONE,
    FAILED,
    QUEUED,
    Job,
    PriorityJobQueue,
)
from repro.serve.protocol import ProtocolError, validate_request


def tiny_sweep(**overrides):
    """A sweep request that simulates in milliseconds."""
    data = {
        "kind": "sweep",
        "platform": "HPU1",
        "n": [4096],
        "alphas": [0.5],
        "adaptive": False,
        "include_cpu_fallback": False,
    }
    data.update(overrides)
    return data


def run(coro):
    return asyncio.run(coro)


async def with_daemon(tmp_path, body, **daemon_kwargs):
    daemon_kwargs.setdefault("executor", "thread")
    daemon = JobDaemon(results_dir=tmp_path, **daemon_kwargs)
    await daemon.start()
    try:
        return await body(daemon)
    finally:
        await daemon.shutdown()


class TestSubmit:
    def test_invalid_request_rejected(self, tmp_path):
        async def body(daemon):
            with pytest.raises(ProtocolError):
                await daemon.submit({"kind": "nope"})

        run(with_daemon(tmp_path, body))

    def test_job_runs_to_done_with_artifacts(self, tmp_path):
        async def body(daemon):
            job = await daemon.submit(tiny_sweep())
            job = await daemon.wait(job.job_id, timeout=60)
            assert job.state == DONE
            assert job.cache_hit is False
            assert job.attempts == 1
            manifest = json.loads(open(job.manifest_path).read())
            assert manifest["cache_key"] == job.cache_key
            assert manifest["request"]["platform"] == "HPU1"
            # The run landed in the shared index.
            index = (tmp_path / "index.jsonl").read_text()
            assert job.cache_key in index
            return job

        run(with_daemon(tmp_path, body))

    def test_duplicate_submission_is_a_cache_hit(self, tmp_path):
        async def body(daemon):
            first = await daemon.submit(tiny_sweep())
            first = await daemon.wait(first.job_id, timeout=60)
            assert first.state == DONE
            second = await daemon.submit(tiny_sweep())
            # Instant: no queue, no executor, terminal at submit time.
            assert second.state == DONE
            assert second.cache_hit is True
            assert second.run_id == first.run_id
            assert second.manifest_path == first.manifest_path
            stats = daemon.stats()
            assert stats["cache_hits"] == 1
            assert stats["cache_misses"] == 1
            assert stats["cache_hit_rate"] == 0.5

        run(with_daemon(tmp_path, body))

    def test_cache_survives_daemon_restart(self, tmp_path):
        """The index on disk, not daemon memory, is the cache."""

        async def first(daemon):
            job = await daemon.submit(tiny_sweep())
            await daemon.wait(job.job_id, timeout=60)

        async def second(daemon):
            job = await daemon.submit(tiny_sweep())
            assert job.cache_hit is True

        run(with_daemon(tmp_path, first))
        run(with_daemon(tmp_path, second))

    def test_distinct_requests_do_not_share_cache(self, tmp_path):
        async def body(daemon):
            a = await daemon.submit(tiny_sweep())
            await daemon.wait(a.job_id, timeout=60)
            b = await daemon.submit(tiny_sweep(seed=7))
            assert b.cache_hit is False
            b = await daemon.wait(b.job_id, timeout=60)
            assert b.state == DONE
            assert b.run_id != a.run_id

        run(with_daemon(tmp_path, body))

    def test_submit_after_shutdown_refused(self, tmp_path):
        async def body():
            daemon = JobDaemon(results_dir=tmp_path, executor="thread")
            await daemon.start()
            await daemon.shutdown()
            with pytest.raises(RuntimeError, match="shutting down"):
                await daemon.submit(tiny_sweep())

        run(body())


class TestCancelAndFailure:
    def test_cancel_queued_job(self, tmp_path):
        async def body():
            daemon = JobDaemon(results_dir=tmp_path, executor="thread")
            # Not started: submissions stay queued, so cancel is
            # deterministic.
            daemon._accepting = True
            job = await daemon.submit(tiny_sweep())
            assert job.state == QUEUED
            job = await daemon.cancel(job.job_id)
            assert job.state == CANCELLED
            assert job.attempts == 0
            await daemon.shutdown()

        run(body())

    def test_timeout_marks_job_failed(self, tmp_path, monkeypatch):
        import repro.serve.worker as worker

        def slow_job(payload):
            import time

            time.sleep(1.0)
            return {"outcome": {}}

        monkeypatch.setattr(worker, "execute_job", slow_job)

        async def body(daemon):
            job = await daemon.submit(tiny_sweep(timeout_s=0.05))
            job = await daemon.wait(job.job_id, timeout=60)
            assert job.state == FAILED
            assert "deadline" in job.error
            assert job.attempts == 1

        run(with_daemon(tmp_path, body))

    def test_retry_policy_drives_attempts(self, tmp_path, monkeypatch):
        import repro.serve.worker as worker

        calls = []

        def failing_job(payload):
            calls.append(1)
            raise RuntimeError("injected worker fault")

        monkeypatch.setattr(worker, "execute_job", failing_job)

        async def body(daemon):
            job = await daemon.submit(
                tiny_sweep(retry={"max_retries": 2, "backoff": 0.0})
            )
            job = await daemon.wait(job.job_id, timeout=60)
            assert job.state == FAILED
            assert job.attempts == 3  # 1 try + 2 retries
            assert len(calls) == 3
            assert "injected worker fault" in job.error

        run(with_daemon(tmp_path, body))

    def test_failed_runs_never_cache(self, tmp_path, monkeypatch):
        import repro.serve.worker as worker

        def failing_job(payload):
            raise RuntimeError("injected worker fault")

        monkeypatch.setattr(worker, "execute_job", failing_job)

        async def body(daemon):
            bad = await daemon.submit(tiny_sweep())
            bad = await daemon.wait(bad.job_id, timeout=60)
            assert bad.state == FAILED
            again = await daemon.submit(tiny_sweep())
            assert again.cache_hit is False
            await daemon.wait(again.job_id, timeout=60)

        run(with_daemon(tmp_path, body))

    def test_unknown_job_id(self, tmp_path):
        async def body(daemon):
            with pytest.raises(KeyError):
                daemon.get("missing")

        run(with_daemon(tmp_path, body))


class TestShutdown:
    def test_plain_shutdown_cancels_queued_jobs(self, tmp_path):
        async def body():
            daemon = JobDaemon(results_dir=tmp_path, executor="thread")
            daemon._accepting = True  # accept without a scheduler
            jobs = [await daemon.submit(tiny_sweep(seed=s)) for s in (1, 2)]
            await daemon.shutdown(drain=False)
            assert all(j.state == CANCELLED for j in jobs)

        run(body())

    def test_drain_shutdown_finishes_queued_jobs(self, tmp_path):
        async def body():
            daemon = JobDaemon(results_dir=tmp_path, executor="thread")
            await daemon.start()
            jobs = [await daemon.submit(tiny_sweep(seed=s)) for s in (1, 2)]
            stats = await daemon.shutdown(drain=True)
            assert all(j.state == DONE for j in jobs)
            assert stats["states"] == {"done": 2}

        run(body())

    def test_shutdown_is_idempotent(self, tmp_path):
        async def body():
            daemon = JobDaemon(results_dir=tmp_path, executor="thread")
            await daemon.start()
            await daemon.shutdown()
            await daemon.shutdown()

        run(body())


class TestMetricsAndStats:
    def test_service_metrics_families(self, tmp_path):
        async def body(daemon):
            job = await daemon.submit(tiny_sweep())
            await daemon.wait(job.job_id, timeout=60)
            await daemon.submit(tiny_sweep())  # cache hit
            names = set(daemon.metrics.to_dict())
            assert {
                "serve.submitted",
                "serve.completed",
                "serve.cache",
                "serve.queue_depth",
                "serve.wait_s",
                "serve.exec_s",
                "serve.total_s",
            } <= names
            # serve.run_s was renamed serve.exec_s; the registry holds
            # only the new family, but stats() mirrors the old name for
            # one release so dashboards keep working.
            assert "serve.run_s" not in names
            metrics = daemon.stats()["metrics"]
            assert metrics["serve.run_s"] == metrics["serve.exec_s"]

        run(with_daemon(tmp_path, body))

    def test_write_metrics_file(self, tmp_path):
        async def body(daemon):
            job = await daemon.submit(tiny_sweep())
            await daemon.wait(job.job_id, timeout=60)
            path = daemon.write_metrics(tmp_path / "metrics.json")
            payload = json.loads(path.read_text())
            assert payload["format"] == "repro.obs.metrics/v1"
            assert payload["metrics"]

        run(with_daemon(tmp_path, body))

    def test_snapshot_shape(self, tmp_path):
        async def body(daemon):
            job = await daemon.submit(tiny_sweep(priority=4))
            snap = (await daemon.wait(job.job_id, timeout=60)).snapshot()
            assert snap["kind"] == "sweep"
            assert snap["priority"] == 4
            assert snap["state"] == DONE
            assert snap["run_id"]
            assert snap["request"]["platform"] == "HPU1"
            assert daemon.list_jobs()[0]["job_id"] == job.job_id

        run(with_daemon(tmp_path, body))


class TestPriorityJobQueue:
    def make_job(self, priority=0):
        request = validate_request(tiny_sweep(priority=priority))
        return Job(
            job_id=f"j{priority}-{id(request) % 997}",
            request=request,
            canonical={},
            cache_key="k",
        )

    def test_higher_priority_pops_first(self):
        queue = PriorityJobQueue()
        low, high = self.make_job(0), self.make_job(5)
        queue.push(low)
        queue.push(high)
        assert queue.pop() is high
        assert queue.pop() is low

    def test_fifo_among_equal_priorities(self):
        queue = PriorityJobQueue()
        jobs = [self.make_job(1) for _ in range(3)]
        for job in jobs:
            queue.push(job)
        assert [queue.pop() for _ in jobs] == jobs

    def test_cancelled_entries_are_skipped(self):
        queue = PriorityJobQueue()
        job, other = self.make_job(9), self.make_job(0)
        queue.push(job)
        queue.push(other)
        job.state = CANCELLED
        assert len(queue) == 1
        assert queue.pop() is other
        assert queue.pop() is None

    def test_drain_empties_the_queue(self):
        queue = PriorityJobQueue()
        jobs = [self.make_job(p) for p in (2, 1, 3)]
        for job in jobs:
            queue.push(job)
        drained = queue.drain()
        assert [j.priority for j in drained] == [3, 2, 1]
        assert len(queue) == 0


class TestProcessPoolIdentity:
    def test_warm_worker_matches_direct_runs(self, tmp_path):
        """Two sweeps sharing (platform, n, noise) but not their alpha
        grid run back to back on one reused pool worker, so the second
        starts from the first's tuner memo.  Each served manifest must
        equal a direct run of the same spec, under the same key."""
        from repro.experiments.runner import run_request
        from repro.obs.cli import diff_manifests
        from repro.obs.manifest import RunManifest
        from repro.serve.worker import build_spec

        requests = [
            tiny_sweep(seed=7, alphas=[0.3, 0.5], include_cpu_fallback=True),
            tiny_sweep(seed=7, alphas=[0.5, 0.7], include_cpu_fallback=True),
        ]

        async def body():
            daemon = JobDaemon(
                results_dir=tmp_path / "served",
                concurrency=1,
                executor="process",
            )
            await daemon.start()
            try:
                jobs = []
                for request in requests:
                    job = await daemon.submit(request)
                    jobs.append(await daemon.wait(job.job_id, timeout=300))
                return jobs
            finally:
                await daemon.shutdown()

        jobs = asyncio.run(body())
        assert [j.state for j in jobs] == [DONE, DONE]
        assert not any(j.cache_hit for j in jobs)
        for i, job in enumerate(jobs):
            direct = run_request(
                build_spec(
                    job.request,
                    results_dir=str(tmp_path / "direct"),
                    run_id=f"direct-{i}",
                )
            )
            assert job.cache_key == direct.cache_key
            served_manifest = RunManifest.load(job.manifest_path)
            direct_manifest = RunManifest.load(direct.manifest_path)
            assert diff_manifests(served_manifest, direct_manifest) == []


class TestConcurrentMixedJobs:
    def test_concurrent_mixed_jobs_leave_a_valid_index(self, tmp_path):
        """The acceptance bar: N concurrent mixed-size jobs through the
        process pool all complete, the shared index has no torn lines,
        and queue-depth/wait/cache-hit metrics are recorded."""

        async def body():
            daemon = JobDaemon(
                results_dir=tmp_path, concurrency=2, executor="process"
            )
            await daemon.start()
            try:
                requests = [
                    tiny_sweep(seed=1),
                    tiny_sweep(seed=2, n=[1 << 14]),
                    tiny_sweep(seed=3, n=[1 << 12, 1 << 14]),
                    tiny_sweep(seed=1),  # duplicate of the first
                ]
                jobs = [await daemon.submit(r) for r in requests]
                jobs = [
                    await daemon.wait(j.job_id, timeout=300) for j in jobs
                ]
                assert [j.state for j in jobs] == [DONE] * 4
                stats = daemon.stats()
                return jobs, stats, daemon.executor_kind
            finally:
                await daemon.shutdown()

        jobs, stats, executor_kind = asyncio.run(body())
        # Every line in the shared index parses — concurrent workers
        # must not tear or interleave appends.
        lines = (tmp_path / "index.jsonl").read_text().splitlines()
        entries = [json.loads(line) for line in lines]
        run_ids = {e["run_id"] for e in entries}
        # The duplicate of seed=1 either hit the cache (3 runs) or was
        # submitted while its twin was still in flight and re-ran (4
        # runs — there is deliberately no in-flight dedup); either way
        # the index and metrics must account for every execution.
        hits = sum(1 for j in jobs if j.cache_hit)
        assert len(run_ids) == 4 - hits
        assert stats["cache_hits"] + stats["cache_misses"] == 4
        metrics = set(daemon_metrics_snapshot(stats))
        assert {"serve.queue_depth", "serve.wait_s", "serve.cache"} <= metrics


def daemon_metrics_snapshot(stats):
    return stats["metrics"]
