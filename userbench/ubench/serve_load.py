"""The serve-distinct and serve-shared workloads.

Each measured daemon (:data:`DAEMONS` per run, one after another) is a
``repro-serve serve`` with its defaults (process executor, concurrency
2) on a unix socket over a scratch results directory.  Two client
threads keep two requests in flight, closed loop, for the timed phase;
then one thread replays every completed request once, quietly, to time
cache hits.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional

from ubench import gen
from ubench.layers import (
    PER_LAYER,
    Phase,
    handle_spans,
    layer_totals,
    per_job_serve,
)
from ubench.procs import TreeRSS, kill_tree, program_env
from ubench.stats import median, tail

ENTRY = "import sys; from repro.serve.cli import main; sys.exit(main())"
BOOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "boot.py")
CLIENTS = 2
SETUP_REPEATS = 3
#: Measured daemons per run, each over its own stream of the seed.  A
#: serve-distinct miss's latency ramps with the state served before
#: it, so one prefix's miss median moves with the few jobs around its
#: middle; three prefixes pooled hold it steady.
DAEMONS = {"serve-distinct": 3, "serve-shared": 1}
JOB_TIMEOUT_S = 120.0
START_TIMEOUT_S = 60.0
#: Replay at most this many completed requests.
REPLAY_LIMIT = 200
#: Give up waiting for the stream prefix (see _phase) this long after
#: --seconds.
PREFIX_GRACE_S = 90.0


class Daemon:
    """One daemon process over its own results directory."""

    def __init__(self, checkout: str, work: str, name: str, span_dir=None) -> None:
        from repro.serve.client import ServeClient

        self.work = os.path.join(work, name)
        os.makedirs(self.work)
        # Relative to the checkout: unix socket paths are short-limited.
        self.socket = os.path.relpath(os.path.join(self.work, "s.sock"), checkout)
        results = os.path.join(self.work, "results")
        args = ["serve", "--socket", self.socket, "--results-dir", results]
        if span_dir is None:
            command = [sys.executable, "-c", ENTRY, *args]
        else:
            command = [sys.executable, BOOT, "daemon", span_dir, "repro-serve", *args]
        self.log = open(os.path.join(self.work, "daemon.log"), "wb")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            command, cwd=checkout, env=program_env(checkout),
            stdout=self.log, stderr=subprocess.STDOUT,
        )
        self.client = ServeClient(socket_path=self.socket, timeout_s=30.0)

    def wait_ready(self) -> None:
        from repro.serve.client import ServeError

        deadline = time.perf_counter() + START_TIMEOUT_S
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(f"daemon exited with {self.proc.returncode}")
            try:
                self.client.ping()
                return
            except (OSError, ServeError):
                if time.perf_counter() > deadline:
                    raise RuntimeError("daemon did not answer ping")
                time.sleep(0.01)

    def warm_up(self) -> None:
        """One uncounted job per pool worker, submitted together."""
        errors: List[str] = []

        def one(request):
            try:
                job = self.client.submit(request)
                reply = self.client.result(job["job_id"], timeout=JOB_TIMEOUT_S)
                if reply["job"]["state"] != "done":
                    errors.append(f"warm-up job {reply['job']['state']}: {reply['job'].get('error')}")
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(repr(exc))

        threads = [threading.Thread(target=one, args=(r,))
                   for r in gen.warmup_requests(CLIENTS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        if errors:
            raise RuntimeError(f"warm-up failed: {errors}")

    def stop(self) -> None:
        try:
            self.client.shutdown(drain=False)
            self.proc.wait(timeout=30)
        except Exception:  # noqa: BLE001 - not answering: kill it
            kill_tree(self.proc)
        self.log.close()


def start_daemon(checkout: str, work: str, name: str, span_dir=None):
    """Spawn, wait for ping, warm every pool worker: ``(daemon, seconds)``."""
    daemon = Daemon(checkout, work, name, span_dir)
    try:
        daemon.wait_ready()
        daemon.warm_up()
    except BaseException:
        daemon.stop()
        raise
    return daemon, time.perf_counter() - daemon.started


def expected_digest(request: dict) -> dict:
    """What the manifest of a served sweep must record for ``request``."""
    from repro.experiments.common import default_alpha_grid
    from repro.hpu.platforms import get_platform
    from repro.serve.cache import cache_key
    from repro.serve.protocol import canonical_request, validate_request

    validated = validate_request(request)
    canonical = canonical_request(validated)
    workload = request.get("workload") or "mergesort"
    alphas = request.get("alphas")
    if alphas is None:
        alphas = default_alpha_grid(validated.fast)
    adaptive = validated.adaptive if validated.adaptive is not None else validated.fast
    suffix = "" if workload == "mergesort" else f" ({workload})"
    return {
        "canonical": canonical,
        "cache_key": cache_key(canonical),
        "title": f"Custom operating-point sweep on "
                 f"{get_platform(request['platform']).name}{suffix}",
        "notes": [
            f"grid: {len(request['n'])} sizes x {len(list(alphas))} alphas"
            f" ({'adaptive' if adaptive else 'exhaustive'})"
        ],
    }


def check_job(request: dict, reply: dict, origin: Optional[dict]) -> Optional[str]:
    """Why a served job's outcome is wrong, or ``None``."""
    job, manifest = reply["job"], reply.get("manifest")
    if job["state"] != "done":
        return f"job {job['job_id']} ended {job['state']}: {job.get('error')}"
    if manifest is None:
        return f"job {job['job_id']} has no manifest"
    want = expected_digest(request)
    if job["cache_key"] != want["cache_key"]:
        return f"job {job['job_id']}: snapshot cache_key mismatch"
    if manifest.get("cache_key") != want["cache_key"]:
        return f"job {job['job_id']}: manifest cache_key mismatch"
    if manifest.get("request") != want["canonical"]:
        return f"job {job['job_id']}: manifest request block mismatch"
    result = (manifest.get("results") or {}).get("sweep") or {}
    if result.get("title") != want["title"] or result.get("notes") != want["notes"]:
        return f"job {job['job_id']}: title/notes do not match the request"
    if origin is not None:
        if not job["cache_hit"] or job["run_id"] != origin["run_id"]:
            return f"job {job['job_id']}: repeat did not return run {origin['run_id']}"
    return None


class Load:
    """The closed-loop client of one timed phase."""

    def __init__(self, daemon: Daemon, stream: gen.ServeStream, rss: TreeRSS) -> None:
        self.daemon = daemon
        self.stream = stream
        self.rss = rss
        #: perf_counter and tree peak RSS when the prefix completed.
        self.prefix_end: Optional[float] = None
        self.prefix_rss = 0
        self.lock = threading.Lock()
        self.next_index = 0
        self.done: Dict[int, threading.Event] = {}
        self.records: Dict[int, dict] = {}
        self.failures: List[str] = []

    def _event(self, index: int) -> threading.Event:
        with self.lock:
            return self.done.setdefault(index, threading.Event())

    def _one(self, index: int, item: dict) -> None:
        origin = None
        if item["repeat_of"] is not None:
            # A repeat copies a request only once it has completed.
            self._event(item["repeat_of"]).wait(JOB_TIMEOUT_S)
            origin = self.records.get(item["repeat_of"], {}).get("job")
        client = self.daemon.client
        start = time.perf_counter()
        record = {"index": index, "start": start}
        try:
            job = client.submit(item["request"])
            reply = client.result(job["job_id"], timeout=JOB_TIMEOUT_S)
            record["end"] = time.perf_counter()
            record["job"] = reply["job"]
            if item["repeat_of"] is not None and origin is None:
                problem = f"repeat of failed request {item['repeat_of']}"
            else:
                problem = check_job(item["request"], reply, origin)
        except Exception as exc:  # noqa: BLE001 - every failure counts
            record["end"] = time.perf_counter()
            problem = f"request {index}: {exc!r}"
        record["ok"] = problem is None
        with self.lock:
            self.records[index] = record
            if problem is not None:
                self.failures.append(problem)
            if self.prefix_end is None and all(
                i in self.records for i in range(self.stream.prefix)
            ):
                self.rss.sample()
                self.prefix_end = time.perf_counter()
                self.prefix_rss = self.rss.peak
        self._event(index).set()

    def _client(self, deadline: float) -> None:
        while True:
            now = time.perf_counter()
            with self.lock:
                prefix_taken = self.next_index >= self.stream.prefix
            if now >= deadline and (prefix_taken or now >= deadline + PREFIX_GRACE_S):
                return
            with self.lock:
                index = self.next_index
                self.next_index += 1
                item = self.stream[index]
            self._one(index, item)

    def run(self, seconds: float) -> float:
        start = time.perf_counter()
        # Daemon threads: an interrupted run must not wait them out.
        threads = [threading.Thread(target=self._client, args=(start + seconds,),
                                    daemon=True)
                   for _ in range(CLIENTS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        return time.perf_counter() - start

    def replay(self) -> List[dict]:
        """Resubmit each completed request once, one at a time.

        Each must be a cache hit on a run this phase produced for the
        same cache key.  Two identical requests in flight together both
        miss and both run; the cache then serves the later run, so a
        replay may name either.
        """
        from repro.serve.client import ServeError

        done = [r for _i, r in sorted(self.records.items()) if r["ok"]]
        runs: Dict[str, set] = {}
        for record in done:
            runs.setdefault(record["job"]["cache_key"], set()).add(
                record["job"]["run_id"]
            )
        hits = []
        for record in done[:REPLAY_LIMIT]:
            request = self.stream[record["index"]]["request"]
            start = time.perf_counter()
            try:
                job = self.daemon.client.submit(request)
            except (OSError, ServeError) as exc:
                self.failures.append(f"replay {record['index']}: {exc!r}")
                continue
            end = time.perf_counter()
            expected = runs[record["job"]["cache_key"]]
            if job["state"] != "done" or not job["cache_hit"] or (
                job["run_id"] not in expected
            ):
                self.failures.append(
                    f"replay {record['index']}: not a hit on run "
                    f"{' or '.join(sorted(expected))}"
                )
                continue
            hits.append({"start": start, "end": end, "job": job["job_id"]})
        return hits


def _phase(checkout, work, kind, seed, seconds, name, span_dir=None, part=0) -> dict:
    """One daemon's timed phase and replay.

    The end-to-end figures cover the stream's prefix, the positions
    that deal a whole number of decks, so every run and every commit is
    measured on the same mix of requests.  The timed phase lasts
    ``seconds`` and at least until the prefix has completed.
    """
    stream = gen.ServeStream(seed, kind, gen.catalog_from_program(), part)
    daemon, setup_s = start_daemon(checkout, work, name, span_dir)
    try:
        with TreeRSS(daemon.proc.pid, interval_s=0.05) as rss:
            load = Load(daemon, stream, rss)
            t_start = time.perf_counter()
            elapsed = load.run(seconds)
            t_end = time.perf_counter()
        hits = load.replay()
    finally:
        daemon.stop()
    records = [load.records[i] for i in sorted(load.records)]
    completed = [r for r in records if r["ok"]]
    misses = [r for r in completed if not r["job"]["cache_hit"]]
    prefix = [r for r in completed if r["index"] < stream.prefix]
    if load.prefix_end is None:
        load.failures.append(f"the first {stream.prefix} requests did not complete")
    prefix_s = (load.prefix_end or t_end) - t_start
    return {
        "setup_s": setup_s,
        "window": (t_start, t_end),
        "elapsed_s": elapsed,
        "prefix_positions": len(prefix),
        "prefix_s": prefix_s,
        "records": records,
        "misses": misses,
        "prefix_misses": [r for r in prefix if not r["job"]["cache_hit"]],
        "hits": hits,
        "failures": load.failures,
        "attempted": len(records) + len(hits),
        "rss_mb": rss.peak / 2**20,
        "prefix_rss_mb": (load.prefix_rss or rss.peak) / 2**20,
        "stream": stream.items(len(records)),
    }


def _latency(record: dict) -> float:
    return record["end"] - record["start"]


def run(checkout, work, kind, seed, seconds, trace) -> dict:
    count = DAEMONS[kind]
    setups = []
    for i in range(SETUP_REPEATS - count):
        daemon, setup_s = start_daemon(checkout, work, f"setup-{i}")
        daemon.stop()
        setups.append(setup_s)
    phases = [
        _phase(checkout, work, kind, seed, seconds / count, f"measured-{part}",
               part=part)
        for part in range(count)
    ]
    setups += [p["setup_s"] for p in phases]
    misses = [r for p in phases for r in p["misses"]]
    completed = sum(len([r for r in p["records"] if r["ok"]]) for p in phases)
    miss_latencies = [_latency(r) for r in misses]
    miss_tail = tail(miss_latencies)
    failures = [f for p in phases for f in p["failures"]]
    attempted = sum(p["attempted"] for p in phases)
    figures = {
        "setup_s": median(setups),
        # Over the stream prefixes (see _phase).
        "serve_jobs_per_s": sum(p["prefix_positions"] for p in phases)
        / sum(p["prefix_s"] for p in phases),
        "serve_miss_p50_s": median(
            [_latency(r) for p in phases for r in p["prefix_misses"]]
        ),
        "serve_rss_mb": median([p["prefix_rss_mb"] for p in phases]),
        # Over the whole timed phases.
        "serve_phase_jobs_per_s": completed / sum(p["elapsed_s"] for p in phases),
        "serve_phase_miss_p50_s": median(miss_latencies),
        "serve_phase_rss_mb": max(p["rss_mb"] for p in phases),
        "serve_miss_tail_s": miss_tail["value"] if miss_tail else None,
        "serve_miss_tail_pct": miss_tail["pct"] if miss_tail else None,
        "serve_miss_tail_beyond": miss_tail["beyond"] if miss_tail else None,
        "serve_misses": len(miss_latencies),
        "serve_hit_p50_s": median([_latency(h) for p in phases for h in p["hits"]]),
        "error_rate": len(failures) / max(1, attempted),
    }
    result = {
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:20],
        "figures": figures,
        "metrics": {
            "setup_s": (figures["setup_s"], "s"),
            "op_p50_s": (figures["serve_miss_p50_s"], "s"),
            "ops_per_s": (figures["serve_jobs_per_s"], "1/s"),
            "peak_rss_mb": (figures["serve_rss_mb"], "MB"),
        },
        "inputs": {"streams": [p["stream"] for p in phases], "setup_runs": setups},
        # Per daemon, (stream position, seconds) of each measured miss.
        "prefix_miss_latencies": [
            [(r["index"], _latency(r)) for r in p["prefix_misses"]] for p in phases
        ],
    }
    if trace:
        span_dir = os.path.join(work, "spans")
        spanned = _phase(checkout, work, kind, seed, seconds / count, "spanned",
                         span_dir)
        # The spanned daemon replays the first measured daemon's stream.
        result.update(_layers(Phase(span_dir), spanned, phases[0]["misses"]))
    return result


def _layers(phase: Phase, spanned: dict, plain_misses: List[dict]) -> dict:
    window = spanned["window"]
    completed = [r for r in spanned["records"] if r["ok"]]
    jobs = max(1, len(completed))
    totals = layer_totals(phase, window)
    per_job = {
        name: value / jobs
        for name, value in totals.items()
        if PER_LAYER[name] in ("s", "count") and not name.startswith("import.")
    }
    totals.update(per_job)
    serve = per_job_serve(phase, window)
    for name in ("serve.dispatch_s", "serve.worker.exec_s", "serve.worker.seed_s",
                 "serve.payload_bytes", "serve.payload_growth_bytes_per_job"):
        totals[name] = serve[name]
    misses = spanned["misses"]
    totals["serve.wait_s"] = median(
        [r["job"]["started_unix"] - r["job"]["submitted_unix"] for r in misses]
    )
    # Replay is one request at a time, so its submits pair by order
    # with the daemon's submit handling spans.
    replay_handles = handle_spans(phase, "submit", (window[1], float("inf")))
    hits = spanned["hits"]
    pairs = list(zip(hits, replay_handles[-len(hits):] if hits else []))
    totals["serve.hit_rtt_s"] = median([h["end"] - h["start"] for h in hits])
    totals["serve.transport_s"] = median(
        [(h["end"] - h["start"]) - (s["t1"] - s["t0"]) for h, s in pairs]
    )
    # A miss is attributed where the daemon was handling its submit,
    # queueing it, or executing it; the rest is transport and polling.
    submits = {(s.get("attrs") or {}).get("job"): s
               for s in handle_spans(phase, "submit", window)}
    total = unattributed = 0.0
    for r in misses:
        job = r["job"]
        latency = _latency(r)
        execute = serve["jobs"].get(job["job_id"])
        submit = submits.get(job["job_id"])
        covered = job["started_unix"] - job["submitted_unix"]
        if execute is not None:
            covered += execute["t1"] - execute["t0"]
        if submit is not None:
            covered += submit["t1"] - submit["t0"]
        total += latency
        unattributed += max(0.0, latency - covered)
    totals["bench.unattributed_pct"] = 100.0 * unattributed / total if total else 0.0
    plain_p50 = median([_latency(r) for r in plain_misses])
    spanned_p50 = median([_latency(r) for r in misses])
    totals["bench.span_overhead_pct"] = (
        100.0 * (spanned_p50 / plain_p50 - 1.0) if plain_p50 else 0.0
    )
    return {
        "layer_metrics": {name: (totals.get(name, 0.0), unit)
                          for name, unit in PER_LAYER.items()},
        "span_failures": spanned["failures"],
        "span_attempted": spanned["attempted"],
        "payload_series": serve["payload_series"],
    }
