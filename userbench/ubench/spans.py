"""Span recorder installed into the program's processes from outside.

:func:`install` is called by ``boot.py`` before the program's entry
point runs.  It adds an import hook that

* times the first import of the packages named in :data:`IMPORTS`, and
* wraps, right after their module executes, the public functions named
  in :data:`WRAPS`, each as a span of one layer.

Nothing under ``src/`` changes: the hook patches module attributes,
so callers that look the function up after its module loaded (every
caller in this repo) get the wrapper.  Pool workers forked from an
instrumented process inherit the wrappers.

Every process appends its records to ``<span dir>/spans-<pid>.jsonl``:
one JSON line per span ``{"id", "parent", "layer", "t0", "t1",
"attrs"}`` (seconds on the host's monotonic clock, which all processes
share), and ``{"counter": name, "value", "t"}`` lines for counts
taken without a span.  Parents come from a per-thread stack; coroutine
spans never enter it, so they are always top level.
"""

from __future__ import annotations

import atexit
import functools
import importlib.abc
import importlib.util
import inspect
import json
import os
import sys
import threading
import time

_clock = time.perf_counter

#: Packages whose first import becomes an ``import.*`` span.
IMPORTS = {
    "numpy": "import.numpy",
    "scipy": "import.scipy",
    "repro.experiments.runner": "import.runner",
    "repro.serve": "import.serve",
}


def _attr_events(self, args, kwargs, result, state):
    return {"events": self.events_processed - state}


def _attr_memo(self, args, kwargs, result, state):
    return {"hit": int(self.executor_runs == state)}


def _attr_fallbacks(self, args, kwargs, result, state):
    return {"fallbacks": len(self.notes) - state}


def _attr_bytes(self, args, kwargs, result, state):
    try:
        return {"bytes": os.path.getsize(result)}
    except (OSError, TypeError):
        return {"bytes": 0}


def _attr_hit(self, args, kwargs, result, state):
    return {"hit": int(result is not None)}


def _attr_job(self, args, kwargs, result, state):
    for arg in args:
        if isinstance(arg, dict) and "spec" in arg:
            return {"job": getattr(arg["spec"], "correlation_id", None)}
    return {"job": None}


def _attr_op(self, args, kwargs, result, state):
    message = args[1] if len(args) > 1 else {}
    op = message.get("op") if isinstance(message, dict) else None
    attrs = {"op": op}
    if op == "submit" and isinstance(result, dict) and result.get("job"):
        attrs["job"] = result["job"].get("job_id")
    return attrs


def _state_events(self, args, kwargs):
    return self.events_processed


def _state_runs(self, args, kwargs):
    return self.executor_runs


def _state_notes(self, args, kwargs):
    return len(self.notes)


#: module -> [(attribute path, layer, state_fn, attrs_fn)].  A layer of
#: ``None`` counts calls (``counter`` lines) without opening a span.
WRAPS = {
    "repro.experiments.runner": [
        ("run_request", "experiments", None, None),
    ],
    "repro.experiments.common": [
        ("sweep_best_operating_point", "experiments.point", None, None),
        ("seed_tuner_state", "serve.worker.seed", None, None),
    ],
    "repro.parallel.engine": [
        ("SweepEngine.map", "parallel", _state_notes, _attr_fallbacks),
    ],
    "repro.core.autotune": [
        ("AutoTuner.tune", "autotune", None, None),
        ("AutoTuner.tune_adaptive", "autotune", None, None),
        ("AutoTuner.tune_around_model", "autotune", None, None),
        ("AutoTuner.prefetch", "autotune", None, None),
        ("AutoTuner.evaluate", "autotune.evaluate", _state_runs, _attr_memo),
        (
            "AutoTuner.evaluate_cpu_fallback",
            "autotune.evaluate",
            _state_runs,
            _attr_memo,
        ),
    ],
    "repro.core.model.advanced": [
        ("AdvancedModel.optimize", "model", None, None),
    ],
    "repro.core.schedule.executor": [
        ("ScheduleExecutor.run_cpu_only", "schedule", None, None),
        ("ScheduleExecutor.run_basic", "schedule", None, None),
        ("ScheduleExecutor.run_advanced", "schedule", None, None),
        ("ScheduleExecutor.run_advanced_parallel_tail", "schedule", None, None),
        ("ScheduleExecutor.run_advanced_multi", "schedule", None, None),
    ],
    "repro.core.schedule.macro": [
        ("try_macro_cpu_only", None, None, _attr_hit),
        ("try_macro_basic", None, None, _attr_hit),
        ("try_macro_advanced", None, None, _attr_hit),
    ],
    "repro.sim.engine": [
        ("Simulator.run", "sim", _state_events, _attr_events),
    ],
    "repro.obs.export": [
        ("write_chrome_trace", "obs.export", None, _attr_bytes),
        ("write_metrics", "obs.export", None, _attr_bytes),
    ],
    "repro.obs.manifest": [
        ("RunManifest.write", "obs.manifest", None, None),
    ],
    "repro.workloads.registry": [
        ("WorkloadEntry.workload", "workloads", None, None),
    ],
    "repro.serve.protocol": [
        ("validate_request", "serve.protocol", None, None),
        ("canonical_request", "serve.protocol", None, None),
    ],
    "repro.serve.cache": [
        ("cache_key", "serve.protocol", None, None),
        ("ResultCache.lookup", "serve.cache.lookup", None, _attr_hit),
        ("ResultCache.refresh", "serve.cache.refresh", None, None),
    ],
    "repro.serve.worker": [
        ("execute_job", "serve.worker", None, _attr_job),
    ],
    "repro.serve.daemon": [
        ("JobDaemon._execute", "serve.exec", None, _attr_job),
    ],
    "repro.serve.transport": [
        ("handle_message", "serve.handle", None, _attr_op),
    ],
}


class Recorder:
    """Per-process span buffer; flushes to one file per pid."""

    def __init__(self, directory: str, role: str) -> None:
        self.directory = directory
        self.role = role
        self._lock = threading.Lock()
        self._reset()

    def _reset(self) -> None:
        self.pid = os.getpid()
        self.buffer = []
        self.next_id = 1
        self._local = threading.local()
        self.buffer.append(
            json.dumps({"process": self.role, "pid": self.pid,
                        "ppid": os.getppid(), "t": _clock()})
        )

    def after_fork(self) -> None:
        self.role = "forked-" + self.role.replace("forked-", "")
        self._lock = threading.Lock()
        self._reset()

    # ------------------------------------------------------------------
    def stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def new_id(self) -> int:
        with self._lock:
            span_id = self.next_id
            self.next_id += 1
        return span_id

    def emit(self, record: dict) -> None:
        line = json.dumps(record, separators=(",", ":"))
        with self._lock:
            self.buffer.append(line)

    def counter(self, name: str, value: float = 1) -> None:
        self.emit({"counter": name, "value": value, "t": _clock()})

    def flush(self) -> None:
        with self._lock:
            lines, self.buffer = self.buffer, []
        if not lines or os.getpid() != self.pid:
            return
        path = os.path.join(self.directory, f"spans-{self.pid}.jsonl")
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")

    def maybe_flush(self) -> None:
        # Forked pool workers leave through os._exit, which skips
        # atexit: they flush whenever their stack empties.
        if self.role.startswith("forked-") or len(self.buffer) > 4096:
            self.flush()


RECORDER = None


def _span_wrapper(fn, layer, state_fn, attrs_fn, method):
    rec = RECORDER

    if inspect.iscoroutinefunction(fn):

        @functools.wraps(fn)
        async def async_wrapper(*args, **kwargs):
            self = args[0] if method else None
            state = state_fn(self, args, kwargs) if state_fn else None
            span_id = rec.new_id()
            t0 = _clock()
            result = None
            try:
                result = await fn(*args, **kwargs)
                return result
            finally:
                t1 = _clock()
                attrs = (
                    attrs_fn(self, args, kwargs, result, state)
                    if attrs_fn
                    else None
                )
                rec.emit({"id": span_id, "parent": None, "layer": layer,
                          "t0": t0, "t1": t1, "attrs": attrs})
                rec.maybe_flush()

        return async_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        self = args[0] if method else None
        stack = rec.stack()
        parent = stack[-1] if stack else None
        if layer is None:
            result = fn(*args, **kwargs)
            attrs = attrs_fn(self, args, kwargs, result, None)
            for name, value in attrs.items():
                rec.counter(f"{fn.__name__}.{name}", value)
            return result
        state = state_fn(self, args, kwargs) if state_fn else None
        span_id = rec.new_id()
        stack.append(span_id)
        t0 = _clock()
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            t1 = _clock()
            stack.pop()
            attrs = (
                attrs_fn(self, args, kwargs, result, state)
                if attrs_fn
                else None
            )
            rec.emit({"id": span_id, "parent": parent, "layer": layer,
                      "t0": t0, "t1": t1, "attrs": attrs})
            if not stack:
                rec.maybe_flush()

    return wrapper


def patch_module(module) -> None:
    for path, layer, state_fn, attrs_fn in WRAPS.get(module.__name__, ()):
        owner = module
        *outer, name = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        fn = inspect.getattr_static(owner, name)
        setattr(
            owner,
            name,
            _span_wrapper(fn, layer, state_fn, attrs_fn, method=bool(outer)),
        )


class _TimedLoader(importlib.abc.Loader):
    """Delegates to the real loader, timing and/or patching exec."""

    def __init__(self, loader, layer) -> None:
        self.loader = loader
        self.layer = layer

    def create_module(self, spec):
        return self.loader.create_module(spec)

    def exec_module(self, module):
        # The import system stamped this proxy on the module; put the
        # real loader back before the module's own code can see it.
        module.__loader__ = self.loader
        if module.__spec__ is not None:
            module.__spec__.loader = self.loader
        if self.layer is None:
            self.loader.exec_module(module)
            patch_module(module)
            return
        rec = RECORDER
        stack = rec.stack()
        parent = stack[-1] if stack else None
        span_id = rec.new_id()
        stack.append(span_id)
        t0 = _clock()
        try:
            self.loader.exec_module(module)
            patch_module(module)
        finally:
            t1 = _clock()
            stack.pop()
            rec.emit({"id": span_id, "parent": parent, "layer": self.layer,
                      "t0": t0, "t1": t1, "attrs": {"module": module.__name__}})
            if not stack:
                rec.maybe_flush()


class _Finder(importlib.abc.MetaPathFinder):
    def __init__(self) -> None:
        self._busy = threading.local()
        self._open = set()

    def _layer(self, fullname):
        top = fullname.split(".")[0]
        if top in ("numpy", "scipy"):
            # Only the outermost module of a package tree is timed.
            return None if self._open & {top} else IMPORTS[top]
        return IMPORTS.get(fullname)

    def find_spec(self, fullname, path=None, target=None):
        layer = self._layer(fullname)
        if layer is None and fullname not in WRAPS:
            return None
        if getattr(self._busy, "on", False):
            return None
        self._busy.on = True
        try:
            spec = importlib.util.find_spec(fullname)
        except (ImportError, ValueError):
            return None
        finally:
            self._busy.on = False
        if spec is None or spec.loader is None:
            return None
        top = fullname.split(".")[0]
        if layer is not None and top in ("numpy", "scipy"):
            self._open.add(top)
            spec.loader = _PackageLoader(spec.loader, layer, self, top)
        else:
            spec.loader = _TimedLoader(spec.loader, layer)
        return spec


class _PackageLoader(_TimedLoader):
    def __init__(self, loader, layer, finder, top) -> None:
        super().__init__(loader, layer)
        self.finder = finder
        self.top = top

    def exec_module(self, module):
        try:
            super().exec_module(module)
        finally:
            self.finder._open.discard(self.top)


def _patch_send_bytes() -> None:
    """Count bytes the process pushes through multiprocessing pipes
    (the daemon's job payloads to its pool workers)."""
    from multiprocessing.connection import Connection

    original = Connection.send_bytes
    owner_pid = os.getpid()

    @functools.wraps(original)
    def send_bytes(self, buf, offset=0, size=None):
        if os.getpid() == owner_pid and RECORDER is not None:
            n = memoryview(buf).nbytes if size is None else size
            if n:
                RECORDER.counter("pipe.send_bytes", n)
        return original(self, buf, offset, size)

    Connection.send_bytes = send_bytes


def install(directory: str, role: str) -> Recorder:
    """Start recording in this process (and, via fork, its workers)."""
    global RECORDER
    os.makedirs(directory, exist_ok=True)
    RECORDER = Recorder(directory, role)
    sys.meta_path.insert(0, _Finder())
    os.register_at_fork(after_in_child=RECORDER.after_fork)
    atexit.register(RECORDER.flush)
    if role == "daemon":
        _patch_send_bytes()
    return RECORDER
