"""Child processes: spawning the program and sampling its memory."""

from __future__ import annotations

import os
import signal
import threading
from typing import Iterable, List

_PAGE = os.sysconf("SC_PAGE_SIZE")


def tree(pid: int) -> List[int]:
    """``pid`` and its live descendants (via /proc/<pid>/task/*/children)."""
    seen: List[int] = []
    todo = [pid]
    while todo:
        current = todo.pop()
        seen.append(current)
        try:
            tasks = os.listdir(f"/proc/{current}/task")
        except OSError:
            continue
        for task in tasks:
            try:
                with open(f"/proc/{current}/task/{task}/children") as handle:
                    todo.extend(int(c) for c in handle.read().split())
            except OSError:
                continue
    return seen


def rss_bytes(pids: Iterable[int]) -> int:
    total = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/statm") as handle:
                total += int(handle.read().split()[1]) * _PAGE
        except (OSError, IndexError, ValueError):
            continue
    return total


class TreeRSS:
    """Samples the summed RSS of a process tree on a background thread;
    :attr:`peak` is the largest sum seen, in bytes."""

    def __init__(self, pid: int, interval_s: float = 0.01) -> None:
        self.pid = pid
        self.interval_s = interval_s
        self.peak = 0
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while True:
            self.sample()
            if self._stop.wait(self.interval_s):
                return

    def sample(self) -> None:
        rss = rss_bytes(tree(self.pid))
        with self._lock:
            self.peak = max(self.peak, rss)

    def __enter__(self) -> "TreeRSS":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()


def program_env(checkout: str) -> dict:
    """Environment for a program process: the checkout's own sources
    first on the path, nothing inherited that would redirect it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(checkout, "src")
    for name in ("REPRO_NO_MACRO", "REPRO_QUEUE_BACKEND", "REPRO_INDEX_FSYNC"):
        env.pop(name, None)
    return env


def kill_tree(proc) -> None:
    """Kill a ``subprocess.Popen`` and every descendant, then reap it."""
    for pid in reversed(tree(proc.pid)):
        try:
            os.kill(pid, signal.SIGKILL)
        except OSError:
            continue
    proc.wait()
