"""Trace analytics: utilization, transfers, bubbles, critical path.

Raw spans (:mod:`repro.obs.tracer`) answer "what happened when"; this
module answers the paper's *scheduling* questions: how busy was each
device at each recursion level, where did time go on the PCIe link, and
which chain of spans actually bounded the makespan.  The same questions
a Cilkview-style scalability analyzer asks of a work-stealing runtime,
asked here of the simulated HPU schedule.

Everything is pure read-side arithmetic over recorded rows: analyzing a
trace can never change simulated results, and the outputs are exactly
deterministic (no wall clock, no randomness), so two identical-seed
runs produce byte-identical analysis blocks — which is what lets
``repro-obs diff`` treat any analysis delta as a real behavioural
difference.

Entry point: :func:`analyze` → :class:`TraceAnalysis` (per-device
:class:`DeviceUsage`, per-(device, level) :class:`LevelUsage`, transfer
accounting, :class:`Bubble` idle gaps, and the critical path), with
``to_dict`` / ``summary`` / ``render_table`` renderers.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs.tracer import RunRows, Tracer, expand_row, iter_rows
from repro.sim.trace import merge_intervals
from repro.util.tables import format_table

#: Span categories that represent device *work* (occupancy, critical
#: path).  The run lane and marker categories are bookkeeping, not work.
WORK_CATEGORIES = frozenset(
    {"cpu.batch", "cpu.worker", "gpu.kernel", "gpu.xfer"}
)

#: Transfer category (PCIe link accounting).
TRANSFER_CATEGORY = "gpu.xfer"

#: Relative tolerance for "touching" spans: float dust below this
#: fraction of the horizon neither breaks a critical-path chain nor
#: counts as a bubble.
_REL_EPS = 1e-9


@dataclass(frozen=True)
class DeviceUsage:
    """Occupancy of one device lane over the analysis horizon."""

    device: str
    spans: int  # number of work spans on the lane
    busy: float  # union of busy intervals (concurrent counted once)
    work: float  # sum of span durations (concurrent counted per span)
    idle: float  # horizon - busy
    utilization: float  # busy / horizon (0 for a zero horizon)

    def to_dict(self) -> dict:
        return {
            "busy": self.busy,
            "device": self.device,
            "idle": self.idle,
            "spans": self.spans,
            "utilization": self.utilization,
            "work": self.work,
        }


@dataclass(frozen=True)
class LevelUsage:
    """Busy time of one device at one recursion level.

    ``level`` is the stringified level attribute — ``"0"``…``"k-1"``
    for internal levels, ``"leaves"`` for the base case — so the key
    survives JSON round trips unchanged.
    """

    device: str
    level: str
    spans: int
    busy: float  # sum of span durations at the level
    utilization: float  # busy / horizon

    def to_dict(self) -> dict:
        return {
            "busy": self.busy,
            "device": self.device,
            "level": self.level,
            "spans": self.spans,
            "utilization": self.utilization,
        }


@dataclass(frozen=True)
class Bubble:
    """One idle gap between two busy intervals on a device lane."""

    device: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {
            "device": self.device,
            "duration": self.duration,
            "end": self.end,
            "start": self.start,
        }


@dataclass(frozen=True)
class CriticalStep:
    """One span on the critical path."""

    name: str
    category: str
    device: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {
            "category": self.category,
            "device": self.device,
            "duration": self.duration,
            "end": self.end,
            "name": self.name,
            "start": self.start,
        }


@dataclass(frozen=True)
class TraceAnalysis:
    """The full analysis of one run (or one whole timeline).

    ``horizon`` is the makespan the analysis normalizes against;
    ``critical_time`` the summed duration of the critical-path spans and
    ``critical_coverage`` its fraction of the horizon — coverage well
    below 1 means the makespan is bounded by *waiting* (dependency
    bubbles), not by any single chain of work.
    """

    label: str
    horizon: float
    devices: Tuple[DeviceUsage, ...]
    levels: Tuple[LevelUsage, ...]
    transfer_time: float
    transfer_count: int
    transfer_words: int
    transfers_by_tag: Tuple[Tuple[str, float, int], ...]  # (tag, time, n)
    bubbles: Tuple[Bubble, ...]
    critical_path: Tuple[CriticalStep, ...]
    critical_time: float
    critical_coverage: float

    # -- derived -------------------------------------------------------
    def device(self, name: str) -> Optional[DeviceUsage]:
        for usage in self.devices:
            if usage.device == name:
                return usage
        return None

    def bubble_time(self, device: Optional[str] = None) -> float:
        """Total idle-gap time (optionally for one device lane)."""
        return sum(
            b.duration
            for b in self.bubbles
            if device is None or b.device == device
        )

    # -- renderers -----------------------------------------------------
    def to_dict(self) -> dict:
        """Full JSON-ready form (keys sorted for byte-stable output)."""
        return {
            "bubbles": [b.to_dict() for b in self.bubbles],
            "critical_coverage": self.critical_coverage,
            "critical_path": [s.to_dict() for s in self.critical_path],
            "critical_time": self.critical_time,
            "devices": [d.to_dict() for d in self.devices],
            "horizon": self.horizon,
            "label": self.label,
            "levels": [lv.to_dict() for lv in self.levels],
            "transfer_count": self.transfer_count,
            "transfer_time": self.transfer_time,
            "transfer_words": self.transfer_words,
            "transfers_by_tag": [
                {"count": n, "tag": tag, "time": t}
                for tag, t, n in self.transfers_by_tag
            ],
        }

    def summary(self) -> dict:
        """Compact block for manifests and ``repro-obs diff``.

        Everything here is deterministic for a fixed seed, so two
        identical runs produce byte-identical summaries; per-level
        utilization is keyed ``"device:level"`` for flat diffing.
        """
        return {
            "bubble_count": len(self.bubbles),
            "bubble_time": {
                d.device: self.bubble_time(d.device) for d in self.devices
            },
            "critical_coverage": self.critical_coverage,
            "critical_steps": len(self.critical_path),
            "critical_time": self.critical_time,
            "horizon": self.horizon,
            "label": self.label,
            "levels": {
                f"{lv.device}:{lv.level}": lv.utilization
                for lv in self.levels
            },
            "transfer_count": self.transfer_count,
            "transfer_time": self.transfer_time,
            "utilization": {
                d.device: d.utilization for d in self.devices
            },
        }

    def render_table(self, max_rows: int = 12) -> str:
        """Human-readable report (fixed-width tables, no dependencies)."""
        parts: List[str] = [
            f"trace analysis: {self.label or '(unnamed)'} — horizon "
            f"{self.horizon:g} ops"
        ]
        if not self.devices:
            parts.append("(no work spans)")
            return "\n".join(parts)
        parts.append("")
        parts.append(
            format_table(
                ["device", "spans", "busy", "idle", "util", "bubbles",
                 "bubble time"],
                [
                    [
                        d.device,
                        d.spans,
                        d.busy,
                        d.idle,
                        d.utilization,
                        sum(1 for b in self.bubbles if b.device == d.device),
                        self.bubble_time(d.device),
                    ]
                    for d in self.devices
                ],
                title="device occupancy",
            )
        )
        if self.levels:
            parts.append("")
            parts.append(
                format_table(
                    ["device", "level", "spans", "busy", "util"],
                    [
                        [lv.device, lv.level, lv.spans, lv.busy,
                         lv.utilization]
                        for lv in self.levels
                    ],
                    title="per-level busy time",
                )
            )
        if self.transfer_count:
            parts.append("")
            parts.append(
                format_table(
                    ["direction", "transfers", "time"],
                    [[tag, n, t] for tag, t, n in self.transfers_by_tag],
                    title=(
                        f"transfers: {self.transfer_count} moving "
                        f"{self.transfer_words} words in "
                        f"{self.transfer_time:g} ops"
                    ),
                )
            )
        if self.critical_path:
            parts.append("")
            shown = self.critical_path[:max_rows]
            title = (
                f"critical path: {len(self.critical_path)} spans, "
                f"{self.critical_time:g} ops "
                f"({self.critical_coverage:.1%} of horizon)"
            )
            if len(self.critical_path) > max_rows:
                title += f" — first {max_rows} shown"
            parts.append(
                format_table(
                    ["#", "span", "category", "device", "start", "dur"],
                    [
                        [i, s.name, s.category, s.device, s.start,
                         s.duration]
                        for i, s in enumerate(shown)
                    ],
                    title=title,
                )
            )
        return "\n".join(parts)


# ----------------------------------------------------------------------
# span collection
# ----------------------------------------------------------------------
_Flat = Tuple[str, str, float, float, str, Optional[dict]]


def _collect(
    tracer: Tracer, run: Optional[int]
) -> Tuple[str, float, List[_Flat]]:
    """``(label, horizon, flat work spans)`` for one run or the timeline.

    Spans come back run-relative for a single run and absolute for the
    whole timeline, restricted to :data:`WORK_CATEGORIES`.
    """
    runs = tracer.runs
    if run is not None:
        if not 0 <= run < len(runs):
            raise IndexError(
                f"run index {run} outside [0, {len(runs)})"
            )
        record = runs[run]
        label = record.label
    else:
        record = None
        label = tracer.name
    spans: List[_Flat] = []
    horizon = 0.0
    rows = tracer.span_rows
    if record is not None:  # expand no other run's compact rows
        rows = [r for r in rows if type(r) is not RunRows or r.run == run]
    for row in iter_rows(rows):
        row_run = row[5]
        if record is not None:
            if row_run != run:
                continue
            offset = 0.0  # keep the run's own clock
        else:
            offset = 0.0 if row_run is None else runs[row_run].offset
        for name, cat, start, end, device, _r, attrs in expand_row(
            row, offset
        ):
            if cat not in WORK_CATEGORIES:
                continue
            spans.append((name, cat, start, end, device, attrs))
            if end > horizon:
                horizon = end
    if record is not None and record.duration is not None:
        horizon = max(horizon, record.duration)
    return label, horizon, spans


# ----------------------------------------------------------------------
# critical path
# ----------------------------------------------------------------------
def _critical_path(
    spans: Sequence[_Flat], horizon: float
) -> List[CriticalStep]:
    """Backward walk through the span DAG from the latest-ending span.

    The simulator gives no explicit edges, so dependencies are inferred
    the way a trace reader does: the predecessor of a span is the
    latest-ending span that finishes no later than it starts (within
    float tolerance) — the operation whose completion released it.  All
    tie-breaks are deterministic (end, then start, then device, then
    name), so the path is byte-stable across identical runs.
    """
    if not spans:
        return []
    eps = horizon * _REL_EPS
    # Deterministic ordering by (end, start, device, name).
    ordered = sorted(spans, key=lambda s: (s[3], s[2], s[4], s[0]))
    ends = [s[3] for s in ordered]
    cur_idx = len(ordered) - 1
    current = ordered[cur_idx]
    path = [current]
    # Zero-length spans sharing a timestamp satisfy each other's
    # predecessor test, so the walk must never revisit a span or it
    # cycles between them forever.
    visited = {cur_idx}
    while current[2] > eps:
        # Latest-ending span finishing by current.start (+eps); the sort
        # order makes "last index" the deterministic winner of end ties.
        idx = bisect_right(ends, current[2] + eps) - 1
        pred_idx = -1
        while idx >= 0:
            if idx not in visited and ordered[idx][3] <= current[2] + eps:
                pred_idx = idx
                break
            idx -= 1
        if pred_idx < 0:
            break  # a gap the trace cannot explain: stop the chain
        visited.add(pred_idx)
        cur_idx = pred_idx
        current = ordered[cur_idx]
        path.append(current)
    path.reverse()
    return [
        CriticalStep(
            name=name, category=cat, device=device, start=start, end=end
        )
        for name, cat, start, end, device, _attrs in path
    ]


# ----------------------------------------------------------------------
# the analyzer
# ----------------------------------------------------------------------
def analyze(
    tracer: Tracer,
    run: Optional[int] = None,
    min_bubble: float = 0.0,
) -> TraceAnalysis:
    """Analyze one run (``run`` = index into ``tracer.runs``) or, with
    ``run=None``, the whole timeline.

    ``min_bubble`` drops idle gaps shorter than the given length (in
    ops); gaps below the float-dust tolerance are always dropped.
    Degenerate inputs (no spans, zero horizon) produce a well-formed
    empty analysis rather than an error.
    """
    label, horizon, spans = _collect(tracer, run)
    if not spans or horizon <= 0.0:
        return TraceAnalysis(
            label=label,
            horizon=horizon,
            devices=(),
            levels=(),
            transfer_time=0.0,
            transfer_count=0,
            transfer_words=0,
            transfers_by_tag=(),
            bubbles=(),
            critical_path=(),
            critical_time=0.0,
            critical_coverage=0.0,
        )
    eps = max(min_bubble, horizon * _REL_EPS)

    by_device: Dict[str, List[Tuple[float, float]]] = {}
    work: Dict[str, float] = {}
    counts: Dict[str, int] = {}
    level_busy: Dict[Tuple[str, str], List[float]] = {}
    xfer_time = 0.0
    xfer_count = 0
    xfer_words = 0
    xfer_by_tag: Dict[str, List[float]] = {}
    for name, cat, start, end, device, attrs in spans:
        by_device.setdefault(device, []).append((start, end))
        work[device] = work.get(device, 0.0) + (end - start)
        counts[device] = counts.get(device, 0) + 1
        level = None if attrs is None else attrs.get("level")
        if level is not None:
            entry = level_busy.setdefault((device, str(level)), [0.0, 0])
            entry[0] += end - start
            entry[1] += 1
        if cat == TRANSFER_CATEGORY:
            xfer_time += end - start
            xfer_count += 1
            if attrs is not None:
                xfer_words += int(attrs.get("words", 0))
            tag_entry = xfer_by_tag.setdefault(name, [0.0, 0])
            tag_entry[0] += end - start
            tag_entry[1] += 1

    devices: List[DeviceUsage] = []
    bubbles: List[Bubble] = []
    for device in sorted(by_device):
        merged = merge_intervals(by_device[device])
        busy = sum(e - s for s, e in merged)
        devices.append(
            DeviceUsage(
                device=device,
                spans=counts[device],
                busy=busy,
                work=work[device],
                idle=horizon - busy,
                utilization=busy / horizon,
            )
        )
        for (s0, e0), (s1, _e1) in zip(merged, merged[1:]):
            if s1 - e0 > eps:
                bubbles.append(Bubble(device=device, start=e0, end=s1))

    levels = [
        LevelUsage(
            device=device,
            level=level,
            spans=int(entry[1]),
            busy=entry[0],
            utilization=entry[0] / horizon,
        )
        for (device, level), entry in sorted(
            level_busy.items(),
            key=lambda kv: (kv[0][0], _level_sort_key(kv[0][1])),
        )
    ]

    critical = _critical_path(spans, horizon)
    critical_time = sum(s.duration for s in critical)
    return TraceAnalysis(
        label=label,
        horizon=horizon,
        devices=tuple(devices),
        levels=tuple(levels),
        transfer_time=xfer_time,
        transfer_count=xfer_count,
        transfer_words=xfer_words,
        transfers_by_tag=tuple(
            (tag, entry[0], int(entry[1]))
            for tag, entry in sorted(xfer_by_tag.items())
        ),
        bubbles=tuple(bubbles),
        critical_path=tuple(critical),
        critical_time=critical_time,
        critical_coverage=critical_time / horizon,
    )


def _level_sort_key(level: str) -> Tuple[int, float, str]:
    """Numeric levels in order, non-numeric ones (``"leaves"``) after."""
    try:
        return (0, float(level), level)
    except ValueError:
        return (1, 0.0, level)


def longest_run(tracer: Tracer) -> Optional[int]:
    """Index of the run with the largest duration (ties: first wins).

    The longest run is the headline subject for manifest-level analysis
    — it is the run whose schedule dominates the sweep's wall time.
    """
    best = None
    best_duration = -1.0
    for record in tracer.runs:
        duration = record.duration if record.duration is not None else 0.0
        if duration > best_duration:
            best = record.index
            best_duration = duration
    return best
