"""Exporters: Chrome trace-event JSON, metrics JSON, ASCII timelines.

Three ways to look at a :class:`~repro.obs.tracer.Tracer`:

- :func:`chrome_trace` / :func:`write_chrome_trace` — the Trace Event
  Format consumed by ``chrome://tracing`` and https://ui.perfetto.dev.
  One *process* per tracer, one *thread lane* per device; executor runs
  appear as enclosing spans on a dedicated ``runs`` lane carrying their
  annotations (platform, workload, auto-tune operating point).
  Timestamps are **simulated ops**, not microseconds — load the file
  and read the axis in ops.
- :func:`metrics_json` / :func:`write_metrics` — a flat JSON snapshot
  of the metrics registry (per-device / per-level counters, gauges,
  histograms).
- :func:`prometheus_text` — the same registry in Prometheus text
  exposition format (stdlib only), served by the daemon's ``metrics``
  op; :func:`parse_prometheus_text` is the strict format checker the
  test suite and CI validate the rendering with.
- :func:`ascii_report` — per-device occupancy lanes (via
  :func:`repro.sim.timeline.render_timeline`) plus a per-level busy-time
  chart (via :func:`repro.util.asciiplot.ascii_plot`), for terminals.
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import (
    RunRows,
    Tracer,
    expand_row as _expand_row,
    iter_rows as _iter_rows,
)

#: Lane name used for run-level spans in the Chrome export.
RUNS_LANE = "runs"

#: Schema-ish contract pinned by tests: keys every complete event has.
COMPLETE_EVENT_KEYS = ("name", "cat", "ph", "ts", "dur", "pid", "tid", "args")


def _jsonable(value):
    """Coerce attribute values to JSON-safe primitives."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


def chrome_trace(tracer: Tracer) -> dict:
    """Render the tracer as a Trace Event Format document (dict).

    The result is directly ``json.dump``-able and loadable by
    ``chrome://tracing`` / Perfetto.  Lane (``tid``) ids are assigned in
    first-seen device order, with ``runs`` always lane 0.
    """
    pid = 1
    tids: Dict[str, int] = {RUNS_LANE: 0}
    events: List[dict] = []

    def tid_for(device: str) -> int:
        lane = device or "untagged"
        tid = tids.get(lane)
        if tid is None:
            tids[lane] = tid = len(tids)
        return tid

    for run in tracer.runs:
        duration = run.duration if run.duration is not None else 0.0
        args = {k: _jsonable(v) for k, v in run.attrs.items()}
        args["run"] = run.index
        events.append(
            {
                "name": run.label,
                "cat": "run",
                "ph": "X",
                "ts": run.offset,
                "dur": duration,
                "pid": pid,
                "tid": tids[RUNS_LANE],
                "args": args,
            }
        )
    # Batch-flush the tracer's flat row buffers directly: no Span
    # materialization for the ~100k rows a traced sweep records.  Rows
    # with a run index are run-relative; their run's offset is applied
    # here.  Team rows (tuple-of-starts, see tracer.span_many) expand.
    runs = tracer.runs
    for row in _iter_rows(tracer.span_rows):
        row_run = row[5]
        offset = 0.0 if row_run is None else runs[row_run].offset
        for name, cat, start, end, device, run, attrs in _expand_row(
            row, offset
        ):
            if attrs:
                args = {k: _jsonable(v) for k, v in attrs.items()}
            else:
                args = {}
            if run is not None:
                args["run"] = run
            events.append(
                {
                    "name": name,
                    "cat": cat,
                    "ph": "X",
                    "ts": start,
                    "dur": end - start,
                    "pid": pid,
                    "tid": tid_for(device),
                    "args": args,
                }
            )
    for name, cat, start, _end, device, run, attrs in tracer.instant_rows:
        if attrs:
            args = {k: _jsonable(v) for k, v in attrs.items()}
        else:
            args = {}
        events.append(
            {
                "name": name,
                "cat": cat,
                "ph": "i",
                "ts": start if run is None else runs[run].offset + start,
                "s": "p",  # process-scoped marker
                "pid": pid,
                "tid": tid_for(device),
                "args": args,
            }
        )

    metadata = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "tid": 0,
            "args": {"name": f"repro tracer {tracer.name!r} (ts in sim ops)"},
        }
    ]
    for lane, tid in tids.items():
        metadata.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": pid,
                "tid": tid,
                "args": {"name": lane},
            }
        )
        metadata.append(
            {
                "name": "thread_sort_index",
                "ph": "M",
                "pid": pid,
                "tid": tid,
                "args": {"sort_index": tid},
            }
        )

    return {
        "traceEvents": metadata + events,
        "displayTimeUnit": "ms",
        "otherData": {
            "tracer": tracer.name,
            "time_unit": "simulated ops (1.0 == one CPU-core scalar op)",
            "runs": len(tracer.runs),
            "spans": len(tracer.spans),
        },
    }


_DUR = ", \"dur\": "


def _iter_chrome_trace(tracer: Tracer):
    """Yield the text of ``json.dumps(chrome_trace(tracer))`` in pieces.

    Byte-identical to the dict form, without building it: one pre-pass
    over the rows assigns the lanes (the metadata events precede the
    data events), then every row is encoded from cached parts — a
    per-(name, category, lane) head and a per-attrs-dict ``args``
    prefix — and a worker-team row whose starts coincide becomes one
    string repeated.  A replayed run's :class:`~repro.obs.tracer.
    RunRows` is encoded straight from its templates: their texts once
    per template, the ``run`` suffix once per run, and no row tuples.
    Durations repeat across a sweep, so their texts are memoized.
    """
    dumps = json.dumps
    pid = 1
    tids: Dict[str, int] = {RUNS_LANE: 0}
    spans = 0
    for row in tracer.span_rows:
        if type(row) is RunRows:
            spans += row.spans
            if all((lane or "untagged") in tids for lane in row.lanes):
                continue
            lanes = [r[4] for r in row.rows()]
        else:
            spans += len(row[2]) if type(row[2]) is tuple else 1
            lanes = (row[4],)
        for lane in lanes:
            lane = lane or "untagged"
            if lane not in tids:
                tids[lane] = len(tids)
    for row in tracer.instant_rows:
        lane = row[4] or "untagged"
        if lane not in tids:
            tids[lane] = len(tids)

    yield '{"traceEvents": ['
    yield dumps(
        {
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "tid": 0,
            "args": {"name": f"repro tracer {tracer.name!r} (ts in sim ops)"},
        }
    )
    for lane, tid in tids.items():
        yield ", " + dumps(
            {"name": "thread_name", "ph": "M", "pid": pid, "tid": tid,
             "args": {"name": lane}}
        )
        yield ", " + dumps(
            {"name": "thread_sort_index", "ph": "M", "pid": pid, "tid": tid,
             "args": {"sort_index": tid}}
        )

    runs = tracer.runs
    for run in runs:
        args = {k: _jsonable(v) for k, v in run.attrs.items()}
        args["run"] = run.index
        yield ", " + dumps(
            {
                "name": run.label,
                "cat": "run",
                "ph": "X",
                "ts": run.offset,
                "dur": run.duration if run.duration is not None else 0.0,
                "pid": pid,
                "tid": 0,
                "args": args,
            }
        )

    # (name, cat, device) -> (head up to "ts", lane text from "pid" to
    # "args"); id(attrs) -> args text (without the closing brace when
    # the row carries a run index); id(template rows) -> their (head,
    # lane text + args text) pairs.  Attr dicts and row parts are
    # shared across rows and alive for the whole export, so their ids
    # are stable keys.
    heads: Dict[tuple, tuple] = {}
    run_args: Dict[int, str] = {}
    free_args: Dict[int, str] = {}
    texts: Dict[int, Optional[tuple]] = {}
    # Row times are floats (run offsets are); float.__repr__ is what
    # json.dumps writes for a finite one.
    frepr = float.__repr__
    durations: Dict[float, str] = {}
    known_duration = durations.get

    def duration_text(dur: float) -> str:
        if dur - dur == 0.0:
            text = frepr(dur)
            if dur:  # 0.0 and -0.0 are one key: neither is memoized
                durations[dur] = text
            return text
        return dumps(dur)

    def head_of(name: str, cat: str, device: str) -> tuple:
        key = (name, cat, device)
        head = heads.get(key)
        if head is None:
            head = heads[key] = (
                ", {\"name\": " + dumps(name) + ", \"cat\": " + dumps(cat)
                + ", \"ph\": \"X\", \"ts\": ",
                ", \"pid\": 1, \"tid\": " + str(tids[device or "untagged"])
                + ", \"args\": ",
            )
        return head

    def run_prefix(attrs) -> Optional[str]:
        """The args text of a row in a run up to its index; ``None``
        when the attrs carry a ``run`` key of their own."""
        args = run_args.get(id(attrs))
        if args is None:
            if not attrs:
                args = "{\"run\": "
            elif "run" in attrs:  # the index overwrites in place
                return None
            else:
                body = dumps({k: _jsonable(v) for k, v in attrs.items()})
                args = body[:-1] + ", \"run\": "
            run_args[id(attrs)] = args
        return args

    def texts_of(rows: tuple) -> Optional[tuple]:
        """(head, lane text + args prefix) per ``(name, cat, lane,
        attrs)`` of a template's rows, or ``None`` if any needs the
        generic path; memoized by the rows' id."""
        out = []
        for name, cat, lane, attrs in rows:
            args = run_prefix(attrs)
            if args is None:
                texts[id(rows)] = None
                return None
            head, lane_text = head_of(name, cat, lane)
            out.append((head, lane_text + args))
        texts[id(rows)] = out = tuple(out)
        return out

    def times(ts: float, dur: float) -> str:
        """The text from an event's ``ts`` value to its ``dur`` value."""
        return (
            f"{frepr(ts) if ts - ts == 0.0 else dumps(ts)}{_DUR}"
            f"{known_duration(dur) or duration_text(dur)}"
        )

    def record_texts(record, offset: float) -> bool:
        """Append the event texts of a :class:`RunRows` to the pieces,
        in row order and in parts (head, times, lane and args, run
        suffix); ``False``, appending nothing, if the record needs the
        generic path."""
        mark = len(pieces)
        tail = f"{record.run}}}}}"
        device_ends = []
        device_parts = []
        for template, now in record.device:
            parts = texts.get(id(template.rows), False)
            if parts is False:
                parts = texts_of(template.rows)
            if parts is None:
                return False
            for duration, (head, mid) in zip(template.durations, parts):
                end = now + duration
                ts = offset + now
                device_parts.append(
                    (head, times(ts, offset + end - ts), mid, tail)
                )
                device_ends.append(end)
                now = end
        extend = pieces.extend
        i = 0
        n_device = len(device_ends)
        for item in record.pool:
            team = item[0]
            parts = texts.get(id(team.rows), False)
            if parts is False:
                parts = texts_of(team.rows)
            if parts is None:
                del pieces[mark:]
                return False
            (worker_head, worker_mid), (batch_head, batch_mid) = parts
            if len(item) == 2:
                # A whole team: its worker and batch rows share times.
                start = item[1]
                end = start + team.durations[0]
                while i < n_device and device_ends[i] <= end:
                    extend(device_parts[i])
                    i += 1
                ts = offset + start
                shared = times(ts, offset + end - ts)
                extend((worker_head, shared, worker_mid, tail)
                       * len(team.durations))
                extend((batch_head, shared, batch_mid, tail))
                continue
            _team, starts, end, batch = item
            while i < n_device and device_ends[i] <= end:
                extend(device_parts[i])
                i += 1
            end = offset + end
            if type(starts) is not tuple:
                starts = (starts,)
            if starts.count(starts[0]) == len(starts):
                ts = offset + starts[0]
                extend((worker_head, times(ts, end - ts), worker_mid, tail)
                       * len(starts))
            else:
                for start in starts:
                    ts = offset + start
                    extend((worker_head, times(ts, end - ts), worker_mid,
                            tail))
            if batch is not None:
                ts = offset + batch
                extend((batch_head, times(ts, end - ts), batch_mid, tail))
        for parts in device_parts[i:]:
            extend(parts)
        return True

    offsets = [run.offset for run in runs]
    pieces: List[str] = []
    append = pieces.append
    for row in tracer.span_rows:
        if type(row) is RunRows:
            if record_texts(row, offsets[row.run]):
                if len(pieces) >= 16384:  # about 4096 events in parts
                    yield "".join(pieces)
                    pieces.clear()
                continue
            rows = row.rows()
        else:
            rows = (row,)
        for name, cat, start, end, device, run, attrs in rows:
            head, lane = head_of(name, cat, device)
            if run is None:
                offset = 0.0
                args = free_args.get(id(attrs))
                if args is None:
                    args = free_args[id(attrs)] = dumps(
                        {k: _jsonable(v) for k, v in attrs.items()}
                        if attrs else {}
                    ) + "}"
            else:
                offset = offsets[run]
                args = run_prefix(attrs)
                if args is None:
                    full = {k: _jsonable(v) for k, v in attrs.items()}
                    full["run"] = run
                    args = dumps(full) + "}"
                else:
                    args = f"{args}{run}}}}}"
            if type(start) is tuple:
                end = offset + end
                if start.count(start[0]) == len(start):
                    ts = offset + start[0]
                    append(f"{head}{times(ts, end - ts)}{lane}{args}"
                           * len(start))
                else:
                    for s in start:
                        ts = offset + s
                        append(f"{head}{times(ts, end - ts)}{lane}{args}")
            else:
                ts = offset + start
                append(f"{head}{times(ts, offset + end - ts)}{lane}{args}")
            if len(pieces) >= 4096:
                yield "".join(pieces)
                pieces.clear()
    if pieces:
        yield "".join(pieces)

    for name, cat, start, _end, device, run, attrs in tracer.instant_rows:
        yield ", " + dumps(
            {
                "name": name,
                "cat": cat,
                "ph": "i",
                "ts": start if run is None else runs[run].offset + start,
                "s": "p",
                "pid": pid,
                "tid": tids[device or "untagged"],
                "args": (
                    {k: _jsonable(v) for k, v in attrs.items()}
                    if attrs else {}
                ),
            }
        )

    yield "], \"displayTimeUnit\": \"ms\", \"otherData\": " + dumps(
        {
            "tracer": tracer.name,
            "time_unit": "simulated ops (1.0 == one CPU-core scalar op)",
            "runs": len(runs),
            "spans": spans,
        }
    ) + "}\n"


def write_chrome_trace(path: Union[str, Path], tracer: Tracer) -> Path:
    """Write ``json.dumps(chrome_trace(tracer))`` plus a newline to
    ``path``, streamed in chunks; returns the path.

    The file is byte-identical to serializing the :func:`chrome_trace`
    document, but neither the per-event dicts nor the whole string are
    ever held in memory (a traced ``fig8 --fast`` writes ~100k events).
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for chunk in _iter_chrome_trace(tracer):
            fh.write(chunk)
    return path


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
def metrics_json(source: Union[Tracer, MetricsRegistry]) -> dict:
    """Flat JSON document for a registry (or a tracer's registry).

    An empty registry is a valid input and yields a well-formed document
    with empty ``summary``/``metrics`` maps.  The document is serialized
    key-sorted by :func:`write_metrics`, so identical runs produce
    byte-identical metrics files.
    """
    registry = source.metrics if isinstance(source, Tracer) else source
    return {
        "format": "repro.obs.metrics/v1",
        "summary": registry.summary(),
        "metrics": registry.to_dict(),
    }


def write_metrics(
    path: Union[str, Path], source: Union[Tracer, MetricsRegistry]
) -> Path:
    """Serialize :func:`metrics_json` to ``path``; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(metrics_json(source), indent=2, sort_keys=True) + "\n"
    )
    return path


# ----------------------------------------------------------------------
# Prometheus text exposition (stdlib only)
# ----------------------------------------------------------------------
#: Prefix applied to every exported family name.
PROM_PREFIX = "repro_"

_PROM_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_PROM_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")
_PROM_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>.*)\})?"
    r" (?P<value>\S+)$"
)
_PROM_LABEL_PAIR_RE = re.compile(
    r'(?P<key>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<value>(?:[^"\\]|\\.)*)"'
)


def _prom_name(name: str, prefix: str = PROM_PREFIX) -> str:
    """Mangle a dotted repro metric name into a Prometheus one.

    ``serve.wait_s`` → ``repro_serve_wait_s``.  Any character outside
    the Prometheus name alphabet becomes ``_``.
    """
    mangled = prefix + re.sub(r"[^a-zA-Z0-9_:]", "_", name)
    if not _PROM_NAME_RE.match(mangled):  # pragma: no cover - paranoia
        raise ValueError(f"cannot mangle metric name {name!r}")
    return mangled


def _prom_escape(value: str) -> str:
    return (
        value.replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")
    )


def _prom_value(value: float) -> str:
    value = float(value)
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    return repr(value)


def _prom_labels(labels: Dict[str, str], extra: str = "") -> str:
    """Render a label dict as ``{k="v",...}`` (empty string if none)."""
    parts = [
        f'{key}="{_prom_escape(str(labels[key]))}"'
        for key in sorted(labels)
    ]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def prometheus_text(
    source: Union[Tracer, MetricsRegistry], prefix: str = PROM_PREFIX
) -> str:
    """Render the registry in Prometheus text exposition format.

    No dependencies: the classic ``text/plain; version=0.0.4`` format
    is simple enough to emit by hand.  Counters gain the conventional
    ``_total`` suffix; histograms expand to cumulative ``_bucket``
    series (with the mandatory ``le="+Inf"``) plus ``_sum``/``_count``.
    Families and label sets render sorted, so identical registries
    produce byte-identical expositions.
    """
    registry = source.metrics if isinstance(source, Tracer) else source
    # Snapshot first: rendering must not race concurrent merges.
    snapshot = registry.to_dict()
    lines: List[str] = []
    for name in sorted(snapshot):
        data = snapshot[name]
        kind = data["type"]
        base = _prom_name(name, prefix)
        help_text = data.get("help", "") or f"repro metric {name}"
        if kind == "counter":
            family = base + "_total"
            lines.append(f"# HELP {family} {_prom_escape(help_text)}")
            lines.append(f"# TYPE {family} counter")
            for point in data["points"]:
                lines.append(
                    f"{family}{_prom_labels(point['labels'])} "
                    f"{_prom_value(point['value'])}"
                )
        elif kind == "gauge":
            lines.append(f"# HELP {base} {_prom_escape(help_text)}")
            lines.append(f"# TYPE {base} gauge")
            for point in data["points"]:
                lines.append(
                    f"{base}{_prom_labels(point['labels'])} "
                    f"{_prom_value(point['value'])}"
                )
        elif kind == "histogram":
            lines.append(f"# HELP {base} {_prom_escape(help_text)}")
            lines.append(f"# TYPE {base} histogram")
            bounds = data["buckets"]
            for point in data["points"]:
                labels = point["labels"]
                cumulative = 0
                for bound, n in zip(bounds, point["bucket_counts"]):
                    cumulative += n
                    lbl = _prom_labels(
                        labels, f'le="{_prom_value(bound)}"'
                    )
                    lines.append(
                        f"{base}_bucket{lbl} {_prom_value(cumulative)}"
                    )
                lbl = _prom_labels(labels, 'le="+Inf"')
                lines.append(
                    f"{base}_bucket{lbl} {_prom_value(point['count'])}"
                )
                lines.append(
                    f"{base}_sum{_prom_labels(labels)} "
                    f"{_prom_value(point['sum'])}"
                )
                lines.append(
                    f"{base}_count{_prom_labels(labels)} "
                    f"{_prom_value(point['count'])}"
                )
        else:  # pragma: no cover - future metric kinds
            raise ValueError(f"cannot expose metric {name!r} of {kind!r}")
    return "\n".join(lines) + "\n" if lines else ""


def _parse_prom_value(token: str, lineno: int) -> float:
    if token == "+Inf":
        return float("inf")
    if token == "-Inf":
        return float("-inf")
    try:
        return float(token)
    except ValueError:
        raise ValueError(f"line {lineno}: bad sample value {token!r}")


def _parse_prom_labels(raw: str, lineno: int) -> Tuple[Tuple[str, str], ...]:
    if not raw:
        return ()
    pairs: List[Tuple[str, str]] = []
    pos = 0
    while pos < len(raw):
        match = _PROM_LABEL_PAIR_RE.match(raw, pos)
        if not match:
            raise ValueError(f"line {lineno}: bad label syntax {raw!r}")
        value = match.group("value")
        value = (
            value.replace(r"\n", "\n").replace(r"\"", '"')
            .replace(r"\\", "\\")
        )
        pairs.append((match.group("key"), value))
        pos = match.end()
        if pos < len(raw):
            if raw[pos] != ",":
                raise ValueError(
                    f"line {lineno}: expected ',' in labels {raw!r}"
                )
            pos += 1
    return tuple(sorted(pairs))


def parse_prometheus_text(text: str) -> Dict[str, dict]:
    """Strictly parse a text exposition; raise ``ValueError`` on any
    format violation.

    Returns ``{family: {"type", "help", "samples"}}`` where ``samples``
    maps ``(sample_name, sorted_label_tuple)`` → value.  Beyond the
    line grammar, enforces the invariants a Prometheus scraper relies
    on: ``TYPE`` declared at most once per family and before its
    samples, histogram buckets cumulative (non-decreasing in ``le``
    order), a ``le="+Inf"`` bucket present and equal to ``_count`` for
    every labelled point.  This is the checker CI runs against the
    daemon's ``metrics`` op.
    """
    families: Dict[str, dict] = {}
    sampled: set = set()

    def family_for(sample_name: str) -> str:
        # Histogram samples carry _bucket/_sum/_count suffixes; map them
        # to their declared family when one exists.
        for suffix in ("_bucket", "_sum", "_count"):
            if sample_name.endswith(suffix):
                candidate = sample_name[: -len(suffix)]
                if families.get(candidate, {}).get("type") == "histogram":
                    return candidate
        return sample_name

    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("# HELP ") or line.startswith("# TYPE "):
            parts = line.split(" ", 3)
            if len(parts) < 4 and parts[1] == "HELP":
                parts.append("")
            if len(parts) < 4:
                raise ValueError(f"line {lineno}: malformed {parts[1]} line")
            _, keyword, name, rest = parts
            if not _PROM_NAME_RE.match(name):
                raise ValueError(
                    f"line {lineno}: bad metric name {name!r}"
                )
            family = families.setdefault(
                name, {"type": None, "help": None, "samples": {}}
            )
            if keyword == "TYPE":
                if rest not in (
                    "counter", "gauge", "histogram", "summary", "untyped"
                ):
                    raise ValueError(
                        f"line {lineno}: unknown metric type {rest!r}"
                    )
                if family["type"] is not None:
                    raise ValueError(
                        f"line {lineno}: duplicate TYPE for {name!r}"
                    )
                if name in sampled:
                    raise ValueError(
                        f"line {lineno}: TYPE for {name!r} after samples"
                    )
                family["type"] = rest
            else:
                if family["help"] is not None:
                    raise ValueError(
                        f"line {lineno}: duplicate HELP for {name!r}"
                    )
                family["help"] = rest
            continue
        if line.startswith("#"):
            continue  # plain comments are legal
        match = _PROM_SAMPLE_RE.match(line)
        if not match:
            raise ValueError(f"line {lineno}: bad sample line {line!r}")
        sample_name = match.group("name")
        labels = _parse_prom_labels(match.group("labels") or "", lineno)
        value = _parse_prom_value(match.group("value"), lineno)
        family_name = family_for(sample_name)
        family = families.setdefault(
            family_name, {"type": None, "help": None, "samples": {}}
        )
        sampled.add(family_name)
        key = (sample_name, labels)
        if key in family["samples"]:
            raise ValueError(
                f"line {lineno}: duplicate sample {sample_name!r} "
                f"{dict(labels)!r}"
            )
        family["samples"][key] = value

    # Histogram invariants: cumulative buckets, +Inf present == _count.
    for name, family in families.items():
        if family["type"] != "histogram":
            continue
        by_point: Dict[tuple, List[Tuple[float, float]]] = {}
        for (sample_name, labels), value in family["samples"].items():
            if sample_name != name + "_bucket":
                continue
            le = dict(labels).get("le")
            if le is None:
                raise ValueError(
                    f"{name}: bucket sample missing 'le' label"
                )
            base_labels = tuple(p for p in labels if p[0] != "le")
            by_point.setdefault(base_labels, []).append(
                (_parse_prom_value(le, 0), value)
            )
        for base_labels, buckets in by_point.items():
            buckets.sort()
            counts = [count for _le, count in buckets]
            if counts != sorted(counts):
                raise ValueError(
                    f"{name}{dict(base_labels)}: bucket counts are not "
                    f"cumulative: {counts}"
                )
            if buckets[-1][0] != float("inf"):
                raise ValueError(
                    f"{name}{dict(base_labels)}: no le=\"+Inf\" bucket"
                )
            count_key = (name + "_count", base_labels)
            if count_key not in family["samples"]:
                raise ValueError(
                    f"{name}{dict(base_labels)}: missing _count sample"
                )
            if family["samples"][count_key] != buckets[-1][1]:
                raise ValueError(
                    f"{name}{dict(base_labels)}: _count "
                    f"{family['samples'][count_key]} != +Inf bucket "
                    f"{buckets[-1][1]}"
                )
    return families


# ----------------------------------------------------------------------
# ASCII
# ----------------------------------------------------------------------
def ascii_report(tracer: Tracer, width: int = 72) -> str:
    """Terminal rendering: device occupancy lanes + per-level busy time.

    The occupancy section reuses the Gantt renderer the executor's
    ``HybridRunResult.timeline`` already uses; the per-level section is
    an :func:`~repro.util.asciiplot.ascii_plot` of total span time per
    recursion level for each device that tagged its spans with a
    numeric ``level`` attribute.
    """
    from repro.sim.timeline import render_timeline  # lazy: avoid cycles
    from repro.util.asciiplot import ascii_plot

    if not tracer.spans:
        return "(empty trace: no spans recorded)"

    lanes = {
        device: [(s.start, s.end) for s in tracer.spans_for(device)]
        for device in tracer.devices()
    }
    lanes = {name: iv for name, iv in lanes.items() if iv}
    header = (
        f"trace {tracer.name!r}: {len(tracer.spans)} spans over "
        f"{len(tracer.runs)} run(s), times in simulated ops"
    )
    # Degenerate traces happen legitimately (all spans zero-length, e.g.
    # a schedule whose makespan rounds to 0): there is no horizon to
    # draw, so return a well-formed report instead of asking the Gantt
    # renderer to divide by it.
    horizon = max(
        (
            end
            for iv in lanes.values()
            for start, end in iv
            if end > start  # zero-length spans draw nothing
        ),
        default=0.0,
    )
    if not lanes or horizon <= 0:
        return header + "\n(degenerate trace: zero-length timeline)"
    parts = [header, render_timeline(lanes, width=width)]

    per_level: Dict[str, Dict[int, float]] = {}
    for span in tracer.spans:
        level = span.attrs.get("level")
        if isinstance(level, str) and level.isdigit():
            level = int(level)
        if not isinstance(level, int):
            continue
        bucket = per_level.setdefault(span.device, {})
        bucket[level] = bucket.get(level, 0.0) + span.duration
    series = {
        device: sorted(levels.items())
        for device, levels in per_level.items()
        if levels
    }
    if series:
        parts.append("")
        parts.append(
            ascii_plot(
                series,
                width=width,
                height=12,
                title="busy time per recursion level (ops)",
                xlabel="level",
                ylabel="ops",
            )
        )
    return "\n".join(parts)
