"""Structured span tracing for the simulated HPU.

A :class:`Span` is one closed interval of *simulated* time with a name,
a category, a device lane and free-form attributes; a :class:`Tracer`
collects spans, instant events and a :class:`~repro.obs.metrics.
MetricsRegistry` across any number of executor runs.

Tracing is **off by default and free when off**: instrumentation sites
throughout the simulator call :func:`active` (a module-global read) and
skip all recording when it returns ``None``.  Recording itself is pure
observation — it never schedules events, touches resources, or draws
randomness — so enabling a tracer cannot change any simulated result;
``tests/obs/test_equivalence.py`` pins that bit-identity contract.

Recording fast path
-------------------
A ``fig8 --fast`` sweep records ~100k spans, so the *recording* side is
a hot path in its own right.  :meth:`Tracer.span` therefore appends one
flat tuple to an internal row buffer — no :class:`Span` allocation, no
validation, no attribute dict unless the caller passed attributes — and
:class:`Span` objects are only materialized lazily (and cached) when
somebody actually reads :attr:`Tracer.spans`.  Exporters bypass the
materialization entirely and batch-flush the raw rows (see
:func:`repro.obs.export.chrome_trace`).  :meth:`span_many` amortizes a
shared name/end over a worker team's spans.

The closed-form replay, which runs almost every traced executor run,
records less still: one :class:`RunRows` per run, holding its start
times and references to the row templates its executor priced once.
Readers see it through :func:`iter_rows` as the rows the DES would have
recorded; the streamed Chrome export encodes it straight from the
templates without building those rows.

Runs and the timeline
---------------------
Every :class:`~repro.core.schedule.executor.ScheduleExecutor` run owns a
fresh :class:`~repro.sim.engine.Simulator` whose clock starts at 0, so
spans from different runs would overlap if drawn on one timeline.  The
tracer therefore keeps a cursor: :meth:`begin_run` opens a
:class:`RunRecord` at the current offset, spans recorded during the run
are stored run-relative and shifted by that offset when materialized or
exported, and :meth:`end_run` advances the cursor past the run's end.  A sweep of hundreds of auto-tuner evaluations lays out
as consecutive segments, each wrapped in a run-level span carrying the
operating point that produced it (see
:meth:`~repro.core.autotune.AutoTuner.evaluate`).

:meth:`snapshot` turns a tracer into plain picklable data and
:meth:`absorb` re-bases such a snapshot onto another tracer's timeline;
the serve daemon's trace stitcher absorbs each job's snapshot this way
(see ``docs/OBSERVABILITY.md``).
"""

from __future__ import annotations

import contextlib
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.obs.metrics import MetricsRegistry

#: Flat span row: (name, category, start, end, device, run index, attrs
#: dict or None).  Start/end are **run-relative** sim times when the run
#: index is set, and absolute timeline positions when it is ``None`` —
#: the run's offset is added only at materialization/export time, which
#: is what lets :meth:`Tracer.absorb` relocate another tracer's rows
#: onto this timeline bit-exactly.  A *team row* (from
#: :meth:`Tracer.span_many`) packs a whole worker group into one row by
#: carrying a ``tuple`` of starts in the start slot; lazy
#: materialization and the exporters expand it back into one span per
#: start.  A replayed run's rows travel in one more compact form, a
#: :class:`RunRows` in the row buffer; :func:`iter_rows` expands it in
#: place, so every reader sees the same rows either way.
SpanRow = Tuple[str, str, float, float, str, Optional[int], Optional[dict]]


class RunRows:
    """One replayed run's span rows in compact form.

    The closed-form replay (:mod:`repro.core.schedule.macro`) prices
    each CPU team and each GPU level once per executor and keeps the
    result as a *row template*; a traced replay records only which
    templates ran, and when.  A template carries ``durations`` and
    ``rows``, the ``(name, category, lane, attrs)`` of its rows: a team
    template one duration per worker (non-increasing) and the parts of
    its ``cpu.worker`` and ``cpu.batch`` rows, a device template one
    row per duration.

    ``pool`` lists the core pool's rows in recording order:

    - ``(team, start)``: a homogeneous team granted whole at ``start``,
      i.e. its one ``cpu.worker`` row and its ``cpu.batch`` row, both
      ending at ``start + durations[0]``;
    - ``(team, starts, end, batch)``: one ``cpu.worker`` row, its start
      slot as in a team row, followed, when ``batch`` is not ``None``,
      by the team's ``cpu.batch`` row from ``batch`` to ``end``.

    ``device`` lists ``(template, start)`` pairs: the template's rows
    back to back from ``start``, each ending at ``start + duration``.
    The run's rows are the two lists merged by end time, a device row
    first when it ends with a pool row (a tie the replay allows only
    for pool rows that start once the device side is done).  ``lanes``
    names the lanes the rows use.  A template's ``rows`` is one object
    for its lifetime: exporters memoize its text by identity.
    """

    __slots__ = ("run", "pool", "device", "lanes", "_spans")

    def __init__(self, run: int, pool: list, device: list,
                 lanes: Tuple[str, ...]) -> None:
        self.run = run
        self.pool = pool
        self.device = device
        self.lanes = lanes
        self._spans: Optional[int] = None

    @property
    def spans(self) -> int:
        """How many spans the rows expand to."""
        if self._spans is None:
            count = 0
            for item in self.pool:
                if len(item) == 2:
                    count += len(item[0].durations) + 1
                else:
                    starts = item[1]
                    count += len(starts) if type(starts) is tuple else 1
                    count += item[3] is not None
            for template, _start in self.device:
                count += len(template.durations)
            self._spans = count
        return self._spans

    def rows(self) -> List[SpanRow]:
        """The plain rows, in recording order."""
        run = self.run
        device: List[SpanRow] = []
        for template, now in self.device:
            for duration, (name, cat, lane, attrs) in zip(
                template.durations, template.rows
            ):
                end = now + duration
                device.append((name, cat, now, end, lane, run, attrs))
                now = end
        merged: List[SpanRow] = []
        i = 0
        n_device = len(device)
        for item in self.pool:
            team = item[0]
            if len(item) == 2:
                start = item[1]
                end = start + team.durations[0]
                workers = len(team.durations)
                starts = start if workers == 1 else (start,) * workers
                batch = start
            else:
                _team, starts, end, batch = item
            while i < n_device and device[i][3] <= end:
                merged.append(device[i])
                i += 1
            worker, batch_row = team.rows
            merged.append(
                (worker[0], worker[1], starts, end, worker[2], run, worker[3])
            )
            if batch is not None:
                merged.append((batch_row[0], batch_row[1], batch, end,
                               batch_row[2], run, batch_row[3]))
        merged.extend(device[i:])
        return merged


def iter_rows(rows) -> Iterator[SpanRow]:
    """The plain rows of a row buffer, :class:`RunRows` expanded."""
    for row in rows:
        if type(row) is RunRows:
            yield from row.rows()
        else:
            yield row


def expand_row(row: SpanRow, offset: float = 0.0):
    """Yield ``(name, cat, start, end, device, run, attrs)`` per span,
    shifted by ``offset`` (the row's run offset), unpacking team rows
    (tuple-of-starts) into individual spans."""
    start = row[2]
    if type(start) is tuple:
        name, cat, _s, end, device, run, attrs = row
        end = offset + end
        for s in start:
            yield (name, cat, offset + s, end, device, run, attrs)
    else:
        yield (
            row[0],
            row[1],
            offset + start,
            offset + row[3],
            row[4],
            row[5],
            row[6],
        )


class Span:
    """One named interval of simulated time on a device lane."""

    __slots__ = ("name", "category", "start", "end", "device", "run", "attrs")

    def __init__(
        self,
        name: str,
        category: str,
        start: float,
        end: float,
        device: str = "",
        run: Optional[int] = None,
        attrs: Optional[Dict[str, Any]] = None,
    ) -> None:
        if end < start:
            raise ValueError(
                f"span {name!r} ends ({end}) before it starts ({start})"
            )
        self.name = name
        self.category = category
        self.start = start
        self.end = end
        self.device = device
        self.run = run
        self.attrs = attrs or {}

    @property
    def duration(self) -> float:
        """Length of the span in simulated ops."""
        return self.end - self.start

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Span {self.name!r} [{self.start:g}, {self.end:g}] "
            f"on {self.device!r}>"
        )

    def to_dict(self) -> dict:
        """JSON-serializable form."""
        return {
            "name": self.name,
            "category": self.category,
            "start": self.start,
            "end": self.end,
            "device": self.device,
            "run": self.run,
            "attrs": dict(self.attrs),
        }


class Instant(Span):
    """A zero-duration marker event."""

    __slots__ = ()

    def __init__(
        self,
        name: str,
        category: str,
        ts: float,
        device: str = "",
        run: Optional[int] = None,
        attrs: Optional[Dict[str, Any]] = None,
    ) -> None:
        super().__init__(name, category, ts, ts, device, run, attrs)


class RunRecord:
    """One executor run on the tracer's timeline."""

    __slots__ = ("index", "label", "offset", "duration", "attrs")

    def __init__(
        self, index: int, label: str, offset: float, attrs: Dict[str, Any]
    ) -> None:
        self.index = index
        self.label = label
        self.offset = offset  # absolute timeline position of run t=0
        self.duration: Optional[float] = None  # set by Tracer.end_run
        self.attrs = attrs

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<RunRecord #{self.index} {self.label!r} @{self.offset:g}>"


class _LazySpanList:
    """A list-like view materializing :class:`Span` objects on demand.

    The tracer's ground truth is the flat row buffer; this view builds
    ``Span`` instances only when code indexes/iterates it, and caches
    the materialized list until new rows arrive.  ``len`` and truthiness
    never materialize Span objects.
    """

    __slots__ = ("_rows", "_runs", "_cls", "_cache", "_rows_done")

    def __init__(
        self, rows: List[SpanRow], runs: List["RunRecord"], cls=Span
    ) -> None:
        self._rows = rows
        self._runs = runs
        self._cls = cls
        self._cache: Optional[List[Span]] = None
        self._rows_done = -1

    def _materialize(self) -> List[Span]:
        if self._rows_done != len(self._rows):
            cls = self._cls
            runs = self._runs
            if cls is Instant:
                cache = [
                    cls(
                        name,
                        cat,
                        start if run is None else runs[run].offset + start,
                        device=device,
                        run=run,
                        attrs=attrs,
                    )
                    for name, cat, start, _end, device, run, attrs in self._rows
                ]
            else:
                cache = [
                    cls(name, cat, start, end, device=device, run=run,
                        attrs=attrs)
                    for row in iter_rows(self._rows)
                    for name, cat, start, end, device, run, attrs in
                    expand_row(
                        row,
                        0.0 if row[5] is None else runs[row[5]].offset,
                    )
                ]
            self._cache = cache
            self._rows_done = len(self._rows)
        return self._cache

    def __len__(self) -> int:
        if self._rows_done == len(self._rows):
            return len(self._cache)
        if self._cls is Instant:
            return len(self._rows)
        return sum(
            row.spans if type(row) is RunRows
            else len(row[2]) if type(row[2]) is tuple else 1
            for row in self._rows
        )

    def __bool__(self) -> bool:
        return bool(self._rows)

    def __iter__(self):
        return iter(self._materialize())

    def __getitem__(self, index):
        return self._materialize()[index]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return repr(self._materialize())


class Tracer:
    """Collects spans, instants, runs and metrics for one session."""

    def __init__(self, name: str = "repro") -> None:
        self.name = name
        #: Flat row buffers — the ground truth the exporters flush
        #: (span rows, and :class:`RunRows` of replayed runs).
        self.span_rows: List[SpanRow] = []
        self.instant_rows: List[SpanRow] = []
        self.runs: List[RunRecord] = []
        self.metrics = MetricsRegistry()
        self._cursor = 0.0  # where the next run starts on the timeline
        self._run: Optional[RunRecord] = None
        self._run_index: Optional[int] = None
        # Shift applied to rows at record time: 0 while a run is open
        # (rows stay run-relative; the offset is re-added at
        # materialization/export), the cursor otherwise (rows absolute).
        self._offset = 0.0
        self._pending_attrs: Dict[str, Any] = {}
        self._span_view = _LazySpanList(self.span_rows, self.runs)
        self._instant_view = _LazySpanList(
            self.instant_rows, self.runs, cls=Instant
        )

    # ------------------------------------------------------------------
    # lazy views
    # ------------------------------------------------------------------
    @property
    def spans(self) -> Sequence[Span]:
        """Recorded spans as :class:`Span` objects (lazily materialized)."""
        return self._span_view

    @property
    def instants(self) -> Sequence[Instant]:
        """Recorded instants as :class:`Instant` objects (lazy)."""
        return self._instant_view

    # ------------------------------------------------------------------
    # runs
    # ------------------------------------------------------------------
    @property
    def current_run(self) -> Optional[RunRecord]:
        """The open run, if any."""
        return self._run

    @property
    def offset(self) -> float:
        """Absolute timeline position mapping to the current run's t=0."""
        return self._run.offset if self._run is not None else self._cursor

    def annotate_next_run(self, **attrs: Any) -> None:
        """Attach attributes to the *next* :meth:`begin_run`.

        This is how layers above the executor (the auto-tuner, the
        experiment sweeps) tag runs they trigger but do not start
        themselves — e.g. the (α, y) operating point of an evaluation.
        """
        self._pending_attrs.update(attrs)

    def begin_run(self, label: str, **attrs: Any) -> RunRecord:
        """Open a run at the timeline cursor; merges pending annotations."""
        if self._run is not None:
            # An abandoned run (e.g. an executor error mid-run): close it
            # at whatever its spans reached so the timeline stays sane.
            self.end_run()
        merged = dict(self._pending_attrs)
        self._pending_attrs.clear()
        merged.update(attrs)
        self._run = RunRecord(len(self.runs), label, self._cursor, merged)
        self._run_index = self._run.index
        self._offset = 0.0  # rows recorded during the run are run-relative
        self.runs.append(self._run)
        return self._run

    def end_run(self, duration: Optional[float] = None) -> None:
        """Close the open run and advance the cursor past its end.

        ``duration`` is the run's simulated makespan; if omitted it is
        inferred from the latest span end recorded during the run.
        """
        run = self._run
        if run is None:
            return
        if duration is None:
            # Rows of the run are run-relative, so the latest span end
            # *is* the duration — no subtraction against the offset.
            index = run.index
            duration = max(
                (row[3] for row in iter_rows(self.span_rows)
                 if row[5] == index),
                default=0.0,
            )
        run.duration = duration
        self._cursor = run.offset + duration
        self._run = None
        self._run_index = None
        self._offset = self._cursor

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def span(
        self,
        name: str,
        category: str,
        start: float,
        end: float,
        device: str = "",
        **attrs: Any,
    ) -> None:
        """Record one span; ``start``/``end`` are run-local sim times.

        Hot path: appends a flat row, allocating nothing beyond the
        keyword dict the call itself builds.  Bounds are validated
        lazily when (if) the row materializes as a :class:`Span`.
        """
        offset = self._offset
        self.span_rows.append(
            (
                name,
                category,
                offset + start,
                offset + end,
                device,
                self._run_index,
                attrs or None,
            )
        )

    def span_at(
        self,
        name: str,
        category: str,
        start: float,
        end: float,
        device: str = "",
        attrs: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Positional hot-path :meth:`span`: ``attrs`` is stored by
        reference, so callers may share one dict across spans with the
        same attributes (the executor caches them per operating point).
        Shared dicts must be treated as immutable by consumers.
        """
        offset = self._offset
        self.span_rows.append(
            (name, category, offset + start, offset + end, device,
             self._run_index, attrs)
        )

    def span_many(
        self,
        name: str,
        category: str,
        starts: Sequence[float],
        end: float,
        device: str = "",
    ) -> None:
        """Record one attribute-free span per entry of ``starts``, all
        sharing a name and an end time — a completing worker team.

        Equivalent to calling :meth:`span` in a loop, with the offset
        shift, run index and row shape hoisted out of the loop.
        """
        offset = self._offset
        absolute_end = offset + end
        if len(starts) == 1:
            start = offset + starts[0]
        elif offset == 0.0:
            # In-run recording (the hot case): rows are run-relative and
            # the offset is zero, so the team tuple needs no shifting.
            start = tuple(starts)
        else:
            # A team row: all starts packed into one tuple, expanded
            # back into per-worker spans only at materialization/export.
            start = tuple([offset + s for s in starts])
        self.span_rows.append(
            (name, category, start, absolute_end, device, self._run_index,
             None)
        )

    def instant(
        self,
        name: str,
        category: str,
        ts: Optional[float] = None,
        device: str = "",
        **attrs: Any,
    ) -> None:
        """Record a marker event (``ts=None``: the current cursor)."""
        offset = self._offset
        absolute = offset if ts is None else offset + ts
        self.instant_rows.append(
            (
                name,
                category,
                absolute,
                absolute,
                device,
                self._run_index,
                attrs or None,
            )
        )

    # ------------------------------------------------------------------
    # snapshots and merging (cross-process trace stitching)
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Portable form of everything recorded so far.

        The snapshot is plain picklable data (rows, run tuples, metric
        dict) — what a serve worker ships back to the daemon for
        :meth:`absorb`.
        """
        if self._run is not None:  # defensive: close a dangling run
            self.end_run()
        return {
            "name": self.name,
            "span_rows": list(iter_rows(self.span_rows)),
            "instant_rows": list(self.instant_rows),
            "runs": [
                (r.label, r.offset, r.duration, r.attrs) for r in self.runs
            ],
            "cursor": self._cursor,
            "metrics": self.metrics.to_dict(),
        }

    def absorb(self, snapshot: dict) -> None:
        """Merge another tracer's :meth:`snapshot` onto this timeline.

        The snapshot's runs are laid out here by replaying the cursor
        recurrence :meth:`begin_run`/:meth:`end_run` use (``offset =
        cursor; cursor = offset + duration`` per run), its run indices
        are shifted past the runs already recorded here, and its
        metrics merge into this registry point-by-point by label.  Run-relative span/instant
        rows travel untouched (only their run index shifts), so
        absorbing into an empty tracer reproduces the source's layout
        **bit-identically**; rows recorded outside any run shift by
        this tracer's cursor.
        """
        if self._run is not None:
            raise ValueError("cannot absorb a snapshot while a run is open")
        base = self._cursor
        index_base = len(self.runs)
        cursor = self._cursor
        for label, _offset, duration, attrs in snapshot["runs"]:
            run = RunRecord(len(self.runs), label, cursor, dict(attrs))
            run.duration = duration
            self.runs.append(run)
            cursor = cursor + (duration if duration is not None else 0.0)
        for rows, target in (
            (snapshot["span_rows"], self.span_rows),
            (snapshot["instant_rows"], self.instant_rows),
        ):
            target.extend(
                (
                    name,
                    cat,
                    start
                    if run is not None
                    else (
                        tuple(base + s for s in start)
                        if type(start) is tuple
                        else base + start
                    ),
                    end if run is not None else base + end,
                    device,
                    None if run is None else index_base + run,
                    attrs,
                )
                for name, cat, start, end, device, run, attrs in rows
            )
        self._cursor = cursor
        self._offset = self._cursor
        self.metrics.merge_dict(snapshot["metrics"])

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def devices(self) -> List[str]:
        """Device lane names in first-seen order."""
        seen: Dict[str, None] = {}
        for row in iter_rows(self.span_rows):
            seen.setdefault(row[4])
        for row in self.instant_rows:
            seen.setdefault(row[4])
        return list(seen)

    def spans_for(self, device: str) -> List[Span]:
        """All spans on one device lane."""
        return [s for s in self.spans if s.device == device]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Tracer {self.name!r} {len(self.span_rows)} span rows, "
            f"{len(self.runs)} runs>"
        )


# ----------------------------------------------------------------------
# active-tracer management: the no-op-by-default switch
# ----------------------------------------------------------------------
_ACTIVE: Optional[Tracer] = None


def active() -> Optional[Tracer]:
    """The currently-active tracer, or ``None`` (tracing off).

    This is the only call instrumentation sites pay when tracing is
    disabled; everything else is behind an ``is not None`` check.
    """
    return _ACTIVE


def activate(tracer: Tracer) -> Tracer:
    """Make ``tracer`` the active tracer (replacing any previous one)."""
    global _ACTIVE
    _ACTIVE = tracer
    return tracer


def deactivate() -> Optional[Tracer]:
    """Turn tracing off; returns the tracer that was active."""
    global _ACTIVE
    tracer, _ACTIVE = _ACTIVE, None
    return tracer


@contextlib.contextmanager
def tracing(tracer: Optional[Tracer] = None) -> Iterator[Tracer]:
    """Context manager: activate a tracer, restore the previous on exit.

    >>> with tracing() as tr:
    ...     executor.run_advanced(plan)
    >>> len(tr.spans) > 0
    """
    previous = _ACTIVE
    current = activate(tracer if tracer is not None else Tracer())
    try:
        yield current
    finally:
        if previous is None:
            deactivate()
        else:
            activate(previous)
