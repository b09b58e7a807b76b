"""Streaming progress telemetry: typed events for long-running searches.

The tracer (PR 2) and ledger (PR 3) are *post-hoc*: spans and rows are
inspected after the run. This module is the **live** side — while a
mapper sweep, architecture DSE or network evaluation is running it
answers "how far along is it, how fast, is anything stuck, what's the
best design so far?" through a typed event stream:

* :class:`RunStarted` / :class:`RunFinished` / :class:`RunInterrupted`
  bracket one logical flow (a mapper search, an arch sweep, a network
  evaluation, a verify run, a CLI invocation);
* :class:`ChunkCompleted` reports a unit of work done — the engine emits
  one per executor chunk, carrying the worker that ran it, its wall
  time, cumulative progress and a rolling evals/sec + ETA estimate;
* :class:`Heartbeat` marks a worker as alive (each chunk's timing
  carries the identity of the process that ran it);
* :class:`BestSoFar` announces an improved incumbent objective;
* :class:`CacheStats` snapshots the engine cache hit rate;
* :class:`WorkerStalled` is a derived warning — a worker silent past a
  threshold. Nothing in the package emits it today; it stays a readable
  event type so recorded streams that carry one still render.

The emitter is ambient like the tracer, metrics and ledger:
``telemetry().progress`` (see :mod:`repro.observability.telemetry`)
defaults to the allocation-free :data:`NULL_EMITTER`, and
``use_telemetry(progress=emitter)`` installs one for a block.
Flows do not test ``emitter.enabled``: they open ``with
telemetry().progress.start_run(...) as run:`` and call ``run.*``
unconditionally, and the null emitter hands back the shared
:data:`NULL_RUN`, whose every method is a no-op. The disabled path
(one contextvar read, a ``with`` and a few no-op calls) is bounded
< 5% of kernel time by ``benchmarks/test_progress_overhead.py`` /
``BENCH_progress.json``.

Sinks are plain subscribers — any callable of one event. The bundled
:class:`JsonlSink` appends one JSON object per line and flushes per
event, so ``repro-latency top --follow events.jsonl`` renders a live
dashboard from a file another process is still writing;
:class:`MetricsSubscriber` mirrors the stream into the ambient
:class:`~repro.observability.metrics.MetricsRegistry` gauges
(evals/sec, cache hit rate, active workers).
"""

from __future__ import annotations

import dataclasses
import json
import os
import time
from contextlib import nullcontext
from typing import (
    Any,
    Callable,
    Dict,
    IO,
    Iterator,
    List,
    Optional,
    Tuple,
    Type,
    Union,
)

#: Rolling-throughput window, in seconds of event time.
RATE_WINDOW_S = 30.0

#: Default worker-silence threshold before a stall warning, in seconds.
STALL_THRESHOLD_S = 10.0


def worker_id() -> str:
    """The calling process's worker identity (``"pid:<pid>"``)."""
    return f"pid:{os.getpid()}"


# --------------------------------------------------------------------- #
# Event types
# --------------------------------------------------------------------- #


@dataclasses.dataclass(frozen=True)
class RunStarted:
    """A logical flow began (mapper search, arch sweep, CLI command...)."""

    run_id: str
    flow: str
    total_units: Optional[int] = None   # None when the size is unknown
    unit: str = "units"                 # "evals" | "points" | "layers" | ...
    accelerator: str = ""
    layer: str = ""
    ts: float = 0.0


@dataclasses.dataclass(frozen=True)
class ChunkCompleted:
    """One unit of work done: an executor chunk, a design point, a layer.

    ``done_units``/``total_units`` are cumulative for the run;
    ``evals_per_s`` is the rolling rate over :data:`RATE_WINDOW_S` of
    event time and ``eta_s`` the remaining-time estimate it implies
    (``None`` without a known total or a positive rate).
    """

    run_id: str
    index: int = -1                     # chunk/point index, -1 = untracked
    completed: int = 0                  # units finished in this chunk
    errors: int = 0                     # infeasible/violating units
    wall_s: float = 0.0                 # chunk wall time where it ran
    worker: str = ""                    # "pid:<pid>" that ran the chunk
    done_units: int = 0
    total_units: Optional[int] = None
    unit: str = "units"
    evals_per_s: float = 0.0
    eta_s: Optional[float] = None
    note: str = ""                      # free-form (e.g. failing case id)
    ts: float = 0.0


@dataclasses.dataclass(frozen=True)
class Heartbeat:
    """A worker proved liveness (emitted when its chunk timing arrives).

    ``note`` optionally names what the worker is *about to* do (e.g.
    ``"evaluating a1b2c3/d4e5f6 (kernel)"``), so a recording shows what
    the worker was last occupied with.
    """

    run_id: str
    worker: str
    note: str = ""
    ts: float = 0.0


@dataclasses.dataclass(frozen=True)
class BestSoFar:
    """The incumbent objective improved."""

    run_id: str
    objective: float
    total_cycles: float = 0.0
    utilization: float = 0.0
    label: str = ""
    ts: float = 0.0


@dataclasses.dataclass(frozen=True)
class CacheStats:
    """Engine-cache counters at a point in time.

    ``dedup_skipped`` counts mapper candidates dropped as model-equivalent
    before evaluation; ``partial_hits``/``partial_misses`` are the
    partial-result (MUW memo) cache counters of the batch evaluator.
    """

    run_id: str
    hits: int = 0
    misses: int = 0
    hit_rate: float = 0.0
    dedup_skipped: int = 0
    partial_hits: int = 0
    partial_misses: int = 0
    ts: float = 0.0


@dataclasses.dataclass(frozen=True)
class WorkerStalled:
    """A worker has been silent past the heartbeat threshold.

    ``note`` carries what the worker was last reported doing (from its
    most recent :class:`Heartbeat` note) so the warning is actionable —
    which request, which phase — instead of just naming the worker.
    """

    run_id: str
    worker: str
    silent_for_s: float = 0.0
    threshold_s: float = STALL_THRESHOLD_S
    note: str = ""
    ts: float = 0.0


@dataclasses.dataclass(frozen=True)
class RunInterrupted:
    """The flow was cut short: ``reason`` names the exception.

    ``"KeyboardInterrupt"`` (Ctrl-C) runs checkpointed their partial
    results; any other reason is an error that ended the flow.
    """

    run_id: str
    done_units: int = 0
    reason: str = ""
    ts: float = 0.0


@dataclasses.dataclass(frozen=True)
class RunFinished:
    """The flow completed normally."""

    run_id: str
    done_units: int = 0
    wall_s: float = 0.0
    best_objective: Optional[float] = None
    ts: float = 0.0


@dataclasses.dataclass(frozen=True)
class ConvergenceUpdate:
    """The campaign incumbent moved (or the search tripped into stagnation).

    Emitted by :class:`repro.observability.campaign.CampaignRecorder` on
    each improvement, so the stream carries the full incumbent
    trajectory without a per-candidate event.
    """

    run_id: str
    objective: float = 0.0
    observed: int = 0
    improvements: int = 0
    improvement_rate: float = 0.0
    since_improvement: int = 0
    stagnated: bool = False
    ts: float = 0.0


@dataclasses.dataclass(frozen=True)
class ParetoFrontSnapshot:
    """The Pareto front of one campaign flow at a point in the search.

    ``points`` is a list of ``[x, y]`` pairs (e.g. array size vs.
    latency for an architecture sweep).
    """

    run_id: str
    flow: str = ""
    label: str = ""
    size: int = 0
    points: List[List[float]] = dataclasses.field(default_factory=list)
    ts: float = 0.0


@dataclasses.dataclass(frozen=True)
class FunnelSnapshot:
    """Terminal funnel counts for one campaign phase (see campaign docs)."""

    run_id: str
    flow: str = ""
    enumerated: int = 0
    deduped: int = 0
    cache_hits: int = 0
    evaluated: int = 0
    invalid: int = 0
    dominated: int = 0
    ts: float = 0.0


ProgressEvent = Union[
    RunStarted,
    ChunkCompleted,
    Heartbeat,
    BestSoFar,
    CacheStats,
    WorkerStalled,
    RunInterrupted,
    RunFinished,
    ConvergenceUpdate,
    ParetoFrontSnapshot,
    FunnelSnapshot,
]

#: Serialization registry: JSONL ``"type"`` field -> event class.
EVENT_TYPES: Dict[str, Type] = {
    cls.__name__: cls
    for cls in (
        RunStarted,
        ChunkCompleted,
        Heartbeat,
        BestSoFar,
        CacheStats,
        WorkerStalled,
        RunInterrupted,
        RunFinished,
        ConvergenceUpdate,
        ParetoFrontSnapshot,
        FunnelSnapshot,
    )
}


def event_to_dict(event: ProgressEvent) -> Dict[str, Any]:
    """One event as a JSON-ready dict carrying its ``"type"``."""
    data: Dict[str, Any] = {"type": type(event).__name__}
    data.update(dataclasses.asdict(event))
    return data


def event_from_dict(data: Dict[str, Any]) -> ProgressEvent:
    """Inverse of :func:`event_to_dict`; tolerant of unknown fields."""
    kind = data.get("type")
    cls = EVENT_TYPES.get(kind or "")
    if cls is None:
        raise ValueError(f"unknown progress event type {kind!r}")
    fields = {f.name for f in dataclasses.fields(cls)}
    return cls(**{k: v for k, v in data.items() if k in fields})


def format_event(event: ProgressEvent) -> str:
    """One human-readable console line per event."""
    rid = event.run_id
    if isinstance(event, RunStarted):
        total = "?" if event.total_units is None else str(event.total_units)
        return f"[{rid}] {event.flow} started ({total} {event.unit})"
    if isinstance(event, ChunkCompleted):
        total = "?" if event.total_units is None else str(event.total_units)
        eta = f" eta {format_duration(event.eta_s)}" if event.eta_s is not None else ""
        note = f" ({event.note})" if event.note else ""
        err = f" [{event.errors} error(s)]" if event.errors else ""
        return (
            f"[{rid}] {event.done_units}/{total} {event.unit} "
            f"{event.evals_per_s:.1f}/s{eta}{err}{note}"
        )
    if isinstance(event, Heartbeat):
        return f"[{rid}] heartbeat {event.worker}"
    if isinstance(event, BestSoFar):
        label = f" {event.label}" if event.label else ""
        return f"[{rid}] best-so-far {event.objective:g}{label}"
    if isinstance(event, CacheStats):
        return (
            f"[{rid}] cache {event.hits} hit(s) / {event.misses} miss(es) "
            f"({event.hit_rate:.1%})"
        )
    if isinstance(event, WorkerStalled):
        doing = f" while {event.note}" if event.note else ""
        return (
            f"[{rid}] STALL {event.worker} silent "
            f"{event.silent_for_s:.1f}s (> {event.threshold_s:g}s){doing}"
        )
    if isinstance(event, RunInterrupted):
        return (
            f"[{rid}] INTERRUPTED after {event.done_units} unit(s)"
            + (f": {event.reason}" if event.reason else "")
        )
    if isinstance(event, RunFinished):
        best = (
            f", best {event.best_objective:g}"
            if event.best_objective is not None
            else ""
        )
        return (
            f"[{rid}] finished: {event.done_units} unit(s) "
            f"in {event.wall_s:.1f}s{best}"
        )
    if isinstance(event, ConvergenceUpdate):
        flag = " STAGNATED" if event.stagnated else ""
        return (
            f"[{rid}] incumbent {event.objective:g} "
            f"({event.improvements} improvement(s) / {event.observed} "
            f"scored, {event.since_improvement} since last){flag}"
        )
    if isinstance(event, ParetoFrontSnapshot):
        label = f" {event.label}" if event.label else ""
        return f"[{rid}] pareto[{event.flow}] {event.size} point(s){label}"
    if isinstance(event, FunnelSnapshot):
        return (
            f"[{rid}] funnel[{event.flow}] enumerated={event.enumerated} "
            f"deduped={event.deduped} cache={event.cache_hits} "
            f"evaluated={event.evaluated} invalid={event.invalid} "
            f"dominated={event.dominated}"
        )
    return f"[{rid}] {type(event).__name__}"


def format_duration(seconds: Optional[float]) -> str:
    """``mm:ss`` (or ``h:mm:ss``) formatting for ETAs; ``"--:--"`` if None."""
    if seconds is None or seconds < 0:
        return "--:--"
    total = int(round(seconds))
    hours, rest = divmod(total, 3600)
    minutes, secs = divmod(rest, 60)
    if hours:
        return f"{hours}:{minutes:02d}:{secs:02d}"
    return f"{minutes:02d}:{secs:02d}"


# --------------------------------------------------------------------- #
# Throughput / ETA estimation
# --------------------------------------------------------------------- #


class EtaEstimator:
    """Rolling evals/sec over a window of event time, and the ETA it implies.

    Feeds on ``(ts, cumulative_done)`` samples; the rate is the slope
    between the oldest in-window sample and the newest. When the window
    has no extent yet (first sample, or a clock that hasn't advanced),
    the instantaneous ``completed / wall_s`` of the last chunk is used.
    """

    def __init__(self, window_s: float = RATE_WINDOW_S) -> None:
        self.window_s = window_s
        self._samples: List[Tuple[float, int]] = []
        self._last_instant = 0.0

    def update(self, ts: float, done: int, completed: int, wall_s: float) -> None:
        self._samples.append((ts, done))
        if wall_s > 0:
            self._last_instant = completed / wall_s
        cutoff = ts - self.window_s
        while len(self._samples) > 2 and self._samples[0][0] < cutoff:
            self._samples.pop(0)

    def rate(self) -> float:
        """Units per second (0.0 until anything is measurable)."""
        if len(self._samples) >= 2:
            (t0, d0), (t1, d1) = self._samples[0], self._samples[-1]
            if t1 > t0:
                return (d1 - d0) / (t1 - t0)
        return self._last_instant

    def eta_s(self, done: int, total: Optional[int]) -> Optional[float]:
        """Seconds to completion, or None without a total / a rate."""
        if total is None:
            return None
        rate = self.rate()
        if rate <= 0:
            return None
        return max(0.0, (total - done) / rate)


# --------------------------------------------------------------------- #
# Run handles
# --------------------------------------------------------------------- #


class RunHandle:
    """Emit-side view of one open run: progress, best, cache, lifecycle.

    Created by :meth:`ProgressEmitter.start_run`; all convenience
    methods stamp events with the emitter's clock and keep the run's
    cumulative counters, incumbent objective and rolling ETA so emit
    sites stay one-liners.

    A handle is a context manager and that is how flows use it::

        with telemetry().progress.start_run("mapper.search", unit="evals") as run:
            ...

    A normal exit finishes the run; any exception (``KeyboardInterrupt``
    included) interrupts it with the exception's class name as the
    reason and propagates. So no run is ever left open on the stack.
    """

    enabled = True

    def __init__(
        self,
        emitter: "ProgressEmitter",
        run_id: str,
        flow: str,
        total_units: Optional[int],
        unit: str,
    ) -> None:
        self._emitter = emitter
        self.run_id = run_id
        self.flow = flow
        self.total_units = total_units
        self.unit = unit
        self.done_units = 0
        self.errors = 0
        self.best_objective: Optional[float] = None
        self.started_ts = emitter.clock()
        self._estimator = EtaEstimator()
        self._closed = False

    # -- progress -------------------------------------------------------- #

    def advance(
        self,
        completed: int,
        *,
        errors: int = 0,
        wall_s: float = 0.0,
        worker: str = "",
        index: int = -1,
        note: str = "",
    ) -> None:
        """Record ``completed`` done units and emit Heartbeat + ChunkCompleted."""
        now = self._emitter.clock()
        who = worker or worker_id()
        self.done_units += completed
        self.errors += errors
        self._estimator.update(now, self.done_units, completed, wall_s)
        self._emitter.emit(Heartbeat(run_id=self.run_id, worker=who, ts=now))
        self._emitter.emit(
            ChunkCompleted(
                run_id=self.run_id,
                index=index,
                completed=completed,
                errors=errors,
                wall_s=wall_s,
                worker=who,
                done_units=self.done_units,
                total_units=self.total_units,
                unit=self.unit,
                evals_per_s=self._estimator.rate(),
                eta_s=self._estimator.eta_s(self.done_units, self.total_units),
                note=note,
                ts=now,
            )
        )

    def heartbeat(self, worker: str = "", note: str = "") -> None:
        """Emit a bare liveness ping, optionally saying what starts now.

        Unlike :meth:`advance` this marks the *beginning* of a unit of
        work: the server pings with the request's fingerprints before
        handing a kernel to its worker thread.
        """
        self._emitter.emit(
            Heartbeat(
                run_id=self.run_id,
                worker=worker or worker_id(),
                note=note,
                ts=self._emitter.clock(),
            )
        )

    def best(
        self,
        objective: float,
        *,
        total_cycles: float = 0.0,
        utilization: float = 0.0,
        label: str = "",
    ) -> bool:
        """Emit :class:`BestSoFar` iff ``objective`` beats the incumbent."""
        if self.best_objective is not None and objective >= self.best_objective:
            return False
        self.best_objective = objective
        self._emitter.emit(
            BestSoFar(
                run_id=self.run_id,
                objective=objective,
                total_cycles=total_cycles,
                utilization=utilization,
                label=label,
                ts=self._emitter.clock(),
            )
        )
        return True

    def cache_stats(
        self,
        hits: int,
        misses: int,
        *,
        dedup_skipped: int = 0,
        partial_hits: int = 0,
        partial_misses: int = 0,
    ) -> None:
        """Snapshot the engine cache counters into the stream."""
        requests = hits + misses
        self._emitter.emit(
            CacheStats(
                run_id=self.run_id,
                hits=hits,
                misses=misses,
                hit_rate=hits / requests if requests else 0.0,
                dedup_skipped=dedup_skipped,
                partial_hits=partial_hits,
                partial_misses=partial_misses,
                ts=self._emitter.clock(),
            )
        )

    # -- lifecycle ------------------------------------------------------- #

    def __enter__(self) -> "RunHandle":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.finish()
        else:
            self.interrupt(exc_type.__name__)

    def finish(self) -> None:
        """Close the run normally (idempotent)."""
        if self._closed:
            return
        self._closed = True
        now = self._emitter.clock()
        self._emitter._pop(self)
        self._emitter.emit(
            RunFinished(
                run_id=self.run_id,
                done_units=self.done_units,
                wall_s=now - self.started_ts,
                best_objective=self.best_objective,
                ts=now,
            )
        )

    def interrupt(self, reason: str = "") -> None:
        """Close the run as interrupted (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self._emitter._pop(self)
        self._emitter.emit(
            RunInterrupted(
                run_id=self.run_id,
                done_units=self.done_units,
                reason=reason,
                ts=self._emitter.clock(),
            )
        )


class NullRunHandle:
    """The shared do-nothing handle of the disabled path."""

    enabled = False
    run_id = ""
    flow = ""
    unit = ""
    total_units: Optional[int] = None
    done_units = 0
    errors = 0
    best_objective: Optional[float] = None

    def advance(self, completed: int, **kwargs: Any) -> None:
        pass

    def heartbeat(self, worker: str = "", note: str = "") -> None:
        pass

    def best(self, objective: float, **kwargs: Any) -> bool:
        return False

    def cache_stats(self, hits: int, misses: int, **kwargs: Any) -> None:
        pass

    def finish(self) -> None:
        pass

    def interrupt(self, reason: str = "") -> None:
        pass

    def __enter__(self) -> "NullRunHandle":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


NULL_RUN = NullRunHandle()


# --------------------------------------------------------------------- #
# Emitters
# --------------------------------------------------------------------- #


class ProgressEmitter:
    """Fan events out to subscribers; tracks the open-run stack.

    ``clock`` is injectable for deterministic tests (defaults to wall
    time, which is what cross-process dashboards need). Subscribers are
    plain callables of one event; exceptions they raise propagate to the
    emit site (telemetry bugs should be loud in this codebase, not
    swallowed).
    """

    enabled = True

    def __init__(self, clock: Callable[[], float] = time.time) -> None:
        self.clock = clock
        self._subscribers: List[Callable[[ProgressEvent], None]] = []
        self._run_stack: List[RunHandle] = []
        self._next_run = 1

    # -- subscription ---------------------------------------------------- #

    def subscribe(self, subscriber: Callable[[ProgressEvent], None]) -> None:
        """Register a callable receiving every emitted event."""
        self._subscribers.append(subscriber)

    def emit(self, event: ProgressEvent) -> None:
        """Stamp ``ts`` (when unset) and deliver to every subscriber."""
        if not event.ts:
            event = dataclasses.replace(event, ts=self.clock())
        for subscriber in self._subscribers:
            subscriber(event)

    def close(self) -> None:
        """Close every subscriber that has a ``close()`` (JSONL sinks)."""
        for subscriber in self._subscribers:
            close = getattr(subscriber, "close", None)
            if close is not None:
                close()

    # -- runs ------------------------------------------------------------ #

    def start_run(
        self,
        flow: str,
        *,
        total_units: Optional[int] = None,
        unit: str = "units",
        accelerator: str = "",
        layer: str = "",
    ) -> RunHandle:
        """Open a run: emits :class:`RunStarted`, returns its handle."""
        run_id = f"r{self._next_run}"
        self._next_run += 1
        handle = RunHandle(self, run_id, flow, total_units, unit)
        self._run_stack.append(handle)
        self.emit(
            RunStarted(
                run_id=run_id,
                flow=flow,
                total_units=total_units,
                unit=unit,
                accelerator=accelerator,
                layer=layer,
                ts=handle.started_ts,
            )
        )
        return handle

    def join_run(self, flow: str, *, unit: str, **kwargs: Any):
        """The innermost open run of ``unit``, else a new one (as a ``with``).

        This is how nested emit sites attach to their caller's run: the
        engine's ``evaluate_many`` accrues chunk progress into an
        enclosing mapper-search run instead of opening one run per batch.
        A joined run stays open when the block exits, because its owner
        closes it; a run opened here closes like :meth:`start_run`'s.
        """
        run = self.current_run(unit)
        if run is None:
            return self.start_run(flow, unit=unit, **kwargs)
        return nullcontext(run)

    def current_run(self, unit: Optional[str] = None) -> Optional[RunHandle]:
        """The innermost open run (optionally only if its unit matches)."""
        if not self._run_stack:
            return None
        top = self._run_stack[-1]
        if unit is not None and top.unit != unit:
            return None
        return top

    def _pop(self, handle: RunHandle) -> None:
        if handle in self._run_stack:
            self._run_stack.remove(handle)


class NullProgressEmitter:
    """The allocation-free disabled emitter (ambient default)."""

    enabled = False

    @staticmethod
    def clock() -> float:
        return 0.0

    def subscribe(self, subscriber: Callable[[ProgressEvent], None]) -> None:
        pass

    def emit(self, event: ProgressEvent) -> None:
        pass

    def close(self) -> None:
        pass

    def start_run(self, flow: str, **kwargs: Any) -> NullRunHandle:
        return NULL_RUN

    def join_run(self, flow: str, **kwargs: Any) -> NullRunHandle:
        return NULL_RUN

    def current_run(self, unit: Optional[str] = None) -> None:
        return None


NULL_EMITTER = NullProgressEmitter()


# --------------------------------------------------------------------- #
# Sinks and sources
# --------------------------------------------------------------------- #


class JsonlSink:
    """Append events to a JSONL file, one flushed line per event.

    Per-event flushing is deliberate: ``repro-latency top --follow``
    tails the file while the producing process is still running, and an
    interrupted run must leave every event it emitted on disk.
    """

    def __init__(self, path: str) -> None:
        self.path = str(path)
        self._handle: Optional[IO[str]] = open(self.path, "w")
        self.events_written = 0

    def __call__(self, event: ProgressEvent) -> None:
        if self._handle is None:
            raise ValueError(f"JsonlSink({self.path!r}) is closed")
        self._handle.write(json.dumps(event_to_dict(event), sort_keys=True) + "\n")
        self._handle.flush()
        self.events_written += 1

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None


def read_events(path: str) -> List[ProgressEvent]:
    """Load a recorded events.jsonl (skipping blank/truncated last lines)."""
    out: List[ProgressEvent] = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                data = json.loads(line)
            except json.JSONDecodeError:
                continue  # a writer mid-line; the tail will be re-read
            out.append(event_from_dict(data))
    return out


def follow_events(
    path: str,
    poll_s: float = 0.5,
    *,
    sleep: Callable[[float], None] = time.sleep,
) -> Iterator[List[ProgressEvent]]:
    """Tail a growing events.jsonl, yielding each poll's new events.

    Yields one (possibly empty) batch per poll, forever — the consumer
    decides when to stop (all runs closed, or Ctrl-C). A missing file is
    treated as not-yet-created: the generator waits for it to appear.
    """
    offset = 0
    buffer = ""
    while True:
        batch: List[ProgressEvent] = []
        try:
            with open(path) as handle:
                handle.seek(offset)
                chunk = handle.read()
                offset = handle.tell()
        except FileNotFoundError:
            chunk = ""
        buffer += chunk
        while "\n" in buffer:
            line, buffer = buffer.split("\n", 1)
            line = line.strip()
            if line:
                batch.append(event_from_dict(json.loads(line)))
        yield batch
        sleep(poll_s)


# --------------------------------------------------------------------- #
# Metrics bridge
# --------------------------------------------------------------------- #


class MetricsSubscriber:
    """Mirror the event stream into a :class:`MetricsRegistry`.

    Exposes the live counters a scrape wants while a search is running:
    ``repro_progress_evals_per_second``, ``repro_progress_cache_hit_rate``,
    ``repro_progress_active_workers`` (workers heard from within the
    stall threshold of the latest event), ``repro_progress_best_objective``
    and the run/unit/error totals. Wired automatically by the CLI when
    both ``--metrics`` and an event stream are active. Campaign events
    are not mirrored: the ``repro_campaign_*`` gauges have one writer,
    :class:`~repro.observability.campaign.CampaignRecorder`, which also
    runs without an event stream.
    """

    def __init__(
        self, registry, stall_threshold_s: float = STALL_THRESHOLD_S
    ) -> None:
        self._registry = registry
        self._threshold = stall_threshold_s
        self._last_seen: Dict[str, float] = {}

    def __call__(self, event: ProgressEvent) -> None:
        registry = self._registry
        if isinstance(event, (Heartbeat, ChunkCompleted)):
            if event.worker:
                self._last_seen[event.worker] = event.ts
            active = sum(
                1
                for seen in self._last_seen.values()
                if event.ts - seen <= self._threshold
            )
            registry.gauge(
                "repro_progress_active_workers",
                "Workers heard from within the stall threshold.",
            ).set(active)
        if isinstance(event, ChunkCompleted):
            registry.counter(
                "repro_progress_units_total", "Work units completed."
            ).inc(event.completed)
            if event.errors:
                registry.counter(
                    "repro_progress_errors_total",
                    "Infeasible / violating work units.",
                ).inc(event.errors)
            if event.unit == "evals":
                registry.gauge(
                    "repro_progress_evals_per_second",
                    "Rolling evaluation throughput.",
                ).set(event.evals_per_s)
        elif isinstance(event, CacheStats):
            registry.gauge(
                "repro_progress_cache_hit_rate",
                "Engine cache hit rate of the emitting run.",
            ).set(event.hit_rate)
        elif isinstance(event, BestSoFar):
            registry.gauge(
                "repro_progress_best_objective",
                "Incumbent objective of the emitting run.",
            ).set(event.objective)
        elif isinstance(event, RunStarted):
            registry.counter(
                "repro_progress_runs_started_total", "Runs started."
            ).inc()
        elif isinstance(event, RunFinished):
            registry.counter(
                "repro_progress_runs_finished_total", "Runs finished."
            ).inc()
        elif isinstance(event, RunInterrupted):
            registry.counter(
                "repro_progress_runs_interrupted_total", "Runs interrupted."
            ).inc()
        elif isinstance(event, WorkerStalled):
            registry.counter(
                "repro_progress_worker_stalls_total",
                "Heartbeat-loss warnings emitted.",
            ).inc()


def console_subscriber(
    write: Callable[[str], None] = print, *, verbose: bool = False
) -> Callable[[ProgressEvent], None]:
    """A subscriber printing notable events as console lines.

    By default only lifecycle events, errors, incumbents and stall
    warnings print (what a human watching a long run wants); ``verbose``
    prints every event.
    """

    def _print(event: ProgressEvent) -> None:
        notable = isinstance(
            event,
            (RunStarted, RunFinished, RunInterrupted, BestSoFar, WorkerStalled),
        ) or (isinstance(event, ChunkCompleted) and event.errors > 0)
        if verbose or notable:
            write(format_event(event))

    return _print


__all__ = [
    "BestSoFar",
    "CacheStats",
    "ChunkCompleted",
    "ConvergenceUpdate",
    "EVENT_TYPES",
    "EtaEstimator",
    "FunnelSnapshot",
    "Heartbeat",
    "JsonlSink",
    "MetricsSubscriber",
    "NULL_EMITTER",
    "NULL_RUN",
    "NullProgressEmitter",
    "NullRunHandle",
    "ParetoFrontSnapshot",
    "ProgressEmitter",
    "ProgressEvent",
    "RATE_WINDOW_S",
    "RunFinished",
    "RunHandle",
    "RunInterrupted",
    "RunStarted",
    "STALL_THRESHOLD_S",
    "WorkerStalled",
    "console_subscriber",
    "event_from_dict",
    "event_to_dict",
    "follow_events",
    "format_event",
    "format_duration",
    "read_events",
    "worker_id",
]
