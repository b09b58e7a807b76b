"""``repro-latency top``: a terminal dashboard over a progress stream.

Renders the live state of a long-running search — per-run progress bars
with throughput and ETA, per-worker liveness (with stall flags), best
incumbent objective and engine-cache stats — from an ``events.jsonl``
written by a :class:`~repro.observability.progress.JsonlSink`:

* **replay** (default): read a finished (or partial) recording, render
  the final state once and exit — deterministic, which is how the
  committed snapshot test pins the output byte for byte;
* **follow** (``--follow``): tail a file another process is still
  writing, redrawing in place until every run has closed (or Ctrl-C).

All time arithmetic uses *event* timestamps, never the wall clock — the
"now" of a rendering is the newest event's ``ts`` — so replaying the
same file always renders the same text.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Callable, Dict, Iterable, List, Optional

from repro.observability.progress import (
    BestSoFar,
    CacheStats,
    ChunkCompleted,
    Heartbeat,
    ProgressEvent,
    ProgressFormatError,
    RunFinished,
    RunInterrupted,
    RunStarted,
    STALL_THRESHOLD_S,
    WorkerStalled,
    follow_events,
    format_duration,
    read_events,
)

#: ANSI sequence that repaints the screen in follow mode.
_CLEAR = "\x1b[2J\x1b[H"


@dataclasses.dataclass
class RunRow:
    """Everything the dashboard shows about one run."""

    run_id: str
    flow: str = ""
    unit: str = "units"
    total_units: Optional[int] = None
    done_units: int = 0
    errors: int = 0
    rate: float = 0.0
    eta_s: Optional[float] = None
    best: Optional[float] = None
    status: str = "active"          # "active" | "done" | "interrupted"
    started_ts: float = 0.0
    wall_s: float = 0.0
    note: str = ""


class DashboardState:
    """Fold a progress-event stream into the dashboard's model."""

    def __init__(self, stall_threshold_s: float = STALL_THRESHOLD_S) -> None:
        self.stall_threshold_s = stall_threshold_s
        self.runs: Dict[str, RunRow] = {}        # insertion-ordered
        self.worker_seen: Dict[str, float] = {}
        self.cache: Optional[CacheStats] = None
        self.stalls: List[WorkerStalled] = []
        self.events_seen = 0
        self.last_ts = 0.0

    def apply(self, event: ProgressEvent) -> None:
        """Consume one event (usable directly as an emitter subscriber)."""
        self.events_seen += 1
        self.last_ts = max(self.last_ts, event.ts)
        run = self.runs.get(event.run_id)
        if isinstance(event, RunStarted):
            self.runs[event.run_id] = RunRow(
                run_id=event.run_id,
                flow=event.flow,
                unit=event.unit,
                total_units=event.total_units,
                started_ts=event.ts,
            )
            return
        if isinstance(event, (Heartbeat, ChunkCompleted)) and event.worker:
            self.worker_seen[event.worker] = event.ts
        if run is None:
            return  # event for a run whose start predates the recording
        if isinstance(event, ChunkCompleted):
            run.done_units = event.done_units
            run.errors += event.errors
            run.rate = event.evals_per_s
            run.eta_s = event.eta_s
            if event.note:
                run.note = event.note
        elif isinstance(event, BestSoFar):
            run.best = event.objective
        elif isinstance(event, CacheStats):
            self.cache = event
        elif isinstance(event, WorkerStalled):
            self.stalls.append(event)
        elif isinstance(event, RunInterrupted):
            run.status = "interrupted"
            run.done_units = max(run.done_units, event.done_units)
            run.wall_s = event.ts - run.started_ts
            run.eta_s = None
        elif isinstance(event, RunFinished):
            run.status = "done"
            run.done_units = max(run.done_units, event.done_units)
            run.wall_s = event.wall_s
            run.eta_s = None
            if event.best_objective is not None:
                run.best = event.best_objective

    def apply_all(self, events: Iterable[ProgressEvent]) -> None:
        for event in events:
            self.apply(event)

    @property
    def all_closed(self) -> bool:
        """True when every seen run has finished or been interrupted."""
        return bool(self.runs) and all(
            row.status != "active" for row in self.runs.values()
        )


def _bar(done: int, total: Optional[int], width: int = 20) -> str:
    """A fixed-width progress bar; indeterminate without a total."""
    if total is None or total <= 0:
        return "[" + "." * width + "]"
    filled = min(width, int(width * min(done, total) / total))
    return "[" + "#" * filled + "-" * (width - filled) + "]"


def render(state: DashboardState, *, width: int = 78, footer: str = "") -> str:
    """The dashboard as deterministic plain text.

    Liveness ("Ns ago") is relative to ``state.last_ts``, so rendering a
    recording is a pure function of its events.
    """
    now = state.last_ts
    rule = "=" * width
    lines = [rule, "repro-latency top".center(width).rstrip(), rule]

    lines.append("runs:")
    if not state.runs:
        lines.append("  (none)")
    for row in state.runs.values():
        total = "?" if row.total_units is None else str(row.total_units)
        progress = f"{row.done_units}/{total} {row.unit}"
        err = f"  {row.errors} err" if row.errors else ""
        if row.status == "active":
            rate = f"{row.rate:.1f}/s" if row.rate else "-"
            eta = (
                f"eta {format_duration(row.eta_s)}"
                if row.eta_s is not None
                else "eta --:--"
            )
            tail = f"{rate}  {eta}"
        else:
            tail = f"{row.status} in {row.wall_s:.1f}s"
        best = f"  best {row.best:g}" if row.best is not None else ""
        lines.append(
            f"  {row.run_id:<4} {row.flow:<20} "
            f"{_bar(row.done_units, row.total_units)} "
            f"{progress:<18} {tail}{best}{err}"
        )

    lines.append("workers:")
    if not state.worker_seen:
        lines.append("  (none)")
    for worker in sorted(state.worker_seen):
        ago = now - state.worker_seen[worker]
        flag = "STALLED" if ago > state.stall_threshold_s else "ok"
        lines.append(f"  {worker:<12} last seen {ago:6.1f}s ago  {flag}")

    if state.cache is not None:
        cache = state.cache
        lines.append(
            f"cache: {cache.hits} hit(s), {cache.misses} miss(es), "
            f"{cache.hit_rate:.1%} hit rate"
        )
    if state.stalls:
        lines.append(f"stall warnings: {len(state.stalls)}")
    lines.append(f"events: {state.events_seen}")
    if footer:
        lines.append(footer)
    return "\n".join(lines)


def run_top(
    events_path: str,
    *,
    follow: bool = False,
    plain: bool = True,
    poll_s: float = 0.5,
    max_polls: Optional[int] = None,
    write: Callable[[str], None] = print,
    sleep: Callable[[float], None] = time.sleep,
    footer: Optional[Callable[[], str]] = None,
) -> int:
    """Drive the dashboard; the body of ``repro-latency top``.

    Replay mode reads the whole recording and writes one final snapshot.
    Follow mode redraws after each poll that brought new events (with an
    ANSI repaint unless ``plain``) and returns once every run has closed;
    ``max_polls`` bounds the tail for tests and smoke runs. ``footer``
    (e.g. a live :meth:`RemoteEngine.remote_stats` summary, via ``top
    --engine URL``) is re-queried for each redraw and appended as the
    last line. Returns a shell exit code: 2, with one ``top:`` line, when
    a line of the recording does not hold an event, or when the recording
    is missing/empty and not followed.
    """
    state = DashboardState()
    if not follow:
        try:
            events = read_events(events_path)
        except FileNotFoundError:
            write(f"top: no events file at {events_path}")
            return 2
        except ProgressFormatError as exc:
            write(f"top: {exc}")
            return 2
        if not events:
            write(f"top: {events_path} holds no events yet")
            return 2
        state.apply_all(events)
        write(render(state, footer=footer() if footer else ""))
        return 0

    polls = 0
    try:
        for batch in follow_events(events_path, poll_s, sleep=sleep):
            state.apply_all(batch)
            if batch:
                write(
                    ("" if plain else _CLEAR)
                    + render(state, footer=footer() if footer else "")
                )
            if state.all_closed:
                break
            polls += 1
            if max_polls is not None and polls >= max_polls:
                break
    except KeyboardInterrupt:
        pass  # detaching from a live run is not an error
    except ProgressFormatError as exc:
        write(f"top: {exc}")
        return 2
    if state.events_seen == 0:
        write(f"top: {events_path} holds no events yet")
        return 2
    return 0


__all__ = ["DashboardState", "RunRow", "render", "run_top"]
