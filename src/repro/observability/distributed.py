"""Distributed observability: trace propagation + the flight recorder.

The in-process tracer (:mod:`repro.observability.tracer`) dies at the
socket: a :class:`~repro.serve.client.RemoteEngine` caller's trace used
to end at "wrote request, read response", with the daemon's queue-wait /
kernel time invisible. This module is the bridge:

* **Context propagation** — :func:`inject_trace` captures the ambient
  tracer's identity (``trace_id``, the currently open ``span_id``, a
  sampling bit) as a small dict the wire protocol carries in the
  optional ``trace`` field of an evaluate request; :func:`extract_trace`
  is the tolerant inverse on the server (absent / malformed / unknown
  payloads yield ``None``, never an error — old clients keep working).
  When no tracer is active :func:`inject_trace` returns ``None`` without
  allocating anything, so the hot path of an untraced client is
  unchanged.
* **Span serde** — :func:`span_to_dict` / :func:`span_from_dict` move
  :class:`~repro.observability.span.SpanRecord` lists across the wire as
  plain JSON (same tolerance rules). The server ships its finished
  request subtree back in the response; the client grafts it under its
  transport span with :meth:`~repro.observability.Tracer.merge`, so the
  Chrome export shows client -> daemon -> kernel in one timeline.
* **The per-request record** — :class:`RequestRecord` is one evaluate
  request as the daemon saw it. Every per-request view is a projection
  of it: :func:`server_span_records` builds the server subtree
  (``serve.request`` with queue-wait / coalesce-wait / kernel /
  store-write children, the kernel's own stall-attribution spans
  re-rooted under the kernel span) after the fact from the record's
  timings, because the request crosses the event loop, a queue, and an
  executor thread — there is no single stack to nest live spans on;
  the flight entry, the ``/statusz`` slow entry and the slow-request
  ledger row are its other projections.
* **Flight recorder** — :class:`FlightRecorder`, an always-on bounded
  ring of each request's flight entry that dumps to JSONL on SIGQUIT,
  on ``/statusz?dump=1``, and automatically on drain/error, so
  post-mortems need no pre-enabled tracing.
"""

from __future__ import annotations

import dataclasses
import json
import threading
import time
from collections import deque
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence

from repro.observability.span import SpanRecord
from repro.observability.telemetry import telemetry

__all__ = [
    "FlightRecorder",
    "RequestRecord",
    "TraceContext",
    "extract_trace",
    "inject_trace",
    "server_span_records",
    "span_from_dict",
    "span_to_dict",
    "spans_from_wire",
    "spans_to_wire",
]


# --------------------------------------------------------------------- #
# Trace-context propagation
# --------------------------------------------------------------------- #

@dataclasses.dataclass(frozen=True)
class TraceContext:
    """The portable identity of one client-side trace position.

    ``trace_id`` names the client's whole trace; ``span_id`` is the
    client span that was open when the request left (the transport
    span), i.e. the node the server's subtree conceptually hangs off;
    ``sampled`` says whether the server should bother building and
    shipping spans at all.
    """

    trace_id: str
    span_id: int
    sampled: bool = True

    def to_dict(self) -> Dict[str, Any]:
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "sampled": self.sampled,
        }


def inject_trace() -> Optional[Dict[str, Any]]:
    """Capture the ambient tracer's context for the wire, or ``None``.

    The disabled path is the common one and must stay allocation-free:
    with the ambient :class:`~repro.observability.tracer.NullTracer`
    this is one contextvar read and one attribute check.
    """
    tracer = telemetry().tracer
    if not tracer.enabled:
        return None
    return {
        "trace_id": tracer.trace_id,
        "span_id": tracer.current_span_id() or 0,
        "sampled": True,
    }


def extract_trace(data: Any) -> Optional[TraceContext]:
    """Tolerant inverse of :func:`inject_trace`.

    Absent (``None``), non-dict, or field-incomplete payloads — e.g.
    from an old client that never sends ``trace``, or a newer one with
    fields we don't know — all yield ``None``. Unknown keys are ignored.
    """
    if not isinstance(data, dict):
        return None
    trace_id = data.get("trace_id")
    span_id = data.get("span_id")
    if not isinstance(trace_id, str) or not trace_id:
        return None
    if not isinstance(span_id, int) or isinstance(span_id, bool):
        return None
    return TraceContext(
        trace_id=trace_id,
        span_id=span_id,
        sampled=bool(data.get("sampled", True)),
    )


# --------------------------------------------------------------------- #
# Span wire serde
# --------------------------------------------------------------------- #

def span_to_dict(record: SpanRecord) -> Dict[str, Any]:
    """One span record as a plain JSON-ready dict (field names spelled out)."""
    return {
        "span_id": record.span_id,
        "parent_id": record.parent_id,
        "name": record.name,
        "start_us": record.start_us,
        "duration_us": record.duration_us,
        "attributes": record.attributes,
    }


def span_from_dict(data: Dict[str, Any]) -> SpanRecord:
    """Inverse of :func:`span_to_dict`; unknown keys (such as the
    ``track`` an older daemon sends) are ignored."""
    parent = data.get("parent_id")
    return SpanRecord(
        span_id=int(data["span_id"]),
        parent_id=int(parent) if parent is not None else None,
        name=str(data["name"]),
        start_us=float(data.get("start_us", 0.0)),
        duration_us=float(data.get("duration_us", 0.0)),
        attributes=dict(data.get("attributes") or {}),
    )


def spans_to_wire(records: Sequence[SpanRecord]) -> List[Dict[str, Any]]:
    """A record list as its wire form (empty list stays empty)."""
    return [span_to_dict(r) for r in records]


def spans_from_wire(data: Optional[Iterable[Any]]) -> List[SpanRecord]:
    """Tolerant inverse of :func:`spans_to_wire`.

    ``None`` (old server: no ``spans`` field) and malformed entries are
    dropped silently — a client must never fail an evaluation over a
    bad observability payload.
    """
    if not data:
        return []
    records: List[SpanRecord] = []
    for item in data:
        if not isinstance(item, dict):
            continue
        try:
            records.append(span_from_dict(item))
        except (KeyError, TypeError, ValueError):
            continue
    return records


# --------------------------------------------------------------------- #
# The per-request record and its projections
# --------------------------------------------------------------------- #

@dataclasses.dataclass
class RequestRecord:
    """One evaluate request as the daemon saw it, from arrival to answer.

    The server fills it in as the request moves through store,
    coalescing, queue and kernel, and stamps the outcome when it
    answers; every per-request view is a projection of it. Phase times
    are microseconds; ``start_s`` is the ``perf_counter`` at arrival and
    ``ts`` the unix time of the answer. ``traceback`` is set only for a
    fault caught by a last-resort handler, whose flight entry carries
    nothing else.
    """

    id: int = -1
    queued_at_arrival: int = 0      # kernel-queue depth on arrival
    start_s: float = 0.0
    accel_fp: str = ""
    options_fp: str = ""
    mapping_fp: str = ""
    evaluated: bool = False         # a kernel actually ran for it
    queue_wait_us: float = 0.0
    coalesce_wait_us: float = 0.0
    kernel_us: float = 0.0
    store_write_us: float = 0.0
    kernel_records: Sequence[SpanRecord] = ()
    wall_s: float = 0.0
    ts: float = dataclasses.field(default_factory=time.time)
    outcome: str = ""               # the response's source, or error kind
    traceback: Optional[str] = None

    def flight_entry(self) -> Dict[str, Any]:
        """The flight-ring fields (the ring adds ``seq`` and ``ts``)."""
        if self.traceback is not None:
            return {"id": self.id, "outcome": self.outcome,
                    "traceback": self.traceback}
        return {
            "id": self.id,
            "outcome": self.outcome,
            "wall_ms": round(self.wall_s * 1e3, 3),
            "queue_wait_ms": round(self.queue_wait_us / 1e3, 3),
            "kernel_ms": round(self.kernel_us / 1e3, 3),
            "accel_fp": self.accel_fp[:8],
            "mapping_fp": self.mapping_fp[:12],
            "queue_depth": self.queued_at_arrival,
        }

    def slow_entry(self, threshold_ms: float) -> Dict[str, Any]:
        """The ``/statusz`` slow-log entry: the flight fields plus the
        other phases and the threshold the request crossed."""
        return dict(
            self.flight_entry(),
            ts=self.ts,
            coalesce_wait_ms=round(self.coalesce_wait_us / 1e3, 3),
            store_write_ms=round(self.store_write_us / 1e3, 3),
            threshold_ms=float(threshold_ms),
        )


def server_span_records(
    context: TraceContext, record: RequestRecord, **attrs: Any
) -> List[SpanRecord]:
    """The server-side span subtree of one answered request.

    Returns a well-formed flat record list rooted at ``serve.request``
    (negative span ids, so remapping on the client side can never
    collide with the kernel records' positive ids):

    - ``serve.request`` — the whole server wall time, stamped with the
      propagated ``trace_id`` / client ``span_id``, the provenance
      (``source``: evaluated / store / warm / coalesced), the mapping
      fingerprint and ``attrs``.
    - ``serve.queue_wait`` — admission to kernel pickup (absent when the
      request never queued: store/warm hits).
    - ``serve.coalesce_wait`` — time spent attached to another
      request's in-flight evaluation.
    - ``serve.kernel`` — kernel-thread occupancy (present when a kernel
      ran for this request); the kernel's own ``engine.evaluate`` ->
      ``model.step*`` stall-attribution subtree is re-rooted beneath it.
    - ``serve.store_write`` — result-store write-through.
    """
    start_us = record.start_s * 1e6
    end_us = (record.start_s + record.wall_s) * 1e6
    attrs = {"mapping_fp": record.mapping_fp[:12] or None, **attrs}
    spans = [SpanRecord(
        span_id=-1,
        parent_id=None,
        name="serve.request",
        start_us=start_us,
        duration_us=max(0.0, end_us - start_us),
        attributes={
            "trace_id": context.trace_id,
            "client_span_id": context.span_id,
            "source": record.outcome,
            **{k: v for k, v in attrs.items() if v is not None},
        },
    )]
    phases = (
        ("serve.queue_wait", record.queue_wait_us, record.queue_wait_us > 0.0),
        ("serve.coalesce_wait", record.coalesce_wait_us,
         record.coalesce_wait_us > 0.0),
        ("serve.kernel", record.kernel_us, record.evaluated),
        ("serve.store_write", record.store_write_us, record.store_write_us > 0.0),
    )
    cursor, next_id = start_us, -2
    for name, duration_us, present in phases:
        if not present:
            continue
        span = SpanRecord(
            span_id=next_id, parent_id=-1, name=name,
            start_us=cursor, duration_us=max(0.0, duration_us),
        )
        spans.append(span)
        cursor += span.duration_us
        next_id -= 1
        if name == "serve.kernel" and record.kernel_records:
            # Re-root the kernel's stall-attribution records under the
            # kernel span, keeping their own (positive) ids and links —
            # the id spaces are disjoint by construction.
            offset = span.start_us - min(r.start_us for r in record.kernel_records)
            spans.extend(
                dataclasses.replace(
                    r,
                    parent_id=r.parent_id if r.parent_id is not None else span.span_id,
                    start_us=r.start_us + offset,
                    attributes=dict(r.attributes),
                )
                for r in record.kernel_records
            )
    return spans


# --------------------------------------------------------------------- #
# Flight recorder
# --------------------------------------------------------------------- #

class FlightRecorder:
    """Always-on bounded ring buffer of compact per-request entries.

    The black box: every request — hit, miss, coalesced, failed —
    appends its :meth:`RequestRecord.flight_entry`. The ring holds the
    last ``capacity`` of them at O(1) cost per request and dumps to
    JSONL on demand (SIGQUIT, ``/statusz?dump=1``, drain, first server
    error), so a post-mortem needs no pre-enabled tracing.

    Thread-safe: the server's event loop, the admin HTTP thread, and
    signal handlers all touch it.
    """

    def __init__(self, capacity: int = 512) -> None:
        self.capacity = int(capacity)
        self._ring: deque = deque(maxlen=self.capacity)
        self._lock = threading.Lock()
        self._seq = 0
        self.dumps = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._ring)

    def record(self, request: RequestRecord) -> None:
        """Append one request's entry, stamped with a sequence number
        and the request's answer time."""
        fields = request.flight_entry()
        with self._lock:
            self._seq += 1
            self._ring.append({"seq": self._seq, "ts": request.ts, **fields})

    def snapshot(self) -> List[Dict[str, Any]]:
        """The ring's contents, oldest first (entries are copied)."""
        with self._lock:
            return [dict(entry) for entry in self._ring]

    def last(self) -> Optional[Dict[str, Any]]:
        """The most recent entry, or ``None`` when empty."""
        with self._lock:
            return dict(self._ring[-1]) if self._ring else None

    def to_jsonl(self) -> str:
        """The ring as JSONL text (one entry per line, oldest first)."""
        return "".join(
            json.dumps(entry, sort_keys=True, default=str) + "\n"
            for entry in self.snapshot()
        )

    def dump(self, path, text: Optional[str] = None) -> int:
        """Write ``text`` to ``path``; returns its entry count.

        ``text`` defaults to :meth:`to_jsonl` now; a caller that also
        answers with the ring passes the text it rendered, so the answer
        and the file are one snapshot. Each dump is a complete,
        self-consistent file (truncate, not append) — the newest dump is
        the one that matters in a post-mortem, and repeated SIGQUITs
        must not interleave.
        """
        if text is None:
            text = self.to_jsonl()
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(text, encoding="utf-8")
        with self._lock:
            self.dumps += 1
        return text.count("\n")
