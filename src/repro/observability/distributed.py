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
* **Server span assembly** — :func:`server_span_records` builds the
  per-request server subtree (``serve.request`` with queue-wait /
  coalesce-wait / kernel / store-write children, the kernel's own
  stall-attribution spans re-rooted under the kernel span) from the
  phase timestamps the server collects anyway. Spans are assembled
  after the fact from timings rather than opened live because the
  request crosses the event loop, a queue, and an executor thread —
  there is no single stack to nest them on.
* **Flight recorder** — :class:`FlightRecorder`, an always-on bounded
  ring of compact per-request records that dumps to JSONL on SIGQUIT,
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
        "track": record.track,
    }


def span_from_dict(data: Dict[str, Any]) -> SpanRecord:
    """Inverse of :func:`span_to_dict`; unknown keys are ignored."""
    parent = data.get("parent_id")
    return SpanRecord(
        span_id=int(data["span_id"]),
        parent_id=int(parent) if parent is not None else None,
        name=str(data["name"]),
        start_us=float(data.get("start_us", 0.0)),
        duration_us=float(data.get("duration_us", 0.0)),
        attributes=dict(data.get("attributes") or {}),
        track=int(data.get("track", 0)),
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
# Server-side request subtree
# --------------------------------------------------------------------- #

def server_span_records(
    *,
    context: TraceContext,
    start_us: float,
    end_us: float,
    evaluated: bool = False,
    queue_wait_us: float = 0.0,
    coalesce_wait_us: float = 0.0,
    kernel_us: float = 0.0,
    store_write_us: float = 0.0,
    kernel_records: Sequence[SpanRecord] = (),
    source: str = "evaluated",
    **attrs: Any,
) -> List[SpanRecord]:
    """Assemble the server-side subtree for one finished request.

    Returns a well-formed flat record list rooted at ``serve.request``
    (negative span ids, so remapping on the client side can never
    collide with the kernel records' positive ids):

    - ``serve.request`` — the whole server wall time, stamped with the
      propagated ``trace_id`` / client ``span_id`` and the provenance
      (``source``: evaluated / store / warm / coalesced).
    - ``serve.queue_wait`` — admission to kernel pickup (absent when the
      request never queued: store/warm hits).
    - ``serve.coalesce_wait`` — time spent attached to another
      request's in-flight evaluation.
    - ``serve.kernel`` — kernel-thread occupancy (present when
      ``evaluated``: a kernel ran for this request); the kernel's own
      ``engine.evaluate`` -> ``model.step*`` stall-attribution subtree
      is re-rooted beneath it.
    - ``serve.store_write`` — result-store write-through.
    """
    root = SpanRecord(
        span_id=-1,
        parent_id=None,
        name="serve.request",
        start_us=start_us,
        duration_us=max(0.0, end_us - start_us),
        attributes={
            "trace_id": context.trace_id,
            "client_span_id": context.span_id,
            "source": source,
            **{k: v for k, v in attrs.items() if v is not None},
        },
    )
    records = [root]
    cursor = start_us
    next_id = -2

    def child(name: str, duration_us: float, **attributes: Any) -> SpanRecord:
        nonlocal cursor, next_id
        record = SpanRecord(
            span_id=next_id,
            parent_id=-1,
            name=name,
            start_us=cursor,
            duration_us=max(0.0, duration_us),
            attributes={k: v for k, v in attributes.items() if v is not None},
        )
        next_id -= 1
        cursor += record.duration_us
        records.append(record)
        return record

    if queue_wait_us > 0.0:
        child("serve.queue_wait", queue_wait_us)
    if coalesce_wait_us > 0.0:
        child("serve.coalesce_wait", coalesce_wait_us)
    if evaluated:
        kernel_span = child("serve.kernel", kernel_us)
        if kernel_records:
            # Re-root the kernel's stall-attribution records under the
            # kernel span, keeping their own (positive) ids and links —
            # the id spaces are disjoint by construction.
            kernel_id = kernel_span.span_id
            base = min(r.start_us for r in kernel_records)
            offset = kernel_span.start_us - base
            for r in kernel_records:
                records.append(
                    SpanRecord(
                        span_id=r.span_id,
                        parent_id=r.parent_id if r.parent_id is not None else kernel_id,
                        name=r.name,
                        start_us=r.start_us + offset,
                        duration_us=r.duration_us,
                        attributes=dict(r.attributes),
                        track=r.track,
                    )
                )
    if store_write_us > 0.0:
        child("serve.store_write", store_write_us)
    return records


# --------------------------------------------------------------------- #
# Flight recorder
# --------------------------------------------------------------------- #

class FlightRecorder:
    """Always-on bounded ring buffer of compact per-request records.

    The black box: every request — hit, miss, coalesced, failed —
    appends one small dict (ids, timings, outcome). The ring holds the
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

    def record(self, **fields: Any) -> None:
        """Append one record, stamped with a sequence number and unix time."""
        with self._lock:
            self._seq += 1
            entry = {"seq": self._seq, "ts": time.time()}
            entry.update(fields)
            self._ring.append(entry)

    def snapshot(self) -> List[Dict[str, Any]]:
        """The ring's contents, oldest first (records are copied)."""
        with self._lock:
            return [dict(entry) for entry in self._ring]

    def last(self) -> Optional[Dict[str, Any]]:
        """The most recent record, or ``None`` when empty."""
        with self._lock:
            return dict(self._ring[-1]) if self._ring else None

    def to_jsonl(self) -> str:
        """The ring as JSONL text (one record per line, oldest first)."""
        return "".join(
            json.dumps(entry, sort_keys=True, default=str) + "\n"
            for entry in self.snapshot()
        )

    def dump(self, path) -> int:
        """Write the ring to ``path`` as JSONL; returns the record count.

        Each dump is a complete, self-consistent file (truncate, not
        append) — the newest dump is the one that matters in a
        post-mortem, and repeated SIGQUITs must not interleave.
        """
        entries = self.snapshot()
        target = Path(path)
        if target.parent and not target.parent.exists():
            target.parent.mkdir(parents=True, exist_ok=True)
        with open(target, "w", encoding="utf-8") as fh:
            for entry in entries:
                fh.write(json.dumps(entry, sort_keys=True, default=str) + "\n")
        with self._lock:
            self.dumps += 1
        return len(entries)
