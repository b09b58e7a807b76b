"""Hierarchical tracing: the :class:`Tracer`, its no-op twin, and the
ambient-tracer plumbing that threads spans through the whole evaluation
path without changing a single kernel signature.

Design rules:

* **Disabled is the default and costs (almost) nothing.** The ambient
  tracer is a process-wide :class:`NullTracer` singleton; instrumented
  code reads ``telemetry().tracer`` (one contextvar read, see
  :mod:`repro.observability.telemetry`) and enters a shared no-op span.
  No record, no dict, no timestamps are allocated. Attribute-heavy instrumentation must guard on ``tracer.enabled``.
* **Spans are flat records, not nested objects.** The tree lives in
  parent links (:mod:`repro.observability.span`), so the serve daemon
  can hand its records over and :meth:`Tracer.merge` grafts them — in
  order — under the caller's current span.
* **Activation is scoped.** ``with use_telemetry(tracer=tracer): ...``
  installs a tracer for the dynamic extent of a block (and the contextvar
  keeps concurrent asyncio/thread users isolated).
"""

from __future__ import annotations

import time
import uuid
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.observability.span import (
    SpanNode,
    SpanRecord,
    clean_attribute,
    span_tree,
    tree_shape,
)


def _now_us() -> float:
    return time.perf_counter() * 1e6


class Span:
    """Handle for one live span: a context manager with ``set(key, value)``."""

    __slots__ = ("_tracer", "_record")

    def __init__(self, tracer: "Tracer", record: SpanRecord) -> None:
        self._tracer = tracer
        self._record = record

    def set(self, key: str, value: Any) -> "Span":
        """Attach one model-domain attribute (coerced to a primitive)."""
        self._record.attributes[key] = clean_attribute(value)
        return self

    def set_many(self, **attributes: Any) -> "Span":
        """Attach several attributes at once."""
        for key, value in attributes.items():
            self._record.attributes[key] = clean_attribute(value)
        return self

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, *exc) -> None:
        self._tracer._close(self._record)


class NullSpan:
    """The shared do-nothing span handle of the disabled path."""

    __slots__ = ()

    def set(self, key: str, value: Any) -> "NullSpan":
        return self

    def set_many(self, **attributes: Any) -> "NullSpan":
        return self

    def __enter__(self) -> "NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        pass


_NULL_SPAN = NullSpan()


class Tracer:
    """Collects hierarchical spans for one evaluation flow.

    Install it with ``use_telemetry(tracer=...)`` (or the CLI's
    ``--trace``); instrumented code picks it up via ``telemetry().tracer``.
    Finished records accumulate in :attr:`records` in *start* order,
    which keeps sibling order deterministic.
    """

    enabled = True

    def __init__(self, trace_id: Optional[str] = None) -> None:
        #: Process-unique identity of this trace, carried across the wire
        #: by :mod:`repro.observability.distributed` so a remote server
        #: can link its spans back to this tracer's tree.
        self.trace_id = trace_id if trace_id else uuid.uuid4().hex[:16]
        self.records: List[SpanRecord] = []
        self._stack: List[int] = []
        self._next_id = 1

    # -- span lifecycle ------------------------------------------------- #

    def span(self, name: str, **attributes: Any) -> Span:
        """Open a child span of the current span (enter to activate)."""
        record = SpanRecord(
            span_id=self._next_id,
            parent_id=self._stack[-1] if self._stack else None,
            name=name,
            start_us=_now_us(),
        )
        if attributes:
            record.attributes = {
                k: clean_attribute(v) for k, v in attributes.items()
            }
        self._next_id += 1
        self.records.append(record)
        self._stack.append(record.span_id)
        return Span(self, record)

    def event(self, name: str, **attributes: Any) -> None:
        """A zero-duration child span (per-DTL / per-port attributions)."""
        with self.span(name, **attributes):
            pass

    def current_span_id(self) -> Optional[int]:
        """Id of the innermost open span (``None`` outside any span)."""
        return self._stack[-1] if self._stack else None

    def _close(self, record: SpanRecord) -> None:
        record.duration_us = _now_us() - record.start_us
        # Close any abandoned descendants too (exception unwinding).
        while self._stack and self._stack[-1] != record.span_id:
            self._stack.pop()
        if self._stack:
            self._stack.pop()

    # -- cross-process merge -------------------------------------------- #

    def merge(self, records: Sequence[SpanRecord]) -> None:
        """Graft foreign (daemon-produced) records under the current span.

        Ids are remapped into this tracer's sequence and the subtree is
        re-rooted at the currently open span; record order — and with it
        sibling order — is preserved, so the grafted tree is the one the
        foreign tracer recorded. Timestamps are shifted so the grafted
        subtree starts where the merge happens (foreign clocks are not
        comparable to ours).
        """
        if not records:
            return
        offset = _now_us() - min(r.start_us for r in records)
        remap: Dict[int, int] = {}
        parent = self._stack[-1] if self._stack else None
        for record in records:
            remap[record.span_id] = self._next_id
            self.records.append(
                SpanRecord(
                    span_id=self._next_id,
                    parent_id=(
                        remap[record.parent_id]
                        if record.parent_id in remap
                        else parent
                    ),
                    name=record.name,
                    start_us=record.start_us + offset,
                    duration_us=record.duration_us,
                    attributes=dict(record.attributes),
                )
            )
            self._next_id += 1

    # -- views ----------------------------------------------------------- #

    def roots(self) -> List[SpanNode]:
        """Tree view of everything recorded so far."""
        return span_tree(self.records)

    def shape(self) -> Tuple:
        """Timestamp-free shape (see :func:`~repro.observability.span.tree_shape`)."""
        return tree_shape(self.records)

    def clear(self) -> None:
        """Drop all records (open spans keep their stack positions)."""
        self.records = []


class NullTracer:
    """The allocation-free disabled tracer (ambient default)."""

    enabled = False
    trace_id = ""

    def span(self, name: str, **attributes: Any) -> NullSpan:
        return _NULL_SPAN

    def current_span_id(self) -> None:
        return None

    def event(self, name: str, **attributes: Any) -> None:
        pass

    def merge(self, records: Sequence[SpanRecord]) -> None:
        pass

    def roots(self) -> List[SpanNode]:
        return []

    def shape(self) -> Tuple:
        return ()

    def clear(self) -> None:
        pass


NULL_TRACER = NullTracer()
