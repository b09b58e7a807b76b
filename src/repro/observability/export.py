"""Trace exporters and span-level reconciliation helpers.

:func:`chrome_trace` turns span records into the Chrome trace-event JSON
format (``chrome://tracing`` / Perfetto's legacy loader): one complete
(``"ph": "X"``) event per span on one lane (``tid`` 0), model-domain
attributes in ``args``, and the span tree in each event's ``span_id`` and
``parent_id`` keys, so :func:`load_chrome_trace` gives back the tree the
tracer recorded.

:func:`reconcile_ss_overall` re-derives ``SS_overall`` purely from span
attributes — the per-group stalls emitted by Step 3 — so a trace file can
be cross-checked against the printed :class:`~repro.core.report.
LatencyReport` without re-running the model (the CLI's ``--trace`` path
and the span-taxonomy tests both do).
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Sequence, Tuple

from repro.fields import read_fields
from repro.observability.span import SpanNode, SpanRecord, span_tree


class TraceFormatError(ValueError):
    """A trace file :func:`load_chrome_trace` cannot read as a span tree."""


#: :class:`SpanRecord` field -> the key of a Chrome trace event holding it.
_EVENT_KEYS = {
    "span_id": "span_id",
    "parent_id": "parent_id",
    "name": "name",
    "start_us": "ts",
    "duration_us": "dur",
    "attributes": "args",
}


def chrome_trace(records: Sequence[SpanRecord], process_name: str = "repro") -> Dict:
    """Span records as a Chrome trace-event JSON document (as a dict).

    A parent that is not among the earlier records is written as
    ``null``: :func:`~repro.observability.span.span_tree` makes such a
    span a root either way.
    """
    events: List[Dict] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 0,
            "tid": 0,
            "args": {"name": process_name},
        }
    ]
    written = set()
    for record in records:
        written.add(record.span_id)
        events.append(
            {
                "name": record.name,
                "cat": "repro",
                "ph": "X",
                "ts": record.start_us,
                "dur": max(record.duration_us, 0.0),
                "pid": 0,
                "tid": 0,
                "span_id": record.span_id,
                "parent_id": record.parent_id if record.parent_id in written else None,
                "args": record.attributes,
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(
    records: Sequence[SpanRecord], path: str, process_name: str = "repro"
) -> None:
    """Write :func:`chrome_trace` output to ``path``."""
    with open(path, "w") as handle:
        json.dump(chrome_trace(records, process_name), handle, indent=1)


def load_chrome_trace(path: str) -> List[SpanRecord]:
    """Read a file written by :func:`write_chrome_trace` back into records.

    The records keep their ``span_id`` and ``parent_id``, so
    :func:`~repro.observability.span.tree_shape` of the result equals that
    of the records written. A file that is not a JSON trace document, a
    span event without a ``span_id`` or ``parent_id`` key (a file written
    before they were recorded), a field of the wrong JSON type, a repeated
    span id and a parent id naming no earlier span each raise
    :class:`TraceFormatError`.
    """
    with open(path) as handle:
        try:
            doc = json.load(handle)
        except json.JSONDecodeError as exc:
            raise TraceFormatError(f"{path}: not JSON: {exc}") from None
    events = doc.get("traceEvents") if isinstance(doc, dict) else None
    if not isinstance(events, list):
        raise TraceFormatError(f"{path}: no traceEvents list")
    records: List[SpanRecord] = []
    seen = set()
    for index, event in enumerate(events):
        if not isinstance(event, dict) or event.get("ph") != "X":
            continue
        where = f"{path}: event {index}"
        if "span_id" not in event or "parent_id" not in event:
            raise TraceFormatError(f"{where} has no span_id/parent_id: no span tree")
        data = {field: event[key] for field, key in _EVENT_KEYS.items() if key in event}
        record = read_fields(SpanRecord, data, TraceFormatError)
        if record.span_id in seen:
            raise TraceFormatError(f"{where}: span_id {record.span_id} repeats")
        if record.parent_id is not None and record.parent_id not in seen:
            raise TraceFormatError(
                f"{where}: parent_id {record.parent_id} names no earlier span"
            )
        seen.add(record.span_id)
        records.append(record)
    return records


# --------------------------------------------------------------------- #
# Reconciliation
# --------------------------------------------------------------------- #

def _last_step3(
    records: Sequence[SpanRecord],
) -> Tuple[Optional[SpanNode], Optional[SpanNode]]:
    """The last ``model.step3`` node of the span forest and its nearest
    enclosing ``model.evaluate`` node (None outside one), in one walk;
    ``(None, None)`` when the records hold no ``model.step3`` span.

    Records are in start order, so the last node of the walk is the last
    record: the CLI traces its final report evaluation last.
    """
    found: Tuple[Optional[SpanNode], Optional[SpanNode]] = (None, None)
    stack = [(root, None) for root in reversed(span_tree(records))]
    while stack:
        node, evaluate = stack.pop()
        if node.name == "model.evaluate":
            evaluate = node
        elif node.name == "model.step3":
            found = (node, evaluate)
        stack.extend((child, evaluate) for child in reversed(node.children))
    return found


def _step3_groups(step3: SpanNode) -> List[SpanRecord]:
    """The ``step3.group`` children of one ``model.step3`` node."""
    return [child.record for child in step3.children if child.name == "step3.group"]


def reconcile_ss_overall(records: Sequence[SpanRecord]) -> Optional[float]:
    """Recompute ``SS_overall`` from Step-3 group spans.

    Step 3 sums the clamped per-group stalls (``ss_group`` attributes on
    ``step3.group`` spans) and clamps the total at zero; this helper
    replays exactly that from the trace. Returns ``None`` when the trace
    holds no ``model.step3`` span. With several ``model.step3`` spans in
    the trace, the *last* one's groups are used (see :func:`_last_step3`).
    """
    step3, __ = _last_step3(records)
    if step3 is None:
        return None
    raw = (float(group.attributes["ss_group_raw"]) for group in _step3_groups(step3))
    return max(0.0, sum(max(0.0, ss) for ss in raw))


def per_dtl_stalls(records: Sequence[SpanRecord]) -> List[float]:
    """Every per-DTL ``ss_u`` attribute in the trace (pre-combination)."""
    return [
        float(r.attributes["ss_u"])
        for r in records
        if r.name == "step1.dtl" and "ss_u" in r.attributes
    ]


def find_spans(records: Sequence[SpanRecord], name: str) -> List[SpanRecord]:
    """Flat name filter over a record list."""
    return [r for r in records if r.name == name]


__all__ = [
    "TraceFormatError",
    "chrome_trace",
    "write_chrome_trace",
    "load_chrome_trace",
    "reconcile_ss_overall",
    "per_dtl_stalls",
    "find_spans",
]
