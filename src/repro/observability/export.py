"""Trace exporters and span-level reconciliation helpers.

:func:`chrome_trace` turns span records into the Chrome trace-event JSON
format (``chrome://tracing`` / Perfetto's legacy loader): one complete
(``"ph": "X"``) event per span on one lane (``tid`` 0), model-domain
attributes in ``args``.

:func:`reconcile_ss_overall` re-derives ``SS_overall`` purely from span
attributes — the per-group stalls emitted by Step 3 — so a trace file can
be cross-checked against the printed :class:`~repro.core.report.
LatencyReport` without re-running the model (the CLI's ``--trace`` path
and the span-taxonomy tests both do).
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Sequence

from repro.observability.span import SpanRecord, span_tree


def chrome_trace(records: Sequence[SpanRecord], process_name: str = "repro") -> Dict:
    """Span records as a Chrome trace-event JSON document (as a dict)."""
    events: List[Dict] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 0,
            "tid": 0,
            "args": {"name": process_name},
        }
    ]
    for record in records:
        events.append(
            {
                "name": record.name,
                "cat": "repro",
                "ph": "X",
                "ts": record.start_us,
                "dur": max(record.duration_us, 0.0),
                "pid": 0,
                "tid": 0,
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

    Parent links cannot be recovered from the event list (Chrome's format
    encodes nesting by time), so the records come back flat — enough for
    attribute-level checks like :func:`reconcile_ss_overall`.
    """
    with open(path) as handle:
        doc = json.load(handle)
    records: List[SpanRecord] = []
    for index, event in enumerate(doc["traceEvents"]):
        if event.get("ph") != "X":
            continue
        records.append(
            SpanRecord(
                span_id=index + 1,
                parent_id=None,
                name=event["name"],
                start_us=float(event.get("ts", 0.0)),
                duration_us=float(event.get("dur", 0.0)),
                attributes=dict(event.get("args", {})),
            )
        )
    return records


# --------------------------------------------------------------------- #
# Reconciliation
# --------------------------------------------------------------------- #

def reconcile_ss_overall(records: Sequence[SpanRecord]) -> Optional[float]:
    """Recompute ``SS_overall`` from Step-3 group spans.

    Step 3 sums the clamped per-group stalls (``ss_group`` attributes on
    ``step3.group`` spans) and clamps the total at zero; this helper
    replays exactly that from the trace. Returns ``None`` when the trace
    holds no ``model.step3`` span. With several ``model.evaluate`` spans
    in the trace, the *last* one's integration is used (the CLI traces
    its final report evaluation last).
    """
    step3 = [r for r in records if r.name == "model.step3"]
    if not step3:
        return None
    groups = _groups_of(records, step3[-1])
    return max(0.0, sum(max(0.0, ss) for ss in groups))


def _groups_of(records: Sequence[SpanRecord], step3: SpanRecord) -> List[float]:
    """The ``ss_group_raw`` values belonging to one ``model.step3`` span.

    Uses parent links when present (native tracer records); falls back to
    record-order adjacency for flat records re-read from a Chrome trace
    file. Records are written in append order — children directly follow
    their span, merged daemon subtrees stay contiguous — so adjacency is
    reliable where timestamps are not (merged subtrees are time-shifted).
    """
    if any(r.parent_id is not None for r in records):
        for root in span_tree(records):
            for node in root.find("model.step3"):
                if node.record is step3:
                    return [
                        float(child.record.attributes["ss_group_raw"])
                        for child in node.children
                        if child.record.name == "step3.group"
                    ]
        return []
    ordered = list(records)
    at = ordered.index(step3)
    groups: List[float] = []
    for record in ordered[at + 1:]:
        if record.name == "step3.group":
            groups.append(float(record.attributes["ss_group_raw"]))
        elif record.name in ("model.step3", "model.evaluate"):
            break
        elif not record.name.startswith("step3."):
            break
    return groups


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
    "chrome_trace",
    "write_chrome_trace",
    "load_chrome_trace",
    "reconcile_ss_overall",
    "per_dtl_stalls",
    "find_spans",
]
