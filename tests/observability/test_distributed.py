"""Trace propagation, span wire serde, server subtree assembly, and the
flight recorder — the unit layer under the cross-process tests in
``tests/serve/test_tracing.py``."""

import json

from repro.observability.distributed import (
    FlightRecorder,
    RequestRecord,
    TraceContext,
    extract_trace,
    inject_trace,
    server_span_records,
    span_from_dict,
    span_to_dict,
    spans_from_wire,
    spans_to_wire,
)
from repro.observability.span import SpanRecord, span_tree
from repro.observability.telemetry import telemetry, use_telemetry
from repro.observability.tracer import Tracer


# --------------------------------------------------------------------- #
# Context propagation
# --------------------------------------------------------------------- #

def test_inject_is_none_without_ambient_tracer():
    """The disabled path: no dict, no wire field, nothing allocated."""
    assert telemetry().tracer.enabled is False
    assert inject_trace() is None
    assert telemetry().tracer.current_span_id() is None
    assert telemetry().tracer.trace_id == ""


def test_inject_extract_roundtrip_carries_open_span():
    tracer = Tracer()
    with use_telemetry(tracer=tracer):
        with tracer.span("remote.evaluate"):
            payload = inject_trace()
            open_id = tracer.current_span_id()
    assert payload == {
        "trace_id": tracer.trace_id, "span_id": open_id, "sampled": True,
    }
    context = extract_trace(json.loads(json.dumps(payload)))
    assert context == TraceContext(
        trace_id=tracer.trace_id, span_id=open_id, sampled=True
    )


def test_inject_outside_any_span_uses_zero_span_id():
    tracer = Tracer(trace_id="abcd")
    with use_telemetry(tracer=tracer):
        payload = inject_trace()
    assert payload == {"trace_id": "abcd", "span_id": 0, "sampled": True}


def test_extract_tolerates_absent_and_malformed_payloads():
    # Everything an old / buggy / future peer could send yields None.
    for bad in (None, 7, "x", [], {}, {"trace_id": ""},
                {"trace_id": "t"},                      # no span_id
                {"trace_id": "t", "span_id": "5"},      # wrong type
                {"trace_id": "t", "span_id": True},     # bool is not an id
                {"trace_id": 9, "span_id": 1}):
        assert extract_trace(bad) is None, bad
    # Unknown keys ride along silently.
    context = extract_trace(
        {"trace_id": "t", "span_id": 3, "future_flag": "yes"}
    )
    assert context == TraceContext(trace_id="t", span_id=3)


# --------------------------------------------------------------------- #
# Span wire serde
# --------------------------------------------------------------------- #

def test_span_serde_roundtrip_and_unknown_keys():
    record = SpanRecord(
        span_id=4, parent_id=2, name="model.step1",
        start_us=10.0, duration_us=3.5,
        attributes={"ss": 1.25, "rule": "paper"},
    )
    data = json.loads(json.dumps(span_to_dict(record)))
    assert span_from_dict(data) == record
    data["some_future_field"] = [1, 2]
    assert span_from_dict(data) == record


def test_spans_from_wire_drops_garbage_silently():
    good = span_to_dict(
        SpanRecord(span_id=1, parent_id=None, name="a", start_us=0.0)
    )
    wire = [good, "nope", 7, {"span_id": "not-an-int", "name": "b"}, None]
    records = spans_from_wire(wire)
    assert [r.name for r in records] == ["a"]
    assert spans_from_wire(None) == []
    assert spans_from_wire([]) == []


# --------------------------------------------------------------------- #
# Server subtree assembly
# --------------------------------------------------------------------- #

def _context():
    return TraceContext(trace_id="feedc0de", span_id=7)


def test_server_span_records_full_request_layout():
    kernel = [
        SpanRecord(span_id=1, parent_id=None, name="engine.evaluate",
                   start_us=500.0, duration_us=80.0),
        SpanRecord(span_id=2, parent_id=1, name="model.evaluate",
                   start_us=510.0, duration_us=60.0),
    ]
    records = server_span_records(_context(), RequestRecord(
        start_s=1000.0e-6, wall_s=200.0e-6,
        evaluated=True, queue_wait_us=50.0, kernel_us=80.0, store_write_us=10.0,
        kernel_records=kernel, outcome="evaluated",
    ), server="daemon-a")
    roots = span_tree(records)
    assert len(roots) == 1
    root = roots[0]
    assert root.name == "serve.request"
    assert root.record.span_id == -1
    assert root.attributes["trace_id"] == "feedc0de"
    assert root.attributes["client_span_id"] == 7
    assert root.attributes["source"] == "evaluated"
    assert root.attributes["server"] == "daemon-a"
    assert [c.name for c in root.children] == [
        "serve.queue_wait", "serve.kernel", "serve.store_write",
    ]
    kernel_span = root.children[1]
    # The kernel subtree is re-rooted beneath the kernel span with its
    # own ids and internal links intact.
    assert [c.name for c in kernel_span.children] == ["engine.evaluate"]
    assert [c.name for c in kernel_span.children[0].children] == ["model.evaluate"]
    # Server-added spans use negative ids: disjoint from kernel ids.
    server_ids = {r.span_id for r in records if r.name.startswith("serve.")}
    kernel_ids = {r.span_id for r in records if not r.name.startswith("serve.")}
    assert all(i < 0 for i in server_ids)
    assert all(i > 0 for i in kernel_ids)


def test_server_span_records_store_hit_is_just_the_root():
    records = server_span_records(_context(), RequestRecord(
        start_s=0.0, wall_s=90.0e-6, outcome="store",
    ))
    roots = span_tree(records)
    assert len(roots) == 1 and not roots[0].children
    assert roots[0].attributes["source"] == "store"


def test_server_span_records_coalesced_follower():
    records = server_span_records(_context(), RequestRecord(
        start_s=0.0, wall_s=100.0e-6,
        coalesce_wait_us=95.0, outcome="coalesced",
    ))
    root = span_tree(records)[0]
    assert [c.name for c in root.children] == ["serve.coalesce_wait"]
    assert root.children[0].record.duration_us == 95.0


def test_server_span_records_survive_wire_roundtrip():
    records = server_span_records(_context(), RequestRecord(
        start_s=0.0, wall_s=10.0e-6, evaluated=True, kernel_us=5.0,
        outcome="evaluated",
    ))
    back = spans_from_wire(json.loads(json.dumps(spans_to_wire(records))))
    assert back == records


# --------------------------------------------------------------------- #
# Flight recorder
# --------------------------------------------------------------------- #

def test_flight_recorder_ring_bounds_and_sequence():
    flight = FlightRecorder(capacity=3)
    for i in range(5):
        flight.record(RequestRecord(id=i))
    assert len(flight) == 3
    snapshot = flight.snapshot()
    assert [e["id"] for e in snapshot] == [2, 3, 4]
    # seq keeps counting across evictions: it names the request's place
    # in the daemon's lifetime, not in the ring.
    assert [e["seq"] for e in snapshot] == [3, 4, 5]
    assert flight.last()["id"] == 4


def test_flight_recorder_dump_writes_complete_jsonl(tmp_path):
    flight = FlightRecorder(capacity=8)
    flight.record(RequestRecord(id=1, outcome="evaluated"))
    flight.record(RequestRecord(id=2, outcome="store"))
    path = tmp_path / "deep" / "flight.jsonl"
    assert flight.dump(path) == 2
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert [r["id"] for r in rows] == [1, 2]
    assert rows[-1]["outcome"] == "store"
    assert flight.dumps == 1
    # A second dump truncates: one complete, self-consistent file.
    flight.record(RequestRecord(id=3, outcome="error"))
    assert flight.dump(path) == 3
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert [r["id"] for r in rows] == [1, 2, 3]
    assert flight.dumps == 2


def test_flight_recorder_empty():
    flight = FlightRecorder()
    assert len(flight) == 0
    assert flight.last() is None
    assert flight.snapshot() == []
    assert flight.to_jsonl() == ""
