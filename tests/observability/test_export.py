"""Chrome trace-event export: document structure and file roundtrip."""

import json

import pytest

from repro.dse.mapper import MapperConfig, TemporalMapper
from repro.hardware.presets import case_study_accelerator
from repro.observability import (
    Tracer,
    chrome_trace,
    load_chrome_trace,
    reconcile_ss_overall,
    tree_shape,
    use_telemetry,
    write_chrome_trace,
)
from repro.observability.export import TraceFormatError
from repro.observability.report import stall_waterfall
from repro.workload.generator import dense_layer


def _sample_tracer() -> Tracer:
    tracer = Tracer()
    with tracer.span("model.evaluate", layer="L") as span:
        with tracer.span("model.step3") as step3:
            tracer.event("step3.group", group=0, ss_group_raw=-3.0, ss_group=0.0)
            tracer.event("step3.group", group=1, ss_group_raw=7.0, ss_group=7.0)
            step3.set("ss_overall", 7.0)
        span.set("ss_overall", 7.0)
    return tracer


def test_chrome_trace_document_structure():
    doc = chrome_trace(_sample_tracer().records, process_name="unit")
    assert doc["displayTimeUnit"] == "ms"
    events = doc["traceEvents"]
    assert events[0]["ph"] == "M"
    assert events[0]["args"]["name"] == "unit"
    spans = [e for e in events if e["ph"] == "X"]
    assert [e["name"] for e in spans] == [
        "model.evaluate", "model.step3", "step3.group", "step3.group",
    ]
    for event in spans:
        assert event["dur"] >= 0
        assert {"ts", "pid", "tid", "args", "span_id", "parent_id"} <= set(event)
    assert spans[2]["args"]["ss_group_raw"] == -3.0
    assert [(e["span_id"], e["parent_id"]) for e in spans] == [
        (1, None), (2, 1), (3, 2), (4, 2),
    ]


def test_write_and_load_roundtrip(tmp_path):
    path = str(tmp_path / "trace.json")
    tracer = _sample_tracer()
    write_chrome_trace(tracer.records, path)

    with open(path) as handle:
        json.load(handle)  # the file is valid JSON

    back = load_chrome_trace(path)
    assert [r.name for r in back] == [r.name for r in tracer.records]
    assert [r.attributes for r in back] == [r.attributes for r in tracer.records]
    assert [(r.span_id, r.parent_id) for r in back] == [
        (r.span_id, r.parent_id) for r in tracer.records
    ]
    assert tree_shape(back) == tree_shape(tracer.records)


def test_reconcile_from_reloaded_records(tmp_path):
    """Records read back from a file keep their tree and reconcile."""
    path = str(tmp_path / "trace.json")
    write_chrome_trace(_sample_tracer().records, path)
    assert reconcile_ss_overall(load_chrome_trace(path)) == 7.0


def test_a_parent_outside_the_written_records_is_written_as_a_root(tmp_path):
    path = str(tmp_path / "trace.json")
    records = _sample_tracer().records[1:]  # model.step3 loses its parent
    write_chrome_trace(records, path)
    back = load_chrome_trace(path)
    assert back[0].parent_id is None
    assert tree_shape(back) == tree_shape(records)


def _write_events(path, events):
    with open(path, "w") as handle:
        json.dump({"traceEvents": events}, handle)


def _event(name, **keys):
    return {"name": name, "ph": "X", "ts": 0.0, "dur": 1.0, "args": {}, **keys}


@pytest.mark.parametrize(
    "events, complaint",
    [
        ([_event("model.step3")], "no span_id/parent_id"),
        ([_event("model.step3", span_id=1)], "no span_id/parent_id"),
        ([_event("model.step3", span_id=1, parent_id=2),
          _event("step3.group", span_id=2, parent_id=None)], "names no earlier span"),
        ([_event("a", span_id=1, parent_id=None),
          _event("b", span_id=1, parent_id=None)], "repeats"),
        ([_event("a", span_id="1", parent_id=None)], "field 'span_id'"),
        ([_event("a", span_id=1, parent_id=None, args=[])], "field 'attributes'"),
        ([{"ph": "X", "span_id": 1, "parent_id": None, "ts": 0.0}], "name"),
    ],
)
def test_a_trace_without_its_span_tree_is_refused(tmp_path, events, complaint):
    """Files written before events carried span ids (and malformed ones)
    raise the typed error instead of reading as a flat record list."""
    path = str(tmp_path / "trace.json")
    _write_events(path, events)
    with pytest.raises(TraceFormatError, match=complaint):
        load_chrome_trace(path)


@pytest.mark.parametrize(
    "text, complaint", [("[]", "no traceEvents"), ('{"traceEvents": [', "not JSON")]
)
def test_a_file_that_is_no_trace_document_is_refused(tmp_path, text, complaint):
    path = tmp_path / "trace.json"
    path.write_text(text)
    with pytest.raises(TraceFormatError, match=complaint):
        load_chrome_trace(str(path))


def test_a_traced_search_reloads_with_its_tree_and_its_stall_numbers(tmp_path):
    """The span tree survives the file, so the waterfall and SS_overall
    read from a reloaded trace equal those of the live records."""
    preset = case_study_accelerator()
    tracer = Tracer()
    with use_telemetry(tracer=tracer):
        mapper = TemporalMapper(
            preset.accelerator, preset.spatial_unrolling,
            MapperConfig(max_enumerated=60, samples=40),
        )
        best = mapper.best_mapping(dense_layer(64, 128, 1200))
        report = mapper.engine.evaluate(best.mapping)
    path = str(tmp_path / "trace.json")
    write_chrome_trace(tracer.records, path)
    back = load_chrome_trace(path)
    assert tree_shape(back) == tree_shape(tracer.records)
    assert reconcile_ss_overall(back) == reconcile_ss_overall(tracer.records)
    assert reconcile_ss_overall(back) == report.ss_overall
    assert stall_waterfall(back) == stall_waterfall(tracer.records)


def test_reconcile_uses_last_step3_span():
    tracer = Tracer()
    for raw in (5.0, 11.0):
        with tracer.span("model.evaluate"):
            with tracer.span("model.step3"):
                tracer.event(
                    "step3.group", group=0, ss_group_raw=raw, ss_group=raw
                )
    assert reconcile_ss_overall(tracer.records) == 11.0


def test_clamping_matches_step3_semantics():
    tracer = Tracer()
    with tracer.span("model.step3"):
        tracer.event("step3.group", group=0, ss_group_raw=-9.0, ss_group=0.0)
        tracer.event("step3.group", group=1, ss_group_raw=-1.0, ss_group=0.0)
    assert reconcile_ss_overall(tracer.records) == 0.0
