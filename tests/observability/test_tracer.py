"""Tracer mechanics: nesting, attributes, merge, and the null twin."""

import pickle

from repro.observability import (
    NULL_TRACER,
    NullTracer,
    SpanRecord,
    Tracer,
    telemetry,
    tree_shape,
    use_telemetry,
)


def test_nesting_and_parent_links():
    tracer = Tracer()
    with tracer.span("a"):
        with tracer.span("b"):
            tracer.event("c")
        with tracer.span("d"):
            pass
    names = [r.name for r in tracer.records]
    assert names == ["a", "b", "c", "d"]
    a, b, c, d = tracer.records
    assert a.parent_id is None
    assert b.parent_id == a.span_id
    assert c.parent_id == b.span_id
    assert d.parent_id == a.span_id


def test_attributes_are_cleaned_to_primitives():
    tracer = Tracer()
    with tracer.span("s", n=3, x=1.5, flag=True, obj=object()) as span:
        span.set("late", "v").set_many(p=1, q=2)
    attrs = tracer.records[0].attributes
    assert attrs["n"] == 3 and attrs["x"] == 1.5 and attrs["flag"] is True
    assert isinstance(attrs["obj"], str)
    assert attrs["late"] == "v" and attrs["p"] == 1 and attrs["q"] == 2


def test_durations_are_recorded():
    tracer = Tracer()
    with tracer.span("outer"):
        pass
    assert tracer.records[0].duration_us >= 0.0


def test_exception_unwinds_open_spans():
    tracer = Tracer()
    try:
        with tracer.span("outer"):
            tracer.span("abandoned")  # entered without context manager
            raise RuntimeError("boom")
    except RuntimeError:
        pass
    with tracer.span("after"):
        pass
    assert tracer.records[-1].parent_id is None  # stack fully unwound


def test_merge_re_roots_and_remaps_ids():
    worker = Tracer()
    with worker.span("model.evaluate"):
        worker.event("step1.dtl", ss_u=1.0)
    host = Tracer()
    with host.span("engine.batch"):
        host.merge(worker.records)
    roots = host.roots()
    assert len(roots) == 1 and roots[0].name == "engine.batch"
    grafted = roots[0].children[0]
    assert grafted.name == "model.evaluate"
    assert grafted.children[0].name == "step1.dtl"
    # ids are unique after remapping
    ids = [r.span_id for r in host.records]
    assert len(ids) == len(set(ids))


def test_merge_empty_is_noop():
    host = Tracer()
    host.merge([])
    assert host.records == []


def test_records_are_picklable():
    tracer = Tracer()
    with tracer.span("a", k=1):
        tracer.event("b")
    back = pickle.loads(pickle.dumps(tracer.records))
    assert [r.name for r in back] == ["a", "b"]
    assert back[0].attributes == {"k": 1}


def test_tree_shape_ignores_timestamps():
    def build():
        t = Tracer()
        with t.span("a", x=1):
            t.event("b")
        return t

    assert build().shape() == build().shape()
    assert tree_shape(build().records) == tree_shape(build().records)


def test_ambient_default_is_null():
    assert telemetry().tracer is NULL_TRACER
    assert not telemetry().tracer.enabled


def test_use_tracer_scopes_installation():
    tracer = Tracer()
    with use_telemetry(tracer=tracer):
        assert telemetry().tracer is tracer
        with use_telemetry(tracer=NULL_TRACER):
            assert telemetry().tracer is NULL_TRACER
        assert telemetry().tracer is tracer
    assert telemetry().tracer is NULL_TRACER


def test_null_tracer_records_nothing():
    null = NullTracer()
    with null.span("a", x=1) as span:
        span.set("k", "v").set_many(p=1)
        null.event("b")
    null.merge([SpanRecord(span_id=1, parent_id=None, name="x", start_us=0.0)])
    assert null.roots() == [] and null.shape() == ()
