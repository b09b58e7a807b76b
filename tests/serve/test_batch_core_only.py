"""Production evaluates only through the batch core.

With the reference model's kernel patched to raise, every production
entry point still answers — single evaluations, traced and untraced
batches, and a traced served request — and traced ones still carry the
model's span subtree, projected from the batch core's full report.
"""

import pytest

import repro.core.model
from repro.core.model import LatencyModel
from repro.dse.mapper import MapperConfig, TemporalMapper
from repro.engine import EvaluationEngine
from repro.hardware.presets import case_study_accelerator
from repro.observability import Tracer, find_spans, use_telemetry
from repro.serve import connect
from repro.workload.generator import dense_layer


@pytest.fixture
def mappings():
    preset = case_study_accelerator()
    mapper = TemporalMapper(
        preset.accelerator, preset.spatial_unrolling,
        MapperConfig(max_enumerated=12, samples=0),
    )
    return list(mapper.mappings(dense_layer(32, 64, 600)))[:12]


@pytest.fixture
def reference(mappings):
    """The reference reports, taken before the kernel is patched away."""
    model = LatencyModel(case_study_accelerator().accelerator)
    return [model.evaluate(m, validate=False) for m in mappings]


@pytest.fixture
def no_scalar_kernel(monkeypatch, reference):
    def boom(*args, **kwargs):
        raise AssertionError("the scalar kernel ran in production")

    monkeypatch.setattr(LatencyModel, "evaluate", boom)
    monkeypatch.setattr(repro.core.model, "build_dtls", boom)


def test_engine_paths_never_run_the_scalar_kernel(mappings, reference, no_scalar_kernel):
    accelerator = case_study_accelerator().accelerator
    engine = EvaluationEngine(accelerator)
    assert [engine.evaluate(m) for m in mappings] == reference
    engine.cache.clear()
    untraced = engine.evaluate_many(mappings)
    engine.cache.clear()
    tracer = Tracer()
    with use_telemetry(tracer=tracer):
        traced = engine.evaluate_many(mappings)
    assert [o.report.total_cycles for o in untraced] == [
        r.total_cycles for r in reference
    ]
    assert [o.report for o in traced] == reference
    assert len(find_spans(tracer.records, "model.evaluate")) == len(mappings)


def test_a_traced_served_request_never_runs_the_scalar_kernel(
    make_server, mappings, reference, no_scalar_kernel
):
    handle = make_server()
    tracer = Tracer()
    with use_telemetry(tracer=tracer), connect(handle.url) as client:
        report = client.evaluate(mappings[0])
    assert report.total_cycles == reference[0].total_cycles
    (span,) = find_spans(tracer.records, "model.evaluate")
    assert span.attributes["total_cycles"] == reference[0].total_cycles
    assert find_spans(tracer.records, "step1.dtl")
