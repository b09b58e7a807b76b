"""Chunk spans land under the batch span in chunk order."""

import pytest

from repro.dse.mapper import MapperConfig, TemporalMapper
from repro.engine import EvaluationEngine, evaluation
from repro.hardware.presets import case_study_accelerator
from repro.observability import Tracer, find_spans, use_telemetry
from repro.workload.generator import dense_layer


@pytest.fixture(scope="module")
def preset():
    return case_study_accelerator()


@pytest.fixture(scope="module")
def mappings(preset):
    mapper = TemporalMapper(
        preset.accelerator,
        preset.spatial_unrolling,
        MapperConfig(max_enumerated=60, samples=40),
    )
    return list(mapper.mappings(dense_layer(16, 32, 64)))[:24]


def _traced_batch(engine, mappings):
    tracer = Tracer()
    with use_telemetry(tracer=tracer):
        outcomes = engine.evaluate_many(mappings, validate=False)
    return outcomes, tracer


def test_chunk_order_is_preserved(preset, mappings, monkeypatch):
    """Merged evaluation spans appear in submission order."""
    monkeypatch.setattr(evaluation, "CHUNK_SIZE", 8)
    serial = EvaluationEngine(preset.accelerator)
    outcomes, tracer = _traced_batch(serial, mappings)
    evals = find_spans(tracer.records, "model.evaluate")
    assert len(evals) == len([o for o in outcomes if o is not None])
    reported = [o.report.total_cycles for o in outcomes if o is not None]
    traced = [s.attributes["total_cycles"] for s in evals]
    assert traced == reported
