"""Chunk-local spans merge back under the batch span: in chunk order,
one export track per chunk."""

import pytest

from repro.dse.mapper import MapperConfig, TemporalMapper
from repro.engine import EvaluationEngine
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


def test_chunk_order_is_preserved(preset, mappings):
    """Merged evaluation spans appear in submission order."""
    serial = EvaluationEngine(preset.accelerator, chunk_size=8)
    outcomes, tracer = _traced_batch(serial, mappings)
    evals = find_spans(tracer.records, "model.evaluate")
    assert len(evals) == len([o for o in outcomes if o is not None])
    reported = [o.report.total_cycles for o in outcomes if o is not None]
    traced = [s.attributes["total_cycles"] for s in evals]
    assert traced == reported


def test_worker_spans_land_on_chunk_tracks(preset, mappings):
    serial = EvaluationEngine(preset.accelerator, chunk_size=8)
    _, tracer = _traced_batch(serial, mappings)
    batch = find_spans(tracer.records, "engine.batch")
    assert len(batch) == 1 and batch[0].track == 0
    tracks = {r.track for r in tracer.records if r.name == "model.evaluate"}
    # three chunks of 8 from 24 mappings -> lanes 1..3
    assert tracks == {1, 2, 3}


def test_untraced_batch_ships_no_records(preset, mappings):
    """Without an ambient tracer a chunk returns no span records."""
    from repro.engine.executors import evaluate_chunk

    engine = EvaluationEngine(preset.accelerator)
    _, records, timing = evaluate_chunk(
        engine.accelerator, engine.options, tuple(mappings[:2]), False, False,
    )
    assert records == []
    assert timing.evaluated + timing.errors == 2
    assert timing.worker.startswith("pid:")
