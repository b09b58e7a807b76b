"""Batch-vs-scalar bit-for-bit parity of the SoA evaluation core.

The batch evaluator's contract is exact equality (``==``, no tolerance)
with the scalar reference 3-step model, down to the per-DTL anatomy —
both run the same kernels in the same reduction order. These tests
enforce the contract over the committed verification corpus, a fresh
generator-sampled population, and dense mapper sweeps on the paper's
presets, both for the batch core itself and for the engine that runs it
in production.
"""

import pathlib

import pytest

from repro.core.batch import BatchEvaluator
from repro.core.model import LatencyModel
from repro.core.step1 import ModelOptions
from repro.dse.mapper import MapperConfig, TemporalMapper
from repro.engine import EvaluationEngine, evaluation
from repro.hardware.presets import case_study_accelerator, shared_lb_accelerator
from repro.observability import Tracer, tree_shape, use_telemetry
from repro.verify.corpus import load_corpus
from repro.verify.generators import sample_cases
from repro.verify.properties import check_case
from repro.workload.generator import dense_layer

COMMITTED_CORPUS = pathlib.Path(__file__).parent.parent / "verify" / "corpus"

FRESH_CASES = 200

EXACT_FIELDS = (
    "cc_ideal", "cc_spatial", "ss_overall", "preload", "offload",
    "total_cycles", "utilization", "scenario",
)


def assert_reports_identical(scalar, batch, label=""):
    for field in EXACT_FIELDS:
        s, b = getattr(scalar, field), getattr(batch, field)
        assert s == b, f"{label}: {field} scalar={s!r} batch={b!r}"
    served_s = [(str(x.operand), x.level, x.memory, x.ss, x.limiting_port)
                for x in scalar.served_stalls]
    served_b = [(str(x.operand), x.level, x.memory, x.ss, x.limiting_port)
                for x in batch.served_stalls]
    assert served_s == served_b, f"{label}: served stalls differ"
    assert scalar.integration.group_stalls == batch.integration.group_stalls, (
        f"{label}: integration group stalls differ"
    )
    assert scalar.dtls == batch.dtls, f"{label}: DTLs differ"
    assert scalar.port_combinations == batch.port_combinations, (
        f"{label}: port combinations differ"
    )
    assert scalar == batch, f"{label}: reports differ"


def test_parity_property_on_committed_corpus():
    entries = load_corpus(COMMITTED_CORPUS)
    assert entries, "committed corpus must not be empty"
    for entry in entries:
        violations = check_case(entry.case, properties=["batch_scalar_parity"])
        assert not violations, "\n".join(v.describe() for v in violations)


def test_parity_on_fresh_generated_cases():
    """200 generator-sampled random machines/mappings agree exactly.

    Cases sharing one machine+layer slot are evaluated as one batch, so
    this also exercises multi-lane lowering, not just n=1 batches.
    """
    cases = sample_cases(seed=1307, count=FRESH_CASES)
    assert len(cases) == FRESH_CASES
    groups = []
    for case in cases:
        if groups and groups[-1][0].accelerator is case.accelerator \
                and groups[-1][0].layer is case.layer:
            groups[-1].append(case)
        else:
            groups.append([case])
    checked = 0
    for group in groups:
        accelerator = group[0].accelerator
        model = LatencyModel(accelerator)
        mappings = [c.mapping for c in group]
        result = BatchEvaluator(accelerator).evaluate(mappings, materialize=True)
        for lane, case_mapping in enumerate(mappings):
            scalar = model.evaluate(case_mapping, validate=False)
            assert_reports_identical(
                scalar, result.full_report(lane), accelerator.name
            )
            checked += 1
    assert checked == FRESH_CASES


@pytest.mark.parametrize(
    "preset_fn, options",
    [
        (case_study_accelerator, ModelOptions()),
        (case_study_accelerator, ModelOptions.paper_faithful()),
        (shared_lb_accelerator, ModelOptions(served_rule="sum")),
    ],
    ids=["case-default", "case-paper", "sharedlb-sum"],
)
def test_parity_on_preset_mapper_sweep(preset_fn, options, small_layer):
    preset = preset_fn()
    mapper = TemporalMapper(
        preset.accelerator,
        preset.spatial_unrolling,
        MapperConfig(max_enumerated=200, samples=100, model_options=options),
    )
    mappings = list(mapper.mappings(small_layer))[:120]
    assert mappings
    model = LatencyModel(preset.accelerator, options)
    batch = BatchEvaluator(preset.accelerator, options).evaluate(
        mappings, materialize=True
    )
    for i, mapping in enumerate(mappings):
        scalar = model.evaluate(mapping, validate=False)
        assert_reports_identical(scalar, batch.full_report(i), f"mapping[{i}]")


def test_slim_batch_result_skips_report_objects():
    """``materialize=False`` returns arrays only — the DSE fast path."""
    preset = case_study_accelerator()
    mapper = TemporalMapper(
        preset.accelerator,
        preset.spatial_unrolling,
        MapperConfig(max_enumerated=100, samples=50),
    )
    layer = dense_layer(32, 32, 64)
    mappings = list(mapper.mappings(layer))[:40]
    evaluator = BatchEvaluator(preset.accelerator)
    slim = evaluator.evaluate(mappings, materialize=False)
    full = evaluator.evaluate(mappings, materialize=True)
    assert slim.reports is None
    assert full.reports is not None and len(full.reports) == len(mappings)
    assert slim.total_cycles.tolist() == full.total_cycles.tolist()
    assert slim.ss_overall.tolist() == full.ss_overall.tolist()


def _preset_sweep(preset_fn, options, layer, count=120):
    preset = preset_fn()
    mapper = TemporalMapper(
        preset.accelerator,
        preset.spatial_unrolling,
        MapperConfig(max_enumerated=200, samples=100, model_options=options),
    )
    mappings = list(mapper.mappings(layer))[:count]
    assert mappings
    return preset.accelerator, mappings


def test_engine_evaluate_equals_the_reference_everywhere(small_layer):
    """``engine.evaluate`` (a one-lane batch with its anatomy) returns
    the reference report on the corpus, fresh cases and preset sweeps."""
    populations = [
        (entry.case.accelerator, ModelOptions(), [entry.case.mapping])
        for entry in load_corpus(COMMITTED_CORPUS)
    ]
    populations += [
        (case.accelerator, ModelOptions(), [case.mapping])
        for case in sample_cases(seed=1307, count=FRESH_CASES)
    ]
    for preset_fn, options in (
        (case_study_accelerator, ModelOptions()),
        (case_study_accelerator, ModelOptions.paper_faithful()),
        (shared_lb_accelerator, ModelOptions(served_rule="sum")),
    ):
        accelerator, mappings = _preset_sweep(preset_fn, options, small_layer)
        populations.append((accelerator, options, mappings))
    for accelerator, options, mappings in populations:
        model = LatencyModel(accelerator, options)
        engine = EvaluationEngine(accelerator, options)
        for mapping in mappings:
            expected = model.evaluate(mapping, validate=False)
            assert engine.evaluate(mapping, validate=False) == expected


@pytest.mark.parametrize("validate", [False, True])
def test_traced_chunk_has_the_reference_trace_shape(small_layer, validate, monkeypatch):
    """A traced ``evaluate_many`` chunk records, per mapping, the same
    span subtree as the traced reference run on that mapping."""
    accelerator, mappings = _preset_sweep(
        case_study_accelerator, ModelOptions(), small_layer, count=24
    )
    monkeypatch.setattr(evaluation, "CHUNK_SIZE", len(mappings))
    engine = EvaluationEngine(accelerator)
    chunk = Tracer()
    with use_telemetry(tracer=chunk):
        outcomes = engine.evaluate_many(mappings, validate=validate)
    reference = Tracer()
    model = LatencyModel(accelerator)
    with use_telemetry(tracer=reference):
        for mapping, outcome in zip(mappings, outcomes):
            if outcome is not None:
                model.evaluate(mapping, validate=False)
    assert any(outcome is not None for outcome in outcomes)
    (batch_span,) = tree_shape(chunk.records)
    assert batch_span[0] == "engine.batch"
    assert batch_span[2] == tree_shape(reference.records)
