"""Span taxonomy of one model evaluation, and no-op tracer parity.

The model's trace must let a reader reconstruct the paper's 3-step story:
per-DTL ``SS_u`` from Step 1, the Eq. (1)/(2) port combinations from
Step 2, and the per-group integration that yields ``SS_overall`` in
Step 3 — with numbers that reconcile against the printed report.
"""

import pytest

from repro.core.model import LatencyModel
from repro.dse.mapper import MapperConfig, TemporalMapper
from repro.observability import (
    Tracer,
    find_spans,
    per_dtl_stalls,
    reconcile_ss_overall,
    use_telemetry,
)


@pytest.fixture(scope="module")
def traced():
    """One traced case-study evaluation: (report, records)."""
    from repro.hardware.presets import case_study_accelerator
    from repro.workload.generator import dense_layer

    preset = case_study_accelerator()
    layer = dense_layer(64, 128, 1200)
    mapper = TemporalMapper(
        preset.accelerator,
        preset.spatial_unrolling,
        MapperConfig(max_enumerated=60, samples=40),
    )
    mapping = mapper.best_mapping(layer).mapping
    tracer = Tracer()
    with use_telemetry(tracer=tracer):
        report = LatencyModel(preset.accelerator).evaluate(mapping)
    return report, tracer


def test_evaluate_span_contains_all_three_steps(traced):
    _, tracer = traced
    roots = tracer.roots()
    assert len(roots) == 1
    root = roots[0]
    assert root.name == "model.evaluate"
    child_names = [c.name for c in root.children]
    assert child_names == [
        "model.step1",
        "model.step2.ports",
        "model.step2.served",
        "model.step3",
    ]


def test_evaluate_span_attributes_match_report(traced):
    report, tracer = traced
    attrs = tracer.roots()[0].attributes
    assert attrs["ss_overall"] == report.ss_overall
    assert attrs["cc_spatial"] == report.cc_spatial
    assert attrs["cc_ideal"] == report.cc_ideal
    assert attrs["total_cycles"] == report.total_cycles
    assert attrs["scenario"] == report.scenario
    assert attrs["accelerator"] == report.accelerator_name


def test_per_dtl_spans_mirror_report_dtls(traced):
    report, tracer = traced
    dtl_spans = find_spans(tracer.records, "step1.dtl")
    assert len(dtl_spans) == len(report.dtls)
    assert per_dtl_stalls(tracer.records) == [d.ss_u for d in report.dtls]
    for span, dtl in zip(dtl_spans, report.dtls):
        assert span.attributes["memory"] == dtl.memory
        assert span.attributes["port"] == dtl.port
        assert span.attributes["req_bw"] == dtl.req_bw
        assert span.attributes["muw_u"] == dtl.muw_u


def test_step2_port_spans_carry_equation_decision(traced):
    report, tracer = traced
    port_spans = find_spans(tracer.records, "step2.port")
    assert len(port_spans) == len(report.port_combinations)
    for span in port_spans:
        comb = report.port_combinations[
            (span.attributes["memory"], span.attributes["port"])
        ]
        assert span.attributes["ss_comb"] == comb.ss_comb
        expected = "eq2" if any(d.ss_u > 0 for d in comb.dtls) else "eq1"
        assert span.attributes["equation"] == expected


def test_step3_groups_reconcile_to_ss_overall(traced):
    report, tracer = traced
    group_spans = find_spans(tracer.records, "step3.group")
    assert len(group_spans) == len(report.integration.group_stalls)
    for span, (gid, contribution) in zip(
        group_spans, report.integration.group_stalls
    ):
        assert span.attributes["group"] == gid
        assert span.attributes["ss_group"] == contribution
        assert span.attributes["ss_group"] == max(
            0.0, span.attributes["ss_group_raw"]
        )
    assert reconcile_ss_overall(tracer.records) == report.ss_overall


def test_reconcile_none_without_step3_span():
    tracer = Tracer()
    with tracer.span("unrelated"):
        pass
    assert reconcile_ss_overall(tracer.records) is None


def test_noop_tracer_parity(case_preset, small_layer):
    """Tracing must never change the numbers: traced == untraced."""
    mapper = TemporalMapper(
        case_preset.accelerator,
        case_preset.spatial_unrolling,
        MapperConfig(max_enumerated=40, samples=30),
    )
    mapping = mapper.best_mapping(small_layer).mapping
    model = LatencyModel(case_preset.accelerator)

    plain = model.evaluate(mapping)
    with use_telemetry(tracer=Tracer()):
        traced = model.evaluate(mapping)

    assert traced.total_cycles == plain.total_cycles
    assert traced.ss_overall == plain.ss_overall
    assert traced.preload == plain.preload
    assert traced.offload == plain.offload
    assert traced.scenario == plain.scenario
    assert [d.ss_u for d in traced.dtls] == [d.ss_u for d in plain.dtls]
