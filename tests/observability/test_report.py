"""The HTML stall-attribution report and its waterfall reconciliation.

The acceptance property: the waterfall rendered from a trace must carry
exactly the stall integration the model printed — its group
contributions sum to ``reconcile_ss_overall`` of the same records, which
equals the report's ``SS_overall``.
"""

import pytest

from repro.core.model import LatencyModel
from repro.dse.mapper import MapperConfig, TemporalMapper
from repro.observability import Tracer, reconcile_ss_overall, use_telemetry
from repro.observability.ledger import RunRecord, record_from_report
from repro.observability.report import (
    read_report_data,
    render_report,
    stall_waterfall,
    write_report,
)


@pytest.fixture(scope="module")
def traced():
    """One traced case-study evaluation: (report, tracer)."""
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


def test_waterfall_total_reconciles_with_trace_and_report(traced):
    report, tracer = traced
    waterfall = stall_waterfall(tracer.records)
    assert waterfall is not None
    assert waterfall.total == reconcile_ss_overall(tracer.records)
    assert waterfall.total == report.ss_overall
    assert waterfall.ss_overall == report.ss_overall


def test_waterfall_rows_mirror_served_stalls(traced):
    report, tracer = traced
    waterfall = stall_waterfall(tracer.records)
    expected = {
        f"{s.operand}@{s.memory}/L{s.level}": float(s.ss)
        for s in report.served_stalls
    }
    assert {row.label: row.ss for row in waterfall.rows} == expected
    # Every unit memory lands in a Step-3 overlap group.
    assert all(row.group >= 0 for row in waterfall.rows)
    # Each group's dominant memory is one of its rows.
    dominants = {row.group for row in waterfall.rows if row.dominant}
    assert dominants == {gid for gid, _ in waterfall.group_contributions}


def test_waterfall_none_without_step3():
    assert stall_waterfall([]) is None


def test_report_roundtrip_through_embedded_payload(traced, tmp_path):
    report, tracer = traced
    entries = [record_from_report(report), RunRecord(kind="bench", label="engine",
                                                     extra={"eval_us": 10.0})]
    path = str(tmp_path / "report.html")
    write_report(path, tracer.records, entries, title="test run")
    data = read_report_data(path)
    assert data["title"] == "test run"
    assert data["ledger_entries"] == 2
    assert data["reconciled_ss_overall"] == report.ss_overall
    assert data["waterfall"]["total"] == report.ss_overall
    assert data["summary"]["total_cycles"] == report.total_cycles
    labels = {
        f"{r['operand']}@{r['memory']}/L{r['level']}"
        for r in data["waterfall"]["rows"]
    }
    assert labels == set(record_from_report(report).ss_comb)


def test_report_html_is_self_contained(traced):
    report, tracer = traced
    html = render_report(tracer.records, [record_from_report(report)])
    assert html.startswith("<!doctype html>")
    for external in ("<link", "src=\"http", "src='http", "@import"):
        assert external not in html
    assert "Stall waterfall" in html
    assert "matches the waterfall total" in html


def test_report_includes_simulator_section_when_traced(case_preset, small_layer):
    from repro.simulator.engine import CycleSimulator

    mapper = TemporalMapper(
        case_preset.accelerator,
        case_preset.spatial_unrolling,
        MapperConfig(max_enumerated=20, samples=10),
    )
    mapping = mapper.best_mapping(small_layer).mapping
    tracer = Tracer()
    with use_telemetry(tracer=tracer):
        LatencyModel(case_preset.accelerator).evaluate(mapping)
        result = CycleSimulator(case_preset.accelerator, mapping).run()
    html = render_report(tracer.records)
    assert "Simulator" in html
    sim_spans = [r for r in tracer.records if r.name == "simulator.run"]
    assert len(sim_spans) == 1
    assert sim_spans[0].attributes["total_cycles"] == result.total_cycles
    assert [r.name for r in tracer.records].count("simulator.build_streams") == 1
