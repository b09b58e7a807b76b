"""The campaign plane: funnel conservation, convergence, gate, report.

A campaign accounts for every candidate a search enumerates: the funnel
identity ``enumerated == deduped + cache_hits + evaluated + invalid +
dominated`` must hold for every completed flow, every discard carries a
provenance tag, and the summary persists as ``kind="campaign"`` ledger
rows that the CLI gate compares across commits.
"""

import pathlib
import re

import pytest

from repro.observability import (
    MetricsRegistry,
    ProgressEmitter,
    telemetry,
    use_telemetry,
)
from repro.observability.campaign import (
    NULL_CAMPAIGN,
    PROVENANCE_BUCKETS,
    CampaignRecorder,
    PhaseFunnel,
    campaign_records,
    compare_campaigns,
    gate_campaigns,
    phase_records,
    select_campaign,
)
from repro.observability.ledger import RunLedger, RunRecord
from repro.observability.progress import (
    ConvergenceUpdate,
    FunnelSnapshot,
    ParetoFrontSnapshot,
)

GOLDEN = pathlib.Path(__file__).parent / "golden"


# --------------------------------------------------------------------- #
# PhaseFunnel semantics
# --------------------------------------------------------------------- #


def test_funnel_conservation_identity():
    funnel = PhaseFunnel("mapper")
    funnel.admit(10)
    funnel.discard("duplicate", 2)
    funnel.discard("allocation-overflow", 3)
    funnel.retain(2)
    funnel.retain(1, cache_hit=True)
    assert not funnel.conserved          # 2 candidates unclassified
    funnel.discard("keep-top", 2)
    assert funnel.conserved
    assert funnel.counts() == {
        "enumerated": 10, "deduped": 2, "cache_hits": 1,
        "evaluated": 2, "invalid": 3, "dominated": 2,
    }
    assert funnel.scored == 5            # cache + evaluated + dominated
    assert funnel.classified == 10


def test_funnel_rejects_unknown_provenance_tag():
    funnel = PhaseFunnel("mapper")
    funnel.admit()
    with pytest.raises(ValueError, match="unknown discard provenance"):
        funnel.discard("mystery-reason")


def test_funnel_discard_nonpositive_is_noop():
    funnel = PhaseFunnel("mapper")
    funnel.discard("keep-top", 0)
    funnel.discard("keep-top", -3)
    assert funnel.dominated == 0 and funnel.provenance == {}


def test_every_provenance_tag_maps_to_a_terminal_bucket():
    assert set(PROVENANCE_BUCKETS.values()) <= {
        "deduped", "invalid", "dominated"
    }


def test_funnel_as_extra_carries_tags_and_context():
    funnel = PhaseFunnel("mapper")
    funnel.admit(3)
    funnel.discard("duplicate")
    funnel.retain(2)
    funnel.context["seed"] = 7
    extra = funnel.as_extra()
    assert extra["tag.duplicate"] == 1
    assert extra["ctx.seed"] == 7
    assert extra["conserved"] == 1.0 and extra["scored"] == 2


# --------------------------------------------------------------------- #
# Recorder: convergence, stagnation, Pareto, events, metrics
# --------------------------------------------------------------------- #


def test_observe_tracks_incumbent_and_trajectory():
    campaign = CampaignRecorder("t", clock=lambda: 0.0)
    assert campaign.observe(10.0)        # first is always an improvement
    assert not campaign.observe(12.0)
    assert campaign.observe(8.0)
    assert campaign.best == 8.0
    assert campaign.observed == 3 and campaign.improvements == 2
    assert campaign.trajectory == [(1, 10.0), (3, 8.0)]
    assert campaign.improvement_rate == pytest.approx(2 / 3)
    assert campaign.since_improvement == 0


def test_stagnation_trips_after_threshold():
    campaign = CampaignRecorder("t", stagnation_after=3, clock=lambda: 0.0)
    campaign.observe(5.0)
    assert not campaign.stagnated
    for __ in range(3):
        campaign.observe(9.0)
    assert campaign.stagnated
    campaign.observe(4.0)                # an improvement resets the streak
    assert not campaign.stagnated


def test_recorder_emits_convergence_pareto_and_funnel_events():
    emitter = ProgressEmitter()
    events = []
    emitter.subscribe(events.append)
    campaign = CampaignRecorder("evt", stagnation_after=2, clock=lambda: 0.0)
    with use_telemetry(progress=emitter):
        campaign.observe(10.0)           # improvement -> event
        campaign.observe(11.0)           # no event
        campaign.observe(11.0)           # stagnation trips -> one event
        campaign.observe(11.0)           # already reported -> no event
        campaign.pareto_snapshot("arch", [(1.0, 2.0)], label="@1")
        campaign.phase("mapper").admit(2)
        campaign.phase("mapper").retain(2)
        campaign.finish()
    conv = [e for e in events if isinstance(e, ConvergenceUpdate)]
    # improvement + stagnation + the final finish() emission
    assert len(conv) == 3
    assert conv[0].objective == 10.0 and not conv[0].stagnated
    assert conv[1].stagnated
    pareto = [e for e in events if isinstance(e, ParetoFrontSnapshot)]
    assert len(pareto) == 1 and pareto[0].points == [[1.0, 2.0]]
    funnels = [e for e in events if isinstance(e, FunnelSnapshot)]
    assert len(funnels) == 1
    assert funnels[0].flow == "mapper" and funnels[0].evaluated == 2
    assert all(e.run_id == "campaign:evt" for e in conv + pareto + funnels)


def test_recorder_syncs_metrics_gauges():
    registry = MetricsRegistry()
    campaign = CampaignRecorder("m", clock=lambda: 0.0)
    with use_telemetry(metrics=registry):
        campaign.observe(42.0)
        campaign.phase("mapper").admit(2)
        campaign.phase("mapper").retain(1)
        campaign.phase("mapper").discard("keep-top")
        campaign.finish()
    text = registry.to_prometheus()
    assert "repro_campaign_best_objective 42" in text
    assert "repro_campaign_observed 1" in text
    assert 'repro_campaign_funnel{bucket="evaluated"} 1' in text
    assert 'repro_campaign_funnel{bucket="dominated"} 1' in text


def test_campaign_gauges_have_one_writer_and_one_label_set():
    """With the ambient registry and a MetricsSubscriber both active, every
    ``repro_campaign_*`` gauge is written by the recorder alone: one label
    set per gauge, so ``sum by (bucket)`` counts each candidate once."""
    from repro.observability import MetricsSubscriber

    registry = MetricsRegistry()
    emitter = ProgressEmitter()
    emitter.subscribe(MetricsSubscriber(registry))
    campaign = CampaignRecorder("sub", clock=lambda: 0.0)
    with use_telemetry(metrics=registry, progress=emitter):
        campaign.observe(7.0)
        campaign.phase("arch_search").admit(3)
        campaign.phase("arch_search").retain(3)
        campaign.pareto_snapshot("arch_search", [(1.0, 2.0)])
        campaign.finish()
    series = [line for line in registry.to_prometheus().splitlines()
              if line.startswith("repro_campaign_")]
    label_sets: dict = {}
    for line in series:
        name, labels = re.match(r"(\w+)(?:\{(.*)\})? ", line).groups()
        keys = tuple(sorted(re.findall(r'(\w+)="', labels or "")))
        label_sets.setdefault(name, set()).add(keys)
    assert all(len(keys) == 1 for keys in label_sets.values()), label_sets
    assert label_sets["repro_campaign_funnel"] == {("bucket",)}
    funnel = [line for line in series if line.startswith("repro_campaign_funnel")]
    assert len(funnel) == 6
    assert 'repro_campaign_funnel{bucket="evaluated"} 3' in series
    assert "repro_campaign_best_objective 7" in series
    assert "repro_campaign_pareto_size 1" in series


# --------------------------------------------------------------------- #
# Records, flush idempotency, ambient install
# --------------------------------------------------------------------- #


def _recorded_campaign(name="rec", partial=False):
    campaign = CampaignRecorder(name, clock=lambda: 100.0)
    funnel = campaign.phase("mapper")
    funnel.admit(5)
    funnel.discard("duplicate", 1)
    funnel.retain(3)
    funnel.discard("keep-top", 1)
    campaign.note_context("mapper", seed=0, config_fp="fp-cfg")
    for objective in (20.0, 15.0, 18.0):
        campaign.observe(objective)
    campaign.finish(partial=partial)
    return campaign


def test_to_records_summary_and_phase_rows():
    campaign = _recorded_campaign()
    summary, phase = campaign.to_records()
    assert summary.kind == "campaign" and summary.label == "rec"
    assert summary.campaign == "rec" and phase.campaign == "rec"
    assert summary.extra["best_objective"] == 15.0
    assert summary.extra["conserved"] == 1.0
    assert summary.extra["enumerated"] == 5
    assert summary.extra["trajectory"] == [[1, 20.0], [2, 15.0]]
    assert phase.kind == "campaign_phase" and phase.label == "mapper"
    assert phase.options_fp == "fp-cfg"
    assert phase.extra["tag.keep-top"] == 1
    assert phase.extra["ctx.seed"] == 0


def test_flush_to_is_idempotent(tmp_path):
    campaign = _recorded_campaign()
    with RunLedger(str(tmp_path / "c.sqlite")) as ledger:
        assert campaign.flush_to(ledger) == 2
        assert campaign.flush_to(ledger) == 0      # second flush: no-op
        rows = ledger.records()
    assert [r.kind for r in rows] == ["campaign", "campaign_phase"]


def test_partial_flush_marks_rows(tmp_path):
    campaign = _recorded_campaign(partial=True)
    with RunLedger(str(tmp_path / "c.sqlite")) as ledger:
        campaign.flush_to(ledger, partial=True)
        summary, phase = ledger.records()
    assert summary.extra["partial"] == 1.0
    assert phase.extra["partial"] == 1.0


def test_ambient_default_is_null_campaign():
    assert telemetry().campaign is NULL_CAMPAIGN
    assert not NULL_CAMPAIGN.enabled
    # The null funnel swallows everything without accounting.
    funnel = NULL_CAMPAIGN.phase("mapper")
    funnel.admit(5)
    funnel.discard("duplicate")
    funnel.retain(2)
    assert funnel.enumerated == 0 and funnel.counts()["evaluated"] == 0
    assert NULL_CAMPAIGN.flush_to(None) == 0


def test_use_campaign_installs_and_restores():
    campaign = CampaignRecorder("scoped")
    with use_telemetry(campaign=campaign):
        assert telemetry().campaign is campaign
    assert telemetry().campaign is NULL_CAMPAIGN


def test_summary_line_mentions_name_state_and_best():
    line = _recorded_campaign().summary_line()
    assert "'rec'" in line and "complete" in line and "best=15" in line


# --------------------------------------------------------------------- #
# Live flows: conservation holds end to end
# --------------------------------------------------------------------- #


def test_mapper_search_funnel_conserves(case_preset, small_layer):
    from repro.dse.mapper import MapperConfig, TemporalMapper

    mapper = TemporalMapper(
        case_preset.accelerator,
        case_preset.spatial_unrolling,
        MapperConfig(max_enumerated=40, samples=30, keep_top=5),
    )
    campaign = CampaignRecorder("mapper-flow")
    with use_telemetry(campaign=campaign):
        results = mapper.search(small_layer)
    funnel = campaign.phases["mapper"]
    assert funnel.conserved
    assert funnel.enumerated > 0
    assert funnel.cache_hits + funnel.evaluated == len(results)
    assert campaign.best == results[0].objective
    # Replayability context landed on the phase.
    assert funnel.context["seed"] == 0
    assert funnel.context["config_fp"]
    assert funnel.context["samples"] == 30


def test_mapper_rerun_hits_cache_and_counts_memoized(case_preset, small_layer):
    from repro.dse.mapper import MapperConfig, TemporalMapper

    mapper = TemporalMapper(
        case_preset.accelerator,
        case_preset.spatial_unrolling,
        MapperConfig(max_enumerated=30, samples=20),
    )
    campaign = CampaignRecorder("memo-flow")
    with use_telemetry(campaign=campaign):
        mapper.best_mapping(small_layer)
        mapper.best_mapping(small_layer)   # memoized whole-search result
    assert campaign.memoized_searches == 1
    assert campaign.phases["mapper"].conserved


def test_local_search_funnel_conserves(case_preset, small_layer):
    from repro.dse.local_search import LocalSearchConfig, LocalSearchMapper
    from repro.dse.mapper import MapperConfig, TemporalMapper

    mapper = TemporalMapper(
        case_preset.accelerator,
        case_preset.spatial_unrolling,
        MapperConfig(max_enumerated=20, samples=10),
    )
    search = LocalSearchMapper(
        mapper, LocalSearchConfig(restarts=2, max_steps=20)
    )
    campaign = CampaignRecorder("local-flow")
    with use_telemetry(campaign=campaign):
        outcome = search.search(small_layer)
    funnel = campaign.phases["local_search"]
    assert funnel.conserved
    assert campaign.best == outcome.best.objective


def test_spatial_search_funnel_conserves(case_preset, small_layer):
    from repro.dse.mapper import MapperConfig
    from repro.dse.spatial_search import SpatialSearch, SpatialSearchConfig

    search = SpatialSearch(
        case_preset.accelerator,
        SpatialSearchConfig(
            max_candidates=6,
            mapper_config=MapperConfig(max_enumerated=20, samples=10),
        ),
    )
    campaign = CampaignRecorder("spatial-flow")
    with use_telemetry(campaign=campaign):
        results = search.search(small_layer)
    funnel = campaign.phases["spatial_search"]
    assert funnel.conserved
    assert funnel.evaluated == len(results)
    assert campaign.phases["mapper"].conserved   # nested temporal searches


def test_arch_search_funnel_conserves_and_snapshots_front(small_layer):
    from repro.dse.arch_search import ArchSearch, ArchSearchConfig
    from repro.dse.mapper import MapperConfig
    from repro.hardware.pool import MemoryPool
    from repro.hardware.presets import array_scales

    scales = {"16x16": array_scales()["16x16"]}
    config = ArchSearchConfig(
        array_scales=scales,
        pool=MemoryPool.small(),
        mapper_config=MapperConfig(max_enumerated=20, samples=10, keep_top=1),
    )
    campaign = CampaignRecorder("arch-flow")
    with use_telemetry(campaign=campaign):
        points = ArchSearch(config).evaluate(small_layer)
    funnel = campaign.phases["arch_search"]
    assert funnel.conserved
    assert funnel.evaluated == len(points)
    assert campaign.phases["mapper"].conserved
    # The final front was snapshotted (plus power-of-two checkpoints).
    assert campaign.snapshots
    assert campaign.snapshots[-1]["label"] == "final"
    assert campaign.snapshots[-1]["points"]


def test_bw_unaware_arch_search_classifies_baseline_scored(small_layer):
    from repro.dse.arch_search import ArchSearch, ArchSearchConfig
    from repro.dse.mapper import MapperConfig
    from repro.hardware.pool import MemoryPool
    from repro.hardware.presets import array_scales

    config = ArchSearchConfig(
        array_scales={"16x16": array_scales()["16x16"]},
        pool=MemoryPool.small(),
        bw_aware=False,
        mapper_config=MapperConfig(max_enumerated=15, samples=8, keep_top=1),
    )
    campaign = CampaignRecorder("bw-unaware-flow")
    with use_telemetry(campaign=campaign):
        ArchSearch(config).evaluate(small_layer)
    assert campaign.phases["mapper"].conserved
    assert campaign.phases["arch_search"].conserved
    assert campaign.observed > 0


def test_network_funnel_conserves(case_preset):
    from repro.analysis.network import NetworkEvaluator
    from repro.dse.mapper import MapperConfig
    from repro.workload.networks import hand_tracking_layers

    evaluator = NetworkEvaluator(
        case_preset,
        mapper_config=MapperConfig(max_enumerated=20, samples=10),
    )
    campaign = CampaignRecorder("net-flow")
    with use_telemetry(campaign=campaign):
        result = evaluator.evaluate(hand_tracking_layers(limit=2))
    funnel = campaign.phases["network"]
    assert funnel.conserved
    assert funnel.enumerated == 2
    assert funnel.evaluated == len(result.layers)


def test_engine_stamps_campaign_on_evaluation_rows(
    tmp_path, case_preset, small_layer
):
    from repro.dse.mapper import MapperConfig, TemporalMapper

    mapper = TemporalMapper(
        case_preset.accelerator,
        case_preset.spatial_unrolling,
        MapperConfig(max_enumerated=15, samples=10),
    )
    campaign = CampaignRecorder("stamped")
    with RunLedger(str(tmp_path / "runs.sqlite")) as ledger:
        with use_telemetry(ledger=ledger, campaign=campaign):
            mapper.best_mapping(small_layer)
        rows = ledger.records(kind="evaluation")
    assert rows and all(r.campaign == "stamped" for r in rows)


# --------------------------------------------------------------------- #
# Selection, comparison, gate
# --------------------------------------------------------------------- #


def _campaign_row(name="c", best=100.0, scored=50, ts=1.0, **extra_overrides):
    extra = {
        "best_objective": best, "scored": float(scored),
        "enumerated": float(scored * 2), "deduped": float(scored),
        "cache_hits": 0.0, "evaluated": float(scored),
        "invalid": 0.0, "dominated": 0.0,
        "observed": float(scored), "improvements": 3.0,
    }
    extra.update(extra_overrides)
    return RunRecord(
        kind="campaign", label=name, campaign=name, ts=ts,
        git_sha="abc1234", extra=extra,
    )


def test_select_campaign_latest_optionally_by_name():
    rows = [
        _campaign_row("a", ts=1.0),
        _campaign_row("b", ts=2.0),
        _campaign_row("a", best=90.0, ts=3.0),
    ]
    assert select_campaign(rows).extra["best_objective"] == 90.0
    assert select_campaign(rows, "b").label == "b"
    assert select_campaign(rows, "missing") is None
    assert select_campaign([]) is None


def test_campaign_and_phase_record_filters():
    phase = RunRecord(kind="campaign_phase", label="mapper", campaign="a")
    other = RunRecord(kind="evaluation")
    rows = [_campaign_row("a"), phase, other]
    assert campaign_records(rows) == [rows[0]]
    assert phase_records(rows, "a") == [phase]
    assert phase_records(rows, "b") == []


def test_compare_campaigns_reports_deltas():
    lines = compare_campaigns(
        _campaign_row("a", best=100.0), _campaign_row("a", best=90.0)
    )
    text = "\n".join(lines)
    assert "best_objective: 100 -> 90" in text
    assert "scored: 50 -> 50 (+0)" in text


def test_gate_ok_on_equal_and_improved():
    base = [_campaign_row(best=100.0)]
    assert gate_campaigns(base, [_campaign_row(best=100.0)]).code == 0
    improved = gate_campaigns(base, [_campaign_row(best=80.0)])
    assert improved.code == 0
    assert any("improved" in line for line in improved.lines)


def test_gate_fails_on_best_objective_regression():
    result = gate_campaigns(
        [_campaign_row(best=100.0)], [_campaign_row(best=120.0)]
    )
    assert result.code == 1 and not result.ok
    assert any("FAIL best_objective" in line for line in result.lines)
    # Within tolerance passes.
    assert gate_campaigns(
        [_campaign_row(best=100.0)], [_campaign_row(best=100.5)]
    ).code == 0


def test_gate_fails_on_coverage_collapse():
    result = gate_campaigns(
        [_campaign_row(scored=100)], [_campaign_row(scored=10)]
    )
    assert result.code == 1
    assert any("FAIL coverage" in line for line in result.lines)


def test_gate_fails_when_candidate_lost_the_incumbent():
    cand = _campaign_row()
    cand.extra.pop("best_objective")
    result = gate_campaigns([_campaign_row()], [cand])
    assert result.code == 1
    assert any("no incumbent" in line for line in result.lines)


def test_gate_missing_rows_are_code_two():
    assert gate_campaigns([], [_campaign_row()]).code == 2
    assert gate_campaigns([_campaign_row()], []).code == 2
    assert gate_campaigns(
        [_campaign_row("a")], [_campaign_row("a")], name="other"
    ).code == 2


# --------------------------------------------------------------------- #
# HTML campaign report
# --------------------------------------------------------------------- #


def _golden_records():
    """A fixed campaign row set: the report over it must be byte-stable."""
    summary = RunRecord(
        kind="campaign", label="golden", campaign="golden",
        ts=1000.0, git_sha="deadbee", total_cycles=394.0,
        extra={
            "enumerated": 40.0, "deduped": 18.0, "cache_hits": 2.0,
            "evaluated": 13.0, "invalid": 3.0, "dominated": 4.0,
            "scored": 19.0, "conserved": 1.0, "partial": 0.0,
            "observed": 19.0, "improvements": 3.0,
            "improvement_rate": 3.0 / 19.0, "since_improvement": 7.0,
            "stagnated": 0.0, "memoized_searches": 1.0, "phases": 2.0,
            "best_objective": 394.0,
            "trajectory": [[1, 812.0], [4, 540.0], [12, 394.0]],
            "pareto": [
                {"flow": "arch_search", "label": "@2", "at": 6,
                 "points": [[1.0, 800.0], [2.0, 600.0]]},
                {"flow": "arch_search", "label": "final", "at": 19,
                 "points": [[1.0, 700.0], [1.5, 500.0], [3.0, 394.0]]},
            ],
        },
    )
    phase = RunRecord(
        kind="campaign_phase", label="mapper", campaign="golden",
        ts=1000.0, git_sha="deadbee", options_fp="fp-cfg",
        extra={
            "enumerated": 40.0, "deduped": 18.0, "cache_hits": 2.0,
            "evaluated": 13.0, "invalid": 3.0, "dominated": 4.0,
            "scored": 19.0, "conserved": 1.0, "partial": 0.0,
            "tag.canonical-equivalent": 15.0, "tag.duplicate": 3.0,
            "tag.keep-top": 4.0, "tag.mapping-error": 3.0,
            "ctx.seed": 0.0, "ctx.config_fp": "fp-cfg",
        },
    )
    return summary, [phase]


def test_campaign_report_matches_committed_golden():
    from repro.observability.report import render_campaign_report

    summary, phases = _golden_records()
    html = render_campaign_report(summary, phases)
    expected = (GOLDEN / "campaign_report.html").read_text()
    assert html == expected


def test_campaign_report_payload_roundtrip(tmp_path):
    from repro.observability.report import (
        read_campaign_report_data,
        write_campaign_report,
    )

    summary, phases = _golden_records()
    path = str(tmp_path / "campaign.html")
    write_campaign_report(path, summary, phases)
    payload = read_campaign_report_data(path)
    assert payload["campaign"] == "golden"
    assert payload["funnel"]["enumerated"] == 40.0
    assert payload["conserved"] is True
    assert len(payload["phases"]) == 1
    assert payload["phases"][0]["flow"] == "mapper"
    assert len(payload["pareto"]) == 2


def test_campaign_report_handles_empty_campaign():
    from repro.observability.report import render_campaign_report

    bare = RunRecord(kind="campaign", label="bare", campaign="bare",
                     ts=0.0, git_sha="x", extra={"partial": 1.0})
    html = render_campaign_report(bare)
    assert "no incumbent found" in html
    assert "partial (interrupted)" in html
    assert "no Pareto snapshots recorded" in html
