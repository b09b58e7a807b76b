"""Bound-first latency search picks the same winner as scoring every mapping.

A latency search scores only the mappings whose latency bracket can
still beat the incumbent. These tests hold it to a strict ``<`` scan over
fully evaluated mappings (first of equals wins): the same winner, the
same report, also with cache hits, small chunks, several blocks and
generated machines, and pruned mappings leave nothing behind.
"""

import dataclasses
import json
import math
import random

import numpy as np
import pytest

from repro.core.batch import BatchEvaluator
from repro.core.step1 import ModelOptions
from repro.dse.mapper import MapperConfig, TemporalMapper
from repro.engine import BestOf, EvaluationEngine, evaluation
from repro.engine.cache import PartialResultCache
from repro.hardware.presets import case_study_accelerator, inhouse_accelerator
from repro.mapping.mapping import Mapping
from repro.mapping.temporal import TemporalMapping
from repro.observability.campaign import CampaignRecorder
from repro.observability.progress import ProgressEmitter
from repro.observability.telemetry import telemetry, use_telemetry
from repro.verify.generators import GeneratorConfig, case_mappings, random_accelerator, random_layer
from repro.workload.generator import dense_layer
from repro.workload.operand import Operand
from tests.observability import test_flow_pin as flow_pin


def _scan(cc, incumbent=math.inf):
    best = None
    for i, value in enumerate(cc):
        if value < (incumbent if best is None else cc[best]):
            best = i
    return best


def _mappings(preset, layer, **config):
    mapper = TemporalMapper(
        preset.accelerator, preset.spatial_unrolling, MapperConfig(**config)
    )
    return list(mapper.mappings(layer))


def _generated(index):
    rng = random.Random(f"best-of/{index}")
    config = GeneratorConfig()
    accelerator, spatial = random_accelerator(rng, config)
    layer = random_layer(rng, config, name=f"g{index}")
    return accelerator, case_mappings(accelerator, spatial, layer, config, limit=48)


BATCHES = [
    ("case-study", case_study_accelerator().accelerator,
     _mappings(case_study_accelerator(), dense_layer(64, 128, 1200),
               max_enumerated=64, samples=64)),
    ("in-house", inhouse_accelerator().accelerator,
     _mappings(inhouse_accelerator(), dense_layer(8, 64, 512),
               max_enumerated=64, samples=64)),
] + [(f"generated-{i}", *_generated(i)) for i in range(8)]


@pytest.mark.parametrize(
    "options", [ModelOptions(), ModelOptions.paper_faithful()], ids=["default", "paper"]
)
@pytest.mark.parametrize("name, accelerator, mappings", BATCHES, ids=[b[0] for b in BATCHES])
def test_batch_best_is_the_first_least_latency(name, accelerator, mappings, options):
    if not mappings:
        pytest.skip("no mapping")
    full = BatchEvaluator(accelerator, options).evaluate(mappings)
    cc = full.total_cycles
    lo, hi = BatchEvaluator(accelerator, options).bracket(mappings)
    assert np.all(lo <= cc) and np.all(cc <= hi)
    for incumbent in (math.inf, float(cc.min()), float(np.median(cc)), float(cc.min()) - 1):
        evaluator = BatchEvaluator(accelerator, options, muw_cache=PartialResultCache())
        found = evaluator.best(mappings, incumbent)
        want = _scan(cc.tolist(), incumbent)
        assert found.lane == want
        assert found.scored + found.pruned == len(mappings)
        if want is not None:
            assert found.result.reports[want] == full.reports[want]
            assert found.result.full_report(want) == full.full_report(want)


@pytest.mark.parametrize("seed", range(6))
def test_engine_best_of_with_cache_hits_and_chunks(seed, monkeypatch):
    rng = random.Random(seed)
    name, accelerator, mappings = BATCHES[seed % 2]
    mappings = rng.sample(mappings, 40)
    cc = [e.report.total_cycles for e in EvaluationEngine(accelerator).evaluate_many(mappings)]
    monkeypatch.setattr(evaluation, "CHUNK_SIZE", rng.choice((1, 5, 16, 256)))
    engine = EvaluationEngine(accelerator)
    engine.evaluate_many(rng.sample(mappings, rng.randrange(0, 20)))  # warm hits
    incumbent = rng.choice((math.inf, min(cc), sorted(cc)[10]))
    found = engine.best_of(mappings, incumbent)
    want = _scan(cc, incumbent)
    if want is None:
        assert found.best is None
    else:
        assert found.best.mapping is mappings[want]
        assert found.best.report.total_cycles == cc[want]
    assert found.scored + found.pruned + found.infeasible == len(mappings)
    assert found.ahead == (len(mappings) if want is None else want)


def _shallow(mapping):
    """``mapping`` with no W cuts: shallower than the machine."""
    cuts = dict(mapping.temporal.cuts)
    cuts[Operand.W] = ()
    return Mapping(
        mapping.layer, mapping.spatial, TemporalMapping(mapping.temporal.loops, cuts)
    )


@pytest.mark.parametrize("chunk_size", [7, 256])
def test_best_of_counts_the_candidates_ahead_of_its_winner(chunk_size, monkeypatch):
    monkeypatch.setattr(evaluation, "CHUNK_SIZE", chunk_size)
    name, accelerator, mappings = BATCHES[0]
    block = [_shallow(m) if i % 4 == 1 else m for i, m in enumerate(mappings[:30])]
    want = BestOf.scan(EvaluationEngine(accelerator).evaluate_many(block), math.inf)
    assert want.infeasible and want.ahead
    for incumbent in (math.inf, want.best.report.total_cycles):
        found = EvaluationEngine(accelerator).best_of(block, incumbent)
        scan = BestOf.scan(EvaluationEngine(accelerator).evaluate_many(block), incumbent)
        assert (found.best and found.best.mapping) is (scan.best and scan.best.mapping)
        assert found.scored + found.pruned == scan.scored
        assert (found.infeasible, found.ahead) == (scan.infeasible, scan.ahead)


def test_pruned_mappings_get_no_report_cache_entry_or_row():
    name, accelerator, mappings = BATCHES[0]
    engine = EvaluationEngine(accelerator)
    ledger = flow_pin.ListLedger()
    with use_telemetry(ledger=ledger):
        found = engine.best_of(mappings)
    assert found.pruned > 0
    assert engine.stats.bound_pruned == found.pruned
    assert engine.stats.evaluations == found.scored
    assert len(engine.cache) == 1
    assert engine.cache.get(engine._latency_key(found.best.mapping)) == found.best.report
    assert [row.total_cycles for row in ledger.rows] == [found.best.report.total_cycles]


def test_best_of_scan_is_the_strict_first_minimum():
    name, accelerator, mappings = BATCHES[0]
    outcomes = EvaluationEngine(accelerator).evaluate_many(mappings[:12]) + [None]
    cc = [o.report.total_cycles for o in outcomes[:-1]]
    found = BestOf.scan(outcomes, math.inf)
    assert found.best is outcomes[_scan(cc)]
    assert (found.scored, found.pruned, found.infeasible) == (12, 0, 1)
    assert found.ahead == _scan(cc)


@pytest.mark.parametrize("batch_size", [7, 256])
@pytest.mark.parametrize("preset, layer", [
    (case_study_accelerator(), dense_layer(32, 64, 600)),
    (inhouse_accelerator(), dense_layer(16, 64, 256)),
])
def test_best_mapping_equals_a_search_that_scores_everything(preset, layer, batch_size):
    config = MapperConfig(max_enumerated=80, samples=60, batch_size=batch_size)
    mapper = TemporalMapper(preset.accelerator, preset.spatial_unrolling, config)
    best = mapper.best_mapping(layer)
    # search() scores every mapping; its stable sort keeps the first of equals.
    want = TemporalMapper(
        preset.accelerator, preset.spatial_unrolling, config
    ).search(layer)[0]
    assert best.mapping == want.mapping
    assert best.report == want.report
    assert mapper.engine.stats.bound_pruned > 0


def _score_every_candidate(self, block, incumbent):
    """A latency block as a search that scores every candidate runs it:
    ``evaluate_many``, then per candidate one ``campaign.observe`` and a
    progress ``best`` on each improvement, with a strict ``<`` scan."""
    t = telemetry()
    run = t.progress.current_run("evals")
    winner = None
    scored = 0
    for result in self._score(block):
        scored += 1
        t.campaign.observe(result.objective)
        if result.objective < (incumbent if winner is None else winner.objective):
            winner = result
            if run is not None:
                layer = result.mapping.layer
                run.best(
                    result.objective,
                    total_cycles=result.report.total_cycles,
                    utilization=result.report.utilization,
                    label=layer.name or str(layer.layer_type),
                )
    return winner, scored, 0


#: Digests of the flows as they ran before latency searches became
#: bound-first (the pins of ``test_flow_pin`` at that time).
SCORED_EVERYTHING = {
    ("arch_search", "on"): "0ed5445b29d35bc7309a3a7db200b5a24b86ad0dc06b634e7789cbaa325a27cb",
    ("arch_search", "on-interrupt"): "8a9cc0a463f74d4977c6d0d18db138b1b71b9f77aeff073148626f12548d823d",
    ("arch_search", "off-interrupt"): "2420ddf943f14478732b429d2111d7dd27896fb0fe70f59289ea322a2ef6c482",
    ("best_mapping", "on"): "9883b1b7e1c549aca4bd5c0d568e0e1cbb556fe1eaaa097518d9bcf0f6a79f24",
    ("best_mapping", "on-interrupt"): "71ef1ab2d9390b1fb675a42c1a765235d45390449f90934a6ebc795fbc0420dd",
    ("best_mapping", "off-interrupt"): "01a1d426259a5ce57fe138ddd5af75efd1369ed0f218d3cd65dd13ac33651894",
    ("network", "on"): "013a87b882aa25d24af273d02b8dedcb0b996eedbe09a41dc0141451211ecc7f",
    ("network", "on-interrupt"): "8735f5ce5d5e8b9a48f3a952bdaf040bb5b9243dda47af16de86a179d4f69928",
    ("network", "off-interrupt"): "bdbf143733bf9781e03f26bc12de56105b163460d2e8e9476b64b26cb0798ce4",
}

_CAMPAIGN_SEQUENCE = ("improvements", "improvement_rate", "trajectory")


def _is_subsequence(part, whole):
    rest = iter(whole)
    return all(any(item == other for other in rest) for item in part)


def _split(recording):
    """``(fixed, moved)``: the recording without what bound-first search
    may move, and those parts: the evaluation counts, the evaluation
    rows, the losers' funnel tags and the incumbent sequence (the
    ``BestSoFar`` and ``ConvergenceUpdate`` events and the campaign row's
    improvement count, rate and trajectory)."""
    engine = dict(recording["engine"])
    moved = {
        "evaluations": [engine.pop(k, 0) for k in ("evaluations", "batched_evaluations")],
        "evaluation_rows": [], "lost": 0, "best_so_far": [], "convergence": [],
        "campaign": {},
    }
    rows = []
    for row in recording["rows"]:
        if row["kind"] == "evaluation":
            moved["evaluation_rows"].append(json.dumps(row, sort_keys=True, default=repr))
            continue
        extra = dict(row["extra"])
        moved["lost"] += extra.pop("tag.beaten-incumbent", 0) + extra.pop("tag.bound-pruned", 0)
        if row["kind"] == "campaign":
            moved["campaign"] = {k: extra.pop(k) for k in _CAMPAIGN_SEQUENCE}
        rows.append(dict(row, extra=extra))
    events = []
    for event in recording["events"]:
        if event["type"] == "BestSoFar":
            moved["best_so_far"].append(event)
        elif event["type"] == "ConvergenceUpdate":
            moved["convergence"].append(
                {k: v for k, v in event.items() if k not in _CAMPAIGN_SEQUENCE}
            )
        else:
            events.append(event)
    fixed = dict(recording, engine=engine, rows=rows, events=events)
    return fixed, moved


@pytest.mark.parametrize("mode", ["on", "on-interrupt", "off-interrupt"])
@pytest.mark.parametrize("flow", ["best_mapping", "arch_search", "network"])
def test_bound_first_moves_only_counts_rows_tags_and_the_incumbent_sequence(
    flow, mode, monkeypatch, tmp_path
):
    """Against the same flow scoring every candidate, as latency searches
    ran before they were bound-first (its digest is that run's pin), only
    the evaluation counts and rows, the beaten-incumbent/bound-pruned
    split and the incumbent sequence move; the campaign still counts
    every candidate, so ``observed``, ``since_improvement`` and the
    Pareto snapshots' ``at`` stay."""
    bound_first = flow_pin.record_flow(flow, mode, monkeypatch, tmp_path)
    monkeypatch.setattr(TemporalMapper, "_block_best", _score_every_candidate)
    scanned = flow_pin.record_flow(flow, mode, monkeypatch, tmp_path)
    assert flow_pin.digest(scanned) == SCORED_EVERYTHING[(flow, mode)]

    fixed, moved = _split(bound_first)
    want, was = _split(scanned)
    assert fixed == want
    # Fewer evaluations, each remaining row one of the scanned rows.
    assert all(a <= b for a, b in zip(moved["evaluations"], was["evaluations"]))
    assert set(moved["evaluation_rows"]) <= set(was["evaluation_rows"])
    assert len(moved["evaluation_rows"]) <= len(was["evaluation_rows"])
    assert moved["lost"] == was["lost"]
    # The incumbent sequence keeps its improvements in place and its end.
    assert _is_subsequence(moved["best_so_far"], was["best_so_far"])
    assert _is_subsequence(moved["convergence"], was["convergence"])
    assert moved["convergence"][-1:] == was["convergence"][-1:]
    if mode == "on":
        assert len(moved["evaluation_rows"]) < len(was["evaluation_rows"])
        trajectory = moved["campaign"]["trajectory"]
        assert _is_subsequence(trajectory, was["campaign"]["trajectory"])
        assert trajectory[-1] == was["campaign"]["trajectory"][-1]
        assert moved["campaign"]["improvements"] == len(trajectory)


def test_skipped_candidates_count_toward_stagnation():
    """``skip`` is ``observe`` of candidates that do not improve: the same
    counts, trajectory and events, the stagnation report included."""
    runs = {}
    for skipping in (True, False):
        campaign = CampaignRecorder("c", stagnation_after=5)
        emitter = ProgressEmitter(clock=lambda: 0.0)
        events = []
        emitter.subscribe(events.append)
        with use_telemetry(progress=emitter):
            campaign.observe(10.0)
            if skipping:
                campaign.skip(3)
                campaign.observe(7.0)
                campaign.skip(8)
            else:
                for value in (11.0, 12.0, 13.0, 7.0) + (9.0,) * 8:
                    campaign.observe(value)
        runs[skipping] = campaign, [dataclasses.asdict(e) for e in events]
    (campaign, events), (reference, reference_events) = runs[True], runs[False]
    assert campaign.observed == reference.observed == 13
    assert campaign.since_improvement == reference.since_improvement == 8
    assert campaign.trajectory == reference.trajectory
    assert events == reference_events
    assert [e["stagnated"] for e in events] == [False, False, True]
