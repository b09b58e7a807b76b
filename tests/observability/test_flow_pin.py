"""Pinned telemetry of every long-running flow.

Each flow (mapper ``search``/``best_mapping``, ``ArchSearch.evaluate``,
``NetworkEvaluator.evaluate``, ``LocalSearchMapper.search`` and
``run_verification``) runs three ways:

* ``on``: progress emitter (fake clock), ledger and campaign installed,
  run to completion;
* ``on-interrupt``: the same, with a ``KeyboardInterrupt`` injected
  after a fixed number of units;
* ``off-interrupt``: no telemetry at all, with the same interrupt.

What the flow leaves behind (the event stream, the ledger rows, the
campaign rows, the open-run stack and the engine counters) is folded
into one SHA-256, with timestamps, wall times, rates, worker ids and
the git SHA dropped. Any change to how a flow opens, advances, finishes
or checkpoints its telemetry fails here, even when each piece still
looks plausible on its own.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import pathlib
import shutil

import pytest

import repro.engine.executors as executors
import repro.verify.runner as runner
from repro.analysis.network import NetworkEvaluator
from repro.dse.arch_search import ArchSearch, ArchSearchConfig
from repro.dse.local_search import LocalSearchConfig, LocalSearchMapper
from repro.dse.mapper import MapperConfig, TemporalMapper
from repro.engine import EvaluationEngine
from repro.hardware.pool import MemoryPool
from repro.hardware.presets import KB, case_study_accelerator
from repro.observability.campaign import CampaignRecorder, use_campaign
from repro.observability.ledger import use_ledger
from repro.observability.progress import (
    ProgressEmitter,
    event_to_dict,
    use_emitter,
)
from repro.workload.generator import dense_layer

CORPUS = pathlib.Path(__file__).parents[1] / "verify" / "corpus"

#: Event fields that carry wall-clock or process identity.
_EVENT_NOISE = ("ts", "wall_s", "evals_per_s", "eta_s", "worker")
#: Ledger-row fields that carry wall-clock or commit identity.
_ROW_NOISE = ("ts", "wall_time_s", "git_sha")


class FakeClock:
    """A clock that advances one second per read."""

    def __init__(self) -> None:
        self.now = 1000.0

    def __call__(self) -> float:
        self.now += 1.0
        return self.now


class ListLedger:
    """An in-memory ledger: the ambient-ledger surface the flows use."""

    enabled = True
    path = None

    def __init__(self) -> None:
        self.rows = []

    def append(self, record) -> None:
        self.rows.append(record)

    def append_many(self, records) -> None:
        self.rows.extend(records)

    def __len__(self) -> int:
        return len(self.rows)


def _interrupt_after(monkeypatch, owner, name: str, calls: int) -> dict:
    """Make ``owner.name`` raise ``KeyboardInterrupt`` on call ``calls + 1``."""
    real = getattr(owner, name)
    seen = {"calls": 0}

    def wrapper(*args, **kwargs):
        if seen["calls"] >= calls:
            raise KeyboardInterrupt
        seen["calls"] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return seen


# --------------------------------------------------------------------- #
# Flows: each returns (callable, engine-or-None, interrupt injector)
# --------------------------------------------------------------------- #


def _mapper():
    preset = case_study_accelerator()
    engine = EvaluationEngine(preset.accelerator, chunk_size=8)
    return TemporalMapper(
        preset.accelerator, preset.spatial_unrolling,
        MapperConfig(max_enumerated=30, samples=20, batch_size=16),
        engine=engine,
    )


def _flow_search(monkeypatch, tmp_path):
    mapper = _mapper()
    layer = dense_layer(16, 32, 60, name="pin")
    return (
        lambda: [r.objective for r in mapper.search(layer)],
        mapper.engine,
        lambda: _interrupt_after(monkeypatch, executors, "evaluate_chunk", 1),
    )


def _flow_best_mapping(monkeypatch, tmp_path):
    mapper = _mapper()
    layer = dense_layer(32, 64, 120, name="pin")
    return (
        lambda: mapper.best_mapping(layer).objective,
        mapper.engine,
        lambda: _interrupt_after(monkeypatch, executors, "evaluate_chunk", 2),
    )


def _flow_arch_search(monkeypatch, tmp_path):
    pool = MemoryPool(
        w_reg_options=(8,),
        i_reg_options=(8,),
        o_reg_options=(24, 96),
        w_lb_options=(8 * KB, 32 * KB),
        i_lb_options=(4 * KB,),
    )
    search = ArchSearch(ArchSearchConfig(
        array_scales={"16x16": (16, 8, 2)},
        pool=pool,
        mapper_config=MapperConfig(max_enumerated=30, samples=20, keep_top=1),
    ))
    layer = dense_layer(16, 32, 60, name="pin")

    def run():
        return [(p.accelerator_name, p.latency) for p in search.evaluate(layer)]

    return (
        run,
        None,
        lambda: _interrupt_after(monkeypatch, ArchSearch, "evaluate_one", 2),
    )


def _flow_network(monkeypatch, tmp_path):
    preset = case_study_accelerator()
    evaluator = NetworkEvaluator(
        preset,
        mapper_config=MapperConfig(max_enumerated=30, samples=20, batch_size=16),
        engine=EvaluationEngine(preset.accelerator, chunk_size=8),
    )
    layers = [
        dense_layer(16, 32, 60, name="a"),
        dense_layer(32, 64, 120, name="b"),
        dense_layer(16, 32, 60, name="c"),
    ]
    return (
        lambda: evaluator.evaluate(layers).total_cycles,
        evaluator.engine,
        # Mid-way through layer "b": exercises the nested mapper run and
        # the engine batch's own checkpoint under the network run.
        lambda: _interrupt_after(monkeypatch, executors, "evaluate_chunk", 3),
    )


def _flow_local_search(monkeypatch, tmp_path):
    preset = case_study_accelerator()
    mapper = TemporalMapper(
        preset.accelerator, preset.spatial_unrolling,
        MapperConfig(max_enumerated=0, samples=12, seed=1),
        engine=EvaluationEngine(preset.accelerator, chunk_size=8),
    )
    search = LocalSearchMapper(
        mapper, LocalSearchConfig(restarts=3, max_steps=12)
    )
    layer = dense_layer(32, 64, 240, name="pin")
    return (
        lambda: search.search(layer).best.objective,
        mapper.engine,
        lambda: _interrupt_after(monkeypatch, LocalSearchMapper, "climb", 1),
    )


def _flow_verify(monkeypatch, tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    first = sorted(CORPUS.glob("*.json"))[0]
    shutil.copy(first, corpus / first.name)

    def run():
        summary = runner.run_verification(
            examples=4, seed=0, corpus_dir=corpus, shrink=False,
        )
        return (summary.cases_checked, len(summary.violations))

    return (
        run,
        None,
        # The corpus case is call 1; the interrupt lands in the examples.
        lambda: _interrupt_after(monkeypatch, runner, "check_case", 3),
    )


FLOWS = {
    "search": _flow_search,
    "best_mapping": _flow_best_mapping,
    "arch_search": _flow_arch_search,
    "network": _flow_network,
    "local_search": _flow_local_search,
    "verify": _flow_verify,
}


# --------------------------------------------------------------------- #
# Recording
# --------------------------------------------------------------------- #


def _event(event) -> dict:
    data = event_to_dict(event)
    for key in _EVENT_NOISE:
        data.pop(key, None)
    return data


def _row(record) -> dict:
    data = dataclasses.asdict(record)
    for key in _ROW_NOISE:
        data.pop(key, None)
    return data


def _engine_counters(engine) -> dict:
    if engine is None:
        return {}
    stats = engine.stats
    return {
        name: getattr(stats, name)
        for name in (
            "evaluations", "cache_hits", "cache_misses", "batches",
            "errors", "batched_evaluations", "dedup_skipped",
        )
    }


def record_flow(flow: str, mode: str, monkeypatch, tmp_path) -> dict:
    """Run ``flow`` in ``mode``; everything it left behind, noise dropped."""
    executors._PARTIAL_CACHE.clear()
    run, engine, arm_interrupt = FLOWS[flow](monkeypatch, tmp_path)
    interrupt = mode.endswith("interrupt")
    seen = arm_interrupt() if interrupt else None
    telemetry = mode.startswith("on")
    outcome: object = None
    emitter = ledger = campaign = None
    try:
        if telemetry:
            emitter = ProgressEmitter(clock=FakeClock())
            events: list = []
            emitter.subscribe(events.append)
            ledger = ListLedger()
            campaign = CampaignRecorder("pin", clock=FakeClock())
            with use_emitter(emitter), use_ledger(ledger), \
                    use_campaign(campaign):
                try:
                    outcome = run()
                except KeyboardInterrupt:
                    outcome = "KeyboardInterrupt"
                # What the CLI epilogue does: finish and flush the campaign.
                campaign.finish(partial=interrupt)
                campaign.flush_to(ledger, partial=interrupt)
        else:
            try:
                outcome = run()
            except KeyboardInterrupt:
                outcome = "KeyboardInterrupt"
    finally:
        monkeypatch.undo()
    return {
        "outcome": outcome,
        "calls": None if seen is None else seen["calls"],
        "engine": _engine_counters(engine),
        "events": [] if emitter is None else [_event(e) for e in events],
        "open_runs": 0 if emitter is None else len(emitter._run_stack),
        "rows": [] if ledger is None else [_row(r) for r in ledger.rows],
    }


def digest(recording: dict) -> str:
    text = json.dumps(recording, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()


#: (flow, mode) -> sha256 of the recording, recorded before the run
#: lifecycle moved into the run handles.
PINNED = {
    ("arch_search", "on"): "0ed5445b29d35bc7309a3a7db200b5a24b86ad0dc06b634e7789cbaa325a27cb",
    ("arch_search", "on-interrupt"): "8a9cc0a463f74d4977c6d0d18db138b1b71b9f77aeff073148626f12548d823d",
    ("arch_search", "off-interrupt"): "2420ddf943f14478732b429d2111d7dd27896fb0fe70f59289ea322a2ef6c482",
    ("best_mapping", "on"): "9883b1b7e1c549aca4bd5c0d568e0e1cbb556fe1eaaa097518d9bcf0f6a79f24",
    ("best_mapping", "on-interrupt"): "71ef1ab2d9390b1fb675a42c1a765235d45390449f90934a6ebc795fbc0420dd",
    ("best_mapping", "off-interrupt"): "01a1d426259a5ce57fe138ddd5af75efd1369ed0f218d3cd65dd13ac33651894",
    ("local_search", "on"): "01331411569769ce964427c0c8c7ba47393ed520ba8cd9df7b33326a3f2d6ee2",
    ("local_search", "on-interrupt"): "10ddb0e1c4bb2e94c6f2aaa0cbd0865746368b5a14ba2d1acf3023158d3b4e90",
    ("local_search", "off-interrupt"): "ce5eaf86fc483a22c09ac1df208a81e2e905a048ebb6ef9c445a3aca24b2cb3a",
    ("network", "on"): "013a87b882aa25d24af273d02b8dedcb0b996eedbe09a41dc0141451211ecc7f",
    ("network", "on-interrupt"): "8735f5ce5d5e8b9a48f3a952bdaf040bb5b9243dda47af16de86a179d4f69928",
    ("network", "off-interrupt"): "bdbf143733bf9781e03f26bc12de56105b163460d2e8e9476b64b26cb0798ce4",
    ("search", "on"): "788632ba843c72ca4e8392af939de49aa3eb9320f1e3fee89bde800450f39c5c",
    ("search", "on-interrupt"): "59ee08629ed009759471f498a51d9b25687959da8af744b637644d6bd68c0dd2",
    ("search", "off-interrupt"): "afdceec7fd5001b77cbaf25db155e71bd877f00975438934f42ae88de744fc11",
    ("verify", "on"): "cfa61608b03ac1d2b7dcb4db3d33f39b15b4ab2c533a3d83cad9666be0e28870",
    ("verify", "on-interrupt"): "dd4c49786da3926aecb5f63f8a9731a75177ea604b61c3e7cd91118918da3e03",
    ("verify", "off-interrupt"): "0b7431c495562d49abbf8fd09bcf04c2ff4394c85c367d17894d71daf9415ead",
}


@pytest.mark.parametrize("mode", ["on", "on-interrupt", "off-interrupt"])
@pytest.mark.parametrize("flow", sorted(FLOWS))
def test_flow_telemetry_is_pinned(flow, mode, monkeypatch, tmp_path):
    recording = record_flow(flow, mode, monkeypatch, tmp_path)
    assert recording["open_runs"] == 0
    if mode.endswith("interrupt"):
        assert recording["outcome"] == "KeyboardInterrupt"
    else:
        assert recording["outcome"] != "KeyboardInterrupt"
    assert digest(recording) == PINNED[(flow, mode)]
