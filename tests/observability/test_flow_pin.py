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

import repro.engine.evaluation as evaluation
import repro.engine.executors as executors
import repro.verify.runner as runner
from repro.analysis.network import NetworkEvaluator
from repro.dse.arch_search import ArchSearch, ArchSearchConfig
from repro.dse.local_search import LocalSearchConfig, LocalSearchMapper
from repro.dse.mapper import MapperConfig, TemporalMapper
from repro.engine import EvaluationEngine
from repro.hardware.pool import MemoryPool
from repro.hardware.presets import KB, case_study_accelerator
from repro.observability.campaign import CampaignRecorder
from repro.observability.progress import (
    ProgressEmitter,
    event_to_dict,
)
from repro.observability.telemetry import use_telemetry
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


def _mapper(monkeypatch):
    preset = case_study_accelerator()
    monkeypatch.setattr(evaluation, "CHUNK_SIZE", 8)
    engine = EvaluationEngine(preset.accelerator)
    return TemporalMapper(
        preset.accelerator, preset.spatial_unrolling,
        MapperConfig(max_enumerated=30, samples=20, batch_size=16),
        engine=engine,
    )


def _flow_search(monkeypatch, tmp_path):
    mapper = _mapper(monkeypatch)
    layer = dense_layer(16, 32, 60, name="pin")
    return (
        lambda: [r.objective for r in mapper.search(layer)],
        mapper.engine,
        lambda: _interrupt_after(monkeypatch, executors, "evaluate_chunk", 1),
    )


def _flow_best_mapping(monkeypatch, tmp_path):
    mapper = _mapper(monkeypatch)
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
    monkeypatch.setattr(evaluation, "CHUNK_SIZE", 8)
    evaluator = NetworkEvaluator(
        preset,
        mapper_config=MapperConfig(max_enumerated=30, samples=20, batch_size=16),
        engine=EvaluationEngine(preset.accelerator),
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
    monkeypatch.setattr(evaluation, "CHUNK_SIZE", 8)
    mapper = TemporalMapper(
        preset.accelerator, preset.spatial_unrolling,
        MapperConfig(max_enumerated=0, samples=12, seed=1),
        engine=EvaluationEngine(preset.accelerator),
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
            with use_telemetry(progress=emitter, ledger=ledger,
                               campaign=campaign):
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
#: lifecycle moved into the run handles. ``best_mapping``, ``arch_search``
#: and ``network`` were re-pinned when latency searches became bound-first:
#: only evaluation counts, ledger rows, funnel tags and the incumbent
#: sequence moved (``tests/dse/test_best_of.py`` checks that against the
#: same flows scoring every candidate, whose digests are the old pins).
PINNED = {
    ("arch_search", "on"): "94e813bc01ffb6625eaf762c00265399803dfa8f1e5bb211935e4fe9da3ffa01",
    ("arch_search", "on-interrupt"): "fc12a8d6167d4806d455340c9963ef266f68d23fe6c935b201743e4214b82630",
    ("arch_search", "off-interrupt"): "2420ddf943f14478732b429d2111d7dd27896fb0fe70f59289ea322a2ef6c482",
    ("best_mapping", "on"): "5e2ac3c788c1cf7cd8668782d2c8f2b91e70bd6621a2ab1e3a0bc2c437312e3c",
    ("best_mapping", "on-interrupt"): "afc84066fca38117aeb55e5d768fc70adec8671a9ffc5652135fd6482238e3a5",
    ("best_mapping", "off-interrupt"): "49fbd7f17c2702ca5323324741469d4d450efcd881ff85844f42af2d4260a478",
    ("local_search", "on"): "01331411569769ce964427c0c8c7ba47393ed520ba8cd9df7b33326a3f2d6ee2",
    ("local_search", "on-interrupt"): "10ddb0e1c4bb2e94c6f2aaa0cbd0865746368b5a14ba2d1acf3023158d3b4e90",
    ("local_search", "off-interrupt"): "ce5eaf86fc483a22c09ac1df208a81e2e905a048ebb6ef9c445a3aca24b2cb3a",
    ("network", "on"): "3184a419fbe71cf2273f8d7bc7602c8a9dc5850b84b2633c0c470e3fd894a9f5",
    ("network", "on-interrupt"): "cd320cd9174de504d954f1d54235a1228ad48c28cc3aa42d9908a9beca8a4738",
    ("network", "off-interrupt"): "b459df4e83828bae6419a1a5e898e9acddd2c8aff7201117dc2ba644aad6ba56",
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
