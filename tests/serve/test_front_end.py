"""The in-process engine and the served client answer the same calls alike.

Both evaluators share one front end (cache keys, probe, layer-name
stamp, hit/miss/evaluation accounting, the energy flow), so the same
sequence of calls must give equal reports and energies, equal
``cache_hit`` flags and equal :class:`EngineStats` counters, whichever
of them runs it.
"""

import dataclasses

import pytest

from repro import connect
from repro.dse.mapper import MapperConfig, TemporalMapper
from repro.engine import EvaluationEngine, Evaluator
from repro.engine.evaluation import _FrontEnd
from repro.hardware.presets import case_study_accelerator
from repro.workload.generator import dense_layer
from tests.conftest import infeasible_mapping

PRESET = case_study_accelerator()
LAYER = dense_layer(16, 32, 64)
RENAMED = dense_layer(16, 32, 64, name="renamed")
MAPPINGS = list(TemporalMapper(
    PRESET.accelerator, PRESET.spatial_unrolling,
    MapperConfig(max_enumerated=6, samples=0),
).mappings(LAYER))[:6]
COUNTERS = (
    "evaluations", "energy_evaluations", "cache_hits", "cache_misses",
    "errors", "batches",
)
GATED = (
    "layer_name", "accelerator_name", "cc_ideal", "cc_spatial", "ss_overall",
    "preload", "offload", "scenario", "total_cycles",
)


def _report(report):
    stalls = tuple((s.operand, s.level, s.memory, s.ss) for s in report.served_stalls)
    return tuple(getattr(report, name) for name in GATED) + (stalls,)


def _energy(energy):
    if energy is None:
        return None
    # Not total_pj: the wire sorts memory_pj, and the sum follows its order.
    return (energy.layer_name, energy.mac_pj, dict(energy.memory_pj), energy.counts)


def _outcomes(results):
    return [
        None if r is None else (_report(r.report), _energy(r.energy), r.cache_hit)
        for r in results
    ]


def _run(evaluator):
    """The call sequence; what each call answered, then the counters."""
    small, infeasible = infeasible_mapping()
    renamed = [dataclasses.replace(m, layer=RENAMED) for m in MAPPINGS]
    answers = [
        _outcomes(evaluator.evaluate_many(MAPPINGS)),
        _outcomes(evaluator.evaluate_many(MAPPINGS)),
        _outcomes(evaluator.evaluate_many(MAPPINGS, with_energy=True)),
        _outcomes(evaluator.evaluate_many(MAPPINGS, with_energy=True)),
        _outcomes(evaluator.derive(accelerator=small.accelerator).evaluate_many(
            [infeasible, MAPPINGS[0]], validate=True,
        )),
        _outcomes(evaluator.evaluate_many(renamed, with_energy=True)),
        _report(evaluator.evaluate(renamed[1])),
        _energy(evaluator.evaluate_energy(renamed[2])),
    ]
    return answers, {name: getattr(evaluator.stats, name) for name in COUNTERS}


@pytest.fixture(params=["engine", "client"])
def evaluator(request):
    if request.param == "engine":
        yield EvaluationEngine.from_preset(PRESET)
        return
    server = request.getfixturevalue("server")
    with connect(server.url) as client:
        yield client


def test_engine_and_client_answer_and_count_alike(evaluator):
    answers, counters = _run(evaluator)
    expected_answers, expected_counters = _run(EvaluationEngine.from_preset(PRESET))
    assert answers == expected_answers
    assert counters == expected_counters


def test_a_repeated_energy_burst_is_answered_from_the_cache(evaluator):
    evaluator.evaluate_many(MAPPINGS, with_energy=True)
    again = evaluator.evaluate_many(MAPPINGS, with_energy=True)
    assert [r.cache_hit for r in again] == [True] * len(MAPPINGS)
    assert [r.energy.layer_name for r in again] == ["dense(16,32,64)"] * len(MAPPINGS)
    assert evaluator.stats.energy_evaluations == len(MAPPINGS)
    assert evaluator.stats.cache_hits == len(MAPPINGS)


def test_a_duck_typed_evaluator_still_satisfies_the_protocol():
    """The shared front end is an implementation, not the contract: a
    test double that carries the members without it is an Evaluator."""

    class Double:
        accelerator = options = cache = stats = None
        spatial_unrolling = {}
        accelerator_fingerprint = options_fingerprint = ""

        def evaluate(self, mapping, validate=True): ...
        def evaluate_many(self, mappings, validate=False, with_energy=False): ...
        def best_of(self, mappings, incumbent=float("inf")): ...
        def evaluate_energy(self, mapping): ...
        def derive(self, accelerator=None, options=None): ...
        def close(self): ...

    assert isinstance(Double(), Evaluator)
    assert not isinstance(Double(), _FrontEnd)
