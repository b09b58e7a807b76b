"""The repro.api facade: layer-first verbs and engine= coercion."""

import warnings

import pytest

import repro
from repro import api
from repro.core.report import LatencyReport
from repro.dse.mapper import MapperConfig
from repro.engine import EvaluationEngine, Evaluator
from repro.hardware.presets import case_study_accelerator
from repro.workload.generator import dense_layer

FAST = MapperConfig(max_enumerated=40, samples=30)


# --------------------------------------------------------------------- #
# Modern layer-first shapes
# --------------------------------------------------------------------- #

def test_evaluate_defaults_to_case_study():
    report = api.evaluate("16,32,64", config=FAST)
    assert isinstance(report, LatencyReport)
    assert report.total_cycles > 0


def test_evaluate_layer_spellings_agree():
    a = api.evaluate((16, 32, 64), config=FAST)
    b = api.evaluate(dense_layer(16, 32, 64), config=FAST)
    assert a.total_cycles == b.total_cycles


def test_engine_accepts_preset_and_accelerator():
    preset = case_study_accelerator()
    a = api.evaluate("16,32,64", engine=preset, config=FAST)
    b = api.evaluate("16,32,64", engine="case-study", config=FAST)
    assert a.total_cycles == b.total_cycles
    # A bare Accelerator means purely temporal mapping — still evaluates.
    c = api.evaluate("16,32,64", engine=preset.accelerator, config=FAST)
    assert c.total_cycles > 0


def test_evaluate_with_explicit_mapping():
    results = api.search("16,32,64", config=FAST, top=1)
    mapping = results[0].mapping
    report = api.evaluate("16,32,64", mapping)
    assert report.total_cycles == results[0].report.total_cycles


def test_evaluate_shares_a_caller_engine():
    engine = EvaluationEngine.from_preset(case_study_accelerator())
    assert isinstance(engine, Evaluator)
    api.evaluate("16,32,64", config=FAST, engine=engine)
    assert engine.stats.evaluations > 0
    before = engine.stats.evaluations
    api.evaluate("16,32,64", config=FAST, engine=engine)
    assert engine.stats.evaluations == before  # whole search memoized


def test_caller_engine_is_not_closed():
    engine = EvaluationEngine.from_preset(case_study_accelerator())
    api.evaluate("16,32,64", config=FAST, engine=engine)
    # Still usable: the verbs only close engines they built themselves.
    api.search("16,32,64", config=FAST, engine=engine, top=1)


def test_search_returns_ranked_results():
    results = api.search("16,32,64", config=FAST, top=3)
    assert 1 <= len(results) <= 3
    objectives = [r.objective for r in results]
    assert objectives == sorted(objectives)


def test_evaluate_network_sums_layers():
    result = api.evaluate_network(["16,32,64", (16, 32, 64)], config=FAST)
    assert len(result.layers) == 2
    assert result.total_cycles == sum(r.cycles for r in result.layers)


def test_url_engine_requires_a_live_daemon():
    with pytest.raises(OSError):
        api.evaluate("16,32,64", engine="serve://127.0.0.1:1", config=FAST)


def test_bad_inputs_raise():
    with pytest.raises(ValueError, match="unknown engine"):
        api.evaluate("16,32,64", engine="warp-drive")
    with pytest.raises(TypeError, match="engine must be"):
        api.evaluate("16,32,64", engine=42)
    with pytest.raises(ValueError, match="B,K,C"):
        api.evaluate("16,32", config=FAST)
    with pytest.raises(ValueError, match="B,K,C"):
        api.evaluate((16, 32), config=FAST)
    with pytest.raises(ValueError, match="B,K,C"):
        api.evaluate((64.7, 128, 1200), config=FAST)
    with pytest.raises(ValueError, match="B,K,C"):
        api.evaluate("1,2,x", config=FAST)
    with pytest.raises(TypeError, match="positional"):
        api.evaluate("16,32,64", None, "extra")


# --------------------------------------------------------------------- #
# Accelerator-first call shapes are rejected
# --------------------------------------------------------------------- #

def test_accelerator_first_shapes_raise_type_error():
    with pytest.raises(TypeError):
        api.evaluate("case-study", "64,128,1200")
    with pytest.raises(TypeError):
        api.search("case-study", "64,128,1200")


# --------------------------------------------------------------------- #
# Re-exports and engine constructors
# --------------------------------------------------------------------- #

def test_top_level_reexports():
    assert repro.evaluate is api.evaluate
    assert repro.search is api.search
    assert repro.evaluate_network is api.evaluate_network
    assert repro.api is api
    for name in (
        "api", "evaluate", "search", "evaluate_network",
        "Evaluator", "RemoteEngine", "connect",
    ):
        assert name in repro.__all__


def test_from_preset_builds_engines():
    preset = case_study_accelerator()
    engine = EvaluationEngine.from_preset(preset)
    assert engine.accelerator is preset.accelerator
    assert engine.spatial_unrolling == preset.spatial_unrolling
    bare = EvaluationEngine.from_preset(preset.accelerator)
    assert bare.accelerator is preset.accelerator


def test_engine_reexport_does_not_warn():
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        from repro.engine import EngineStats  # noqa: F401
        from repro.observability import EngineStats as obs  # noqa: F401
