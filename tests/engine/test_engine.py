"""EvaluationEngine: cache behavior, parity with the kernel, batching."""

import pytest

from repro.core.model import LatencyModel
from repro.core.step1 import ModelOptions
from repro.dse.mapper import MapperConfig, TemporalMapper
from repro.energy.energy_model import EnergyModel
from repro.engine import EvaluationCache, EvaluationEngine, evaluation
from repro.engine.cache import PartialResultCache
from repro.hardware.presets import case_study_accelerator
from repro.workload.generator import dense_layer
from tests.conftest import infeasible_mapping


@pytest.fixture
def preset():
    return case_study_accelerator()


@pytest.fixture
def layer():
    return dense_layer(16, 32, 64)


@pytest.fixture
def mappings(preset, layer):
    mapper = TemporalMapper(
        preset.accelerator,
        preset.spatial_unrolling,
        MapperConfig(max_enumerated=100, samples=60),
    )
    out = list(mapper.mappings(layer))
    assert len(out) >= 5
    return out


# --------------------------------------------------------------------- #
# Parity with the pure kernel
# --------------------------------------------------------------------- #

def test_evaluate_matches_latency_model(preset, mappings):
    engine = EvaluationEngine(preset.accelerator)
    model = LatencyModel(preset.accelerator)
    for mapping in mappings[:5]:
        assert (
            engine.evaluate(mapping).total_cycles
            == model.evaluate(mapping).total_cycles
        )


def test_evaluate_energy_matches_energy_model(preset, mappings):
    engine = EvaluationEngine(preset.accelerator)
    model = EnergyModel(preset.accelerator)
    mapping = mappings[0]
    assert engine.evaluate_energy(mapping).total_pj == model.evaluate(mapping).total_pj


def test_options_are_forwarded(preset, mappings):
    options = ModelOptions(paper_period_count=True)
    engine = EvaluationEngine(preset.accelerator, options)
    model = LatencyModel(preset.accelerator, options)
    mapping = mappings[0]
    assert engine.evaluate(mapping).total_cycles == model.evaluate(mapping).total_cycles


# --------------------------------------------------------------------- #
# Caching
# --------------------------------------------------------------------- #

def test_repeat_evaluation_hits_cache(preset, mappings):
    engine = EvaluationEngine(preset.accelerator)
    mapping = mappings[0]
    first = engine.evaluate(mapping)
    second = engine.evaluate(mapping)
    assert first is second  # the very same report object
    assert engine.stats.cache_hits == 1
    assert engine.stats.evaluations == 1


@pytest.mark.parametrize("knob", [{"use_cache": False}, {"cache_size": 1}])
def test_removed_cache_knobs_are_refused(preset, knob):
    """Caching is always on: a cold run takes a fresh engine or
    ``engine.cache.clear()``, never a constructor switch."""
    with pytest.raises(TypeError):
        EvaluationEngine(preset.accelerator, **knob)


def test_different_options_do_not_share_entries(preset, mappings):
    cache = EvaluationCache()
    a = EvaluationEngine(preset.accelerator, ModelOptions(), cache=cache)
    b = EvaluationEngine(
        preset.accelerator, ModelOptions(paper_period_count=True), cache=cache
    )
    mapping = mappings[0]
    a.evaluate(mapping)
    assert b.stats.cache_hits == 0
    b.evaluate(mapping)
    assert b.stats.cache_hits == 0  # miss: distinct options fingerprint


@pytest.mark.parametrize("cache_type", [EvaluationCache, PartialResultCache])
def test_lru_eviction_bounds_size(cache_type):
    cache = cache_type(maxsize=2)
    cache.put("a", 1)
    cache.put("b", 2)
    cache.put("c", 3)
    assert len(cache) == 2
    assert "a" not in cache and "c" in cache


def test_lru_get_refreshes_recency():
    cache = EvaluationCache(maxsize=2)
    cache.put("a", 1)
    cache.put("b", 2)
    cache.get("a")
    cache.put("c", 3)
    assert "a" in cache and "b" not in cache


# --------------------------------------------------------------------- #
# Batch evaluation
# --------------------------------------------------------------------- #

def test_evaluate_many_preserves_order_and_values(preset, mappings, monkeypatch):
    monkeypatch.setattr(evaluation, "CHUNK_SIZE", 2)
    engine = EvaluationEngine(preset.accelerator)
    model = LatencyModel(preset.accelerator)
    outcomes = engine.evaluate_many(mappings)
    assert len(outcomes) == len(mappings)
    for mapping, outcome in zip(mappings, outcomes):
        assert outcome is not None
        assert outcome.mapping is mapping
        assert outcome.report.total_cycles == model.evaluate(mapping).total_cycles


def test_evaluate_many_runs_chunks_through_the_module_hooks(
    preset, mappings, monkeypatch
):
    # Wrappers installed on the executors module by name (as a profiler
    # would install them) must see every chunk of a cache-miss batch.
    from repro.engine import executors

    calls = {"evaluate_chunk": 0, "_run_batched": 0}

    def counting(name):
        original = getattr(executors, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(executors, name, wrapper)

    counting("evaluate_chunk")
    counting("_run_batched")
    monkeypatch.setattr(evaluation, "CHUNK_SIZE", 2)
    engine = EvaluationEngine(preset.accelerator)
    outcomes = engine.evaluate_many(mappings)
    chunks = -(-len(mappings) // 2)
    assert chunks > 1
    assert calls == {"evaluate_chunk": chunks, "_run_batched": chunks}
    assert all(outcome is not None for outcome in outcomes)


@pytest.mark.parametrize("big", [False, True])
def test_mapper_block_is_one_chunk_by_default(preset, layer, monkeypatch, big):
    # The engine's default chunk equals the mapper's default block, so
    # each evaluate_many of a search (at most one block of misses) pays
    # the batch core's fixed cost once.
    from repro.engine import executors

    calls = {"evaluate_many": 0, "evaluate_chunk": 0, "lanes": 0}
    original_chunk = executors.evaluate_chunk
    original_many = EvaluationEngine.evaluate_many

    def chunk(accelerator, options, mappings, *args):
        calls["evaluate_chunk"] += 1
        calls["lanes"] += len(mappings)
        return original_chunk(accelerator, options, mappings, *args)

    def many(self, *args, **kwargs):
        calls["evaluate_many"] += 1
        return original_many(self, *args, **kwargs)

    monkeypatch.setattr(executors, "evaluate_chunk", chunk)
    monkeypatch.setattr(EvaluationEngine, "evaluate_many", many)
    engine = EvaluationEngine.from_preset(preset)
    config = MapperConfig()
    if big:  # several blocks: sample 700 orders of a larger layer
        layer = dense_layer(64, 128, 1200)
        config = MapperConfig(max_enumerated=64, samples=700)
    mapper = TemporalMapper(
        preset.accelerator, preset.spatial_unrolling, config, engine
    )
    assert mapper.search(layer)
    assert evaluation.CHUNK_SIZE == config.batch_size
    assert calls["lanes"] == engine.stats.evaluations > 0
    assert calls["evaluate_chunk"] == calls["evaluate_many"]
    assert (calls["evaluate_many"] > 1) == big


def test_evaluate_many_second_pass_is_all_hits(preset, mappings):
    engine = EvaluationEngine(preset.accelerator)
    engine.evaluate_many(mappings)
    misses_before = engine.stats.cache_misses
    engine.evaluate_many(mappings)
    assert engine.stats.cache_misses == misses_before
    assert engine.stats.cache_hits >= len(mappings)


def test_validate_refuses_an_infeasible_mapping_on_a_cache_hit():
    small, mapping = infeasible_mapping()
    engine = EvaluationEngine(small.accelerator)
    [unchecked] = engine.evaluate_many([mapping], validate=False)
    assert unchecked is not None
    errors = engine.stats.errors
    assert engine.evaluate_many([mapping], validate=True) == [None]
    assert engine.stats.errors == errors + 1


def test_evaluate_many_with_energy(preset, mappings):
    engine = EvaluationEngine(preset.accelerator)
    outcomes = engine.evaluate_many(mappings[:4], with_energy=True)
    assert all(o is not None and o.energy is not None for o in outcomes)


# --------------------------------------------------------------------- #
# Derivation and stats
# --------------------------------------------------------------------- #

def test_derive_shares_cache_and_stats(preset, mappings):
    engine = EvaluationEngine(preset.accelerator)
    other = engine.derive(options=ModelOptions(paper_period_count=True))
    assert other.cache is engine.cache
    assert other.stats is engine.stats
    other.evaluate(mappings[0])
    assert engine.stats.evaluations == 1


def test_stats_snapshot_and_summary(preset, mappings):
    engine = EvaluationEngine(preset.accelerator)
    engine.evaluate(mappings[0])
    engine.evaluate(mappings[0])
    snap = engine.stats.snapshot()
    assert snap["evaluations"] == 1
    assert snap["cache_hits"] == 1
    assert 0.0 < engine.stats.hit_rate < 1.0
    assert "evaluations" in engine.stats.summary()
    engine.stats.reset()
    assert engine.stats.requests == 0


def test_phase_timers_accumulate(preset, mappings):
    engine = EvaluationEngine(preset.accelerator)
    engine.evaluate(mappings[0])
    assert engine.stats.phase_seconds.get("evaluate", 0.0) > 0.0


# --------------------------------------------------------------------- #
# Mapper integration
# --------------------------------------------------------------------- #

def test_mapper_search_results_unchanged_by_batching(preset, layer):
    config = MapperConfig(max_enumerated=100, samples=60, batch_size=7)
    small = TemporalMapper(preset.accelerator, preset.spatial_unrolling, config)
    big = TemporalMapper(
        preset.accelerator,
        preset.spatial_unrolling,
        MapperConfig(max_enumerated=100, samples=60, batch_size=1000),
    )
    a = [(r.objective, r.mapping.fingerprint()) for r in small.search(layer)]
    b = [(r.objective, r.mapping.fingerprint()) for r in big.search(layer)]
    assert a == b


def test_mapper_reuses_shared_engine(preset, layer):
    engine = EvaluationEngine(preset.accelerator)
    mapper = TemporalMapper(
        preset.accelerator, preset.spatial_unrolling, engine=engine
    )
    assert mapper.engine is engine
    mapper.best_mapping(layer)
    assert engine.stats.evaluations > 0


def test_mapper_keeps_the_options_of_the_engine_it_is_given(preset, layer):
    """``MapperConfig.model_options`` only seeds an engine the mapper
    builds itself: a given engine keeps its options, also when the
    mapper derives it onto another machine."""
    paper = ModelOptions.paper_faithful()
    engine = EvaluationEngine.from_preset(preset, paper)
    mapper = TemporalMapper(
        preset.accelerator, preset.spatial_unrolling, MapperConfig(), engine=engine
    )
    assert mapper.engine is engine
    other = case_study_accelerator(gb_read_bw=64.0)
    derived = TemporalMapper(
        other.accelerator, other.spatial_unrolling, MapperConfig(), engine=engine
    ).engine
    assert derived.accelerator is other.accelerator
    assert derived.options == paper and derived.stats is engine.stats
    best = mapper.best_mapping(layer)
    expected = EvaluationEngine.from_preset(preset, paper).evaluate(best.mapping)
    assert best.report.total_cycles == expected.total_cycles
    assert best.report.ss_overall == expected.ss_overall
    built = TemporalMapper(
        preset.accelerator, preset.spatial_unrolling, MapperConfig(model_options=paper)
    )
    assert built.engine.options == paper


def test_evaluations_metric_counts_the_lanes_a_kernel_ran():
    """A search's bound-pruned lanes run no kernel and count in no
    evaluation: the engine's counts reach a registry only as the
    ``EngineStats`` fields ``ingest`` exports, never as a counter."""
    from repro.observability.metrics import MetricsRegistry
    from repro.observability.telemetry import use_telemetry

    preset = case_study_accelerator()
    engine = EvaluationEngine.from_preset(preset)
    mapper = TemporalMapper(
        preset.accelerator, preset.spatial_unrolling,
        MapperConfig(max_enumerated=500, samples=400), engine=engine,
    )
    registry = MetricsRegistry()
    with use_telemetry(metrics=registry):
        mapper.best_mapping(dense_layer(64, 128, 1200))
    assert engine.stats.bound_pruned > 0
    assert not [name for name in registry.snapshot()["counters"]
                if name.startswith("repro_engine_")]
    registry.ingest("repro_engine", engine.stats.snapshot())
    gauges = registry.snapshot()["gauges"]
    assert gauges["repro_engine_evaluations"] == engine.stats.evaluations
    assert gauges["repro_engine_bound_pruned"] == engine.stats.bound_pruned
