"""Hill-climbing mapper refinement."""

import pytest

from repro.dse.local_search import LocalSearchConfig, LocalSearchMapper
from repro.dse.mapper import MapperConfig, TemporalMapper
from repro.mapping.mapping import MappingError
from repro.workload.dims import LoopDim
from repro.workload.generator import dense_layer

from tests.conftest import toy_accelerator


@pytest.fixture(scope="module")
def base_mapper(case_preset=None):
    from repro.hardware.presets import case_study_accelerator

    preset = case_study_accelerator()
    return TemporalMapper(
        preset.accelerator, preset.spatial_unrolling,
        MapperConfig(max_enumerated=0, samples=40, seed=1),
    )


def test_climb_never_worsens(base_mapper):
    layer = dense_layer(32, 64, 240)
    search = LocalSearchMapper(base_mapper, LocalSearchConfig(restarts=2, max_steps=60))
    atoms = tuple(base_mapper.loop_multiset(layer))
    outcome = search.climb(layer, atoms)
    assert outcome is not None
    assert outcome.best.objective <= outcome.start_objective + 1e-9
    assert outcome.evaluations >= 1


def test_search_beats_or_matches_sampling(base_mapper):
    layer = dense_layer(32, 64, 240)
    sampled_best = min(
        base_mapper.evaluate(m).objective for m in base_mapper.mappings(layer)
    )
    outcome = LocalSearchMapper(
        base_mapper, LocalSearchConfig(restarts=3, max_steps=120)
    ).search(layer)
    assert outcome.best.objective <= sampled_best + 1e-9
    assert outcome.improvement >= -1e-9


def test_unmappable_layer_raises():
    acc = toy_accelerator(array=1)
    mapper = TemporalMapper(acc, {LoopDim.K: 64}, MapperConfig(max_enumerated=8))
    search = LocalSearchMapper(mapper)
    with pytest.raises(MappingError):
        search.search(dense_layer(2, 64, 2))


def test_climb_on_invalid_start_returns_none(base_mapper):
    layer = dense_layer(32, 64, 240)
    # An order for a DIFFERENT layer is no valid mapping (wrong factor product
    # is caught at Mapping construction inside evaluate).
    wrong = tuple(base_mapper.loop_multiset(dense_layer(16, 16, 16)))
    search = LocalSearchMapper(base_mapper, LocalSearchConfig(max_steps=10))
    assert search.climb(layer, wrong) is None


def test_budget_respected(base_mapper):
    layer = dense_layer(32, 64, 240)
    search = LocalSearchMapper(base_mapper, LocalSearchConfig(restarts=1, max_steps=5))
    atoms = tuple(base_mapper.loop_multiset(layer))
    outcome = search.climb(layer, atoms)
    assert outcome.evaluations <= 5 + 2
