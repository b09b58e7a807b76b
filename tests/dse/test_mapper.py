"""Temporal mapper: loop space, allocation, search."""

import pytest

from repro.dse.mapper import MapperConfig, TemporalMapper
from repro.mapping.mapping import MappingError
from repro.workload.dims import LoopDim
from repro.workload.generator import dense_layer
from repro.workload.operand import Operand

from tests.conftest import toy_accelerator


@pytest.fixture
def case_mapper(case_preset):
    return TemporalMapper(
        case_preset.accelerator,
        case_preset.spatial_unrolling,
        MapperConfig(max_enumerated=100, samples=60, seed=0),
    )


def test_loop_multiset_prime_split(case_mapper, case1_layer):
    atoms = case_mapper.loop_multiset(case1_layer)
    # t_B=8 -> 2,2,2 ; t_K=8 -> 2,2,2 ; t_C=600 -> 2,2,2,3,5,5.
    assert sorted(a for d, a in atoms if d is LoopDim.B) == [2, 2, 2]
    assert sorted(a for d, a in atoms if d is LoopDim.C) == [2, 2, 2, 3, 5, 5]
    assert len(atoms) == 12


def test_space_size_multinomial(case_mapper, case1_layer):
    # 12!/(3! * 3! * (3! * 1! * 2!)) = 1,108,800 distinct orders.
    assert case_mapper.space_size(case1_layer) == 1_108_800


def test_small_space_enumerated_exhaustively():
    acc = toy_accelerator(reg_bits=64, o_reg_bits=24 * 16)
    mapper = TemporalMapper(acc, {}, MapperConfig(max_enumerated=1000))
    layer = dense_layer(2, 2, 4)
    orders = list(mapper.orders(layer))
    assert len(orders) == mapper.space_size(layer) == 12


def test_sampled_space_respects_budget(case_mapper, case1_layer):
    orders = list(case_mapper.orders(case1_layer))
    assert len(orders) <= 60 + 256  # samples + seed cap
    assert len(orders) >= 24  # at least the seeds


def test_sampled_orders_deterministic(case_preset):
    big = dense_layer(64, 128, 1200)
    config = MapperConfig(max_enumerated=20, samples=60, seed=3)
    mapper_a = TemporalMapper(case_preset.accelerator, case_preset.spatial_unrolling, config)
    mapper_b = TemporalMapper(case_preset.accelerator, case_preset.spatial_unrolling, config)
    assert list(mapper_a.orders(big)) == list(mapper_b.orders(big))


def test_seed_orders_contain_stationarity_corners(case_mapper, case1_layer):
    atoms = case_mapper.loop_multiset(case1_layer)
    seeds = list(case_mapper._seed_orders(case1_layer, atoms))
    # Block orders: all C first (output stationary) must be present.
    assert any(
        [d for d, __ in s[:6]] == [LoopDim.C] * 6 for s in seeds
    )
    assert any(
        [d for d, __ in s[:3]] == [LoopDim.B] * 3 for s in seeds
    )


def test_allocation_greedy_fills_lowest_level(case_mapper, case1_layer):
    atoms = tuple(case_mapper.loop_multiset(case1_layer))
    # All-C-first order: the O registers absorb the whole C block.
    order = tuple(sorted(atoms, key=lambda a: (a[0] is not LoopDim.C,)))
    tm = case_mapper.allocate(case1_layer, order)
    assert tm is not None
    o_level0 = tm.loops_at_level(Operand.O, 0)
    assert all(l.dim is LoopDim.C for l in o_level0)
    assert len(o_level0) == 6


def test_allocation_respects_register_capacity(case_mapper, case1_layer):
    # K-first order: W/I/O registers cannot hold K tiles -> level 0 empty
    # for O (K is relevant for O and the accumulators are full).
    atoms = tuple(case_mapper.loop_multiset(case1_layer))
    order = tuple(sorted(atoms, key=lambda a: (a[0] is not LoopDim.K,)))
    tm = case_mapper.allocate(case1_layer, order)
    assert tm is not None
    assert tm.loops_at_level(Operand.O, 0) == ()
    assert tm.loops_at_level(Operand.W, 0) == ()


def test_mappings_are_valid_and_deduplicated(case_mapper, case1_layer):
    seen = set()
    count = 0
    for mapping in case_mapper.mappings(case1_layer):
        count += 1
        key = (mapping.temporal.loops, tuple(mapping.temporal.cuts[op] for op in Operand))
        assert key not in seen
        seen.add(key)
        assert mapping.spatial_cycles == 38400
        if count > 40:
            break
    assert count > 10


def test_best_mapping_beats_median(case_mapper, case1_layer):
    results = case_mapper.search(case1_layer)
    assert results == sorted(results, key=lambda r: r.objective)
    best = case_mapper.best_mapping(case1_layer)
    assert best.objective <= results[0].objective + 1e-9


def test_objective_energy_and_edp(case_preset):
    layer = dense_layer(16, 32, 60)
    for objective in ("energy", "edp"):
        mapper = TemporalMapper(
            case_preset.accelerator,
            case_preset.spatial_unrolling,
            MapperConfig(objective=objective, max_enumerated=40, samples=30),
        )
        best = mapper.best_mapping(layer)
        assert best.energy is not None
        assert best.objective > 0


def test_best_mapping_verified(case_preset):
    layer = dense_layer(32, 64, 240)
    mapper = TemporalMapper(
        case_preset.accelerator, case_preset.spatial_unrolling,
        MapperConfig(max_enumerated=100, samples=60, keep_top=10),
    )
    result, simulated = mapper.best_mapping_verified(layer, shortlist=3)
    # The verified winner's simulated latency is no worse than simulating
    # the model's own favorite.
    from repro.simulator.engine import CycleSimulator

    model_favorite = mapper.best_mapping(layer)
    favorite_sim = CycleSimulator(
        case_preset.accelerator, model_favorite.mapping
    ).run().total_cycles
    assert simulated <= favorite_sim + 1e-6
    assert result.report.total_cycles > 0


def test_objective_validation():
    with pytest.raises(ValueError):
        MapperConfig(objective="speed")


def test_unmappable_layer_raises():
    # 1-MAC toy machine with a 1-bit... spatial unrolling that can't fit.
    acc = toy_accelerator(array=1)
    mapper = TemporalMapper(acc, {LoopDim.K: 64}, MapperConfig(max_enumerated=10))
    layer = dense_layer(2, 64, 2)
    with pytest.raises(MappingError):
        mapper.best_mapping(layer)


def test_search_result_describe(case_mapper, case1_layer):
    results = case_mapper.search(case1_layer)
    assert "cc" in results[0].describe()
