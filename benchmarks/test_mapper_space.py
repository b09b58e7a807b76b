"""E9 — Section V: the temporal-mapping search space.

The paper's ZigZag mapper produces "30240 valid mappings" for the Case-1
layer on the scaled-down machine. Our mapper enumerates the same kind of
space (multiset permutations of the prime-factorized temporal loops with
capacity-driven allocation); the count depends on the layer's
factorization, so we verify both our Case-1 space and a layer engineered
to yield exactly the paper's 30240 orders.
"""

import itertools

from repro.dse.factorize import count_permutations
from repro.mapping.mapping import Mapping
from repro.workload.generator import dense_layer

from benchmarks.conftest import make_mapper


def test_case1_space_size(case_preset, case1_layer):
    mapper = make_mapper(case_preset)
    size = mapper.space_size(case1_layer)
    print(f"\nCase-1 layer order space: {size} (paper's instance: 30240)")
    assert size == 1_108_800


def test_constructed_layer_with_exactly_30240_orders(case_preset):
    """B=64, K=64, C=4620 on the 16x16 machine: t = (8, 4, 2310);
    atoms = B:2^3, K:2^2, C:{2,3,5,7,11} -> 12!/(3!2!2!) ... engineered to
    9 + ... let us verify the combinatorics directly."""
    # t_B = 8 -> 2,2,2 ; t_K = 4 -> 2,2 ; t_C = 1155 -> 3,5,7,11.
    layer = dense_layer(64, 64, 2310)
    mapper = make_mapper(case_preset)
    atoms = mapper.loop_multiset(layer)
    assert len(atoms) == 9
    assert mapper.space_size(layer) == 30240  # 9! / (3! * 2!)
    assert count_permutations(atoms) == 30240


def test_most_orders_allocate_validly(case_preset, case1_layer):
    """Capacity-driven allocation places every sampled order.

    The outermost level of each operand is its data home and accepts any
    footprint, so every order yields a valid mapping of the layer.
    """
    mapper = make_mapper(case_preset, enumerated=0, samples=60)
    orders = list(itertools.islice(mapper.orders(case1_layer), 60))
    for order in orders:
        # Raises MappingError unless the allocation is a mapping of the layer.
        Mapping(case1_layer, mapper.spatial, mapper.allocate(case1_layer, order))
    print(f"\nallocation success: {len(orders)}/{len(orders)} sampled orders")
    assert len(orders) == 60


def test_distinct_allocations_fewer_than_orders(case_preset, case1_layer):
    """Allocation collapses equivalent orders (the dedup the mapper does)."""
    mapper = make_mapper(case_preset, enumerated=0, samples=80)
    mappings = list(itertools.islice(mapper.mappings(case1_layer), 100))
    orders_seen = 80 + 24  # samples + seeds (upper bound)
    assert 0 < len(mappings) <= orders_seen


def test_bench_enumeration_throughput(benchmark, case_preset, case1_layer):
    """Benchmark: enumerating + allocating 50 mappings."""
    mapper = make_mapper(case_preset, enumerated=0, samples=50)

    def run():
        return sum(1 for __ in itertools.islice(mapper.mappings(case1_layer), 50))

    count = benchmark(run)
    assert count > 0


def test_bench_search_smoke(benchmark, case_preset):
    """Benchmark: a full (small) search on a modest layer."""
    layer = dense_layer(32, 32, 96)
    mapper = make_mapper(case_preset, enumerated=60, samples=40)
    result = benchmark(mapper.best_mapping, layer)
    assert result.report.total_cycles > 0
