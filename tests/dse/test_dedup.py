"""Mapper dedup of model-equivalent factorization orders, and lpf pruning.

Two allocations whose loop orders differ only by permuting equal-dimension
loops that no operand cut separates are one design point: the model reads
loop-size products between level boundaries, never the in-run factor
order. The mapper emits one representative and counts the rest in
``EngineStats.dedup_skipped``; these tests check both the bookkeeping and
— the part that must never silently break — the equivalence itself.
"""

from repro.core.model import LatencyModel
from repro.dse.mapper import MapperConfig, TemporalMapper
from repro.mapping.mapping import Mapping, MappingError
from repro.workload.generator import dense_layer


def _mapper(preset, **config):
    return TemporalMapper(
        preset.accelerator,
        preset.spatial_unrolling,
        MapperConfig(**config),
    )


def test_dedup_skips_are_counted(case_preset):
    # Mixed prime factors (2,2,3 runs per dim) → many equivalent orders.
    layer = dense_layer(96, 192, 20)
    mapper = _mapper(case_preset, max_enumerated=4000)
    mapper.engine.stats.reset()
    emitted = sum(1 for __ in mapper.mappings(layer))
    skipped = mapper.engine.stats.dedup_skipped
    assert emitted > 0
    assert skipped > 0
    # Progress events surface the same counter (defaulted field).
    from repro.observability.progress import CacheStats

    event = CacheStats(run_id="r", dedup_skipped=skipped)
    assert event.dedup_skipped == skipped


def test_dedup_only_drops_model_equivalent_mappings(case_preset):
    """Every dropped order's report equals its canonical representative's.

    Re-enumerates without the canonical filter, groups by canonical key
    and checks that all members of a group produce the identical report —
    the soundness claim behind the skip counter.
    """
    layer = dense_layer(96, 192, 20)
    mapper = _mapper(case_preset, max_enumerated=4000)
    model = LatencyModel(case_preset.accelerator)
    by_canonical = {}
    seen = set()
    for order in mapper.orders(layer):
        temporal = mapper.allocate(layer, order)
        exact = (temporal.loops, tuple(sorted(
            (op.value, temporal.cuts[op]) for op in temporal.cuts
        )))
        if exact in seen:
            continue
        seen.add(exact)
        try:
            mapping = Mapping(layer, mapper.spatial, temporal)
        except MappingError:
            continue
        by_canonical.setdefault(mapper._canonical_key(temporal), []).append(mapping)
    groups = [g for g in by_canonical.values() if len(g) > 1]
    assert groups, "layer must produce at least one equivalence class > 1"
    for group in groups[:40]:
        reports = [model.evaluate(m, validate=False) for m in group]
        first = reports[0]
        for other in reports[1:]:
            assert other.total_cycles == first.total_cycles
            assert other.ss_overall == first.ss_overall
            assert other.preload == first.preload
            assert other.offload == first.offload


def test_dedup_preserves_best_objective(case_preset, small_layer):
    """The deduped search finds the same optimum the space contains."""
    mapper = _mapper(case_preset, max_enumerated=2000)
    results = mapper.search(small_layer)
    assert results
    # Recompute the optimum over the raw (non-canonical-deduped) space.
    best_raw = None
    for order in mapper.orders(small_layer):
        temporal = mapper.allocate(small_layer, order)
        try:
            mapping = Mapping(small_layer, mapper.spatial, temporal)
        except MappingError:
            continue
        cycles = LatencyModel(case_preset.accelerator).evaluate(
            mapping, validate=False
        ).total_cycles
        if best_raw is None or cycles < best_raw:
            best_raw = cycles
    assert results[0].objective == best_raw


def test_lpf_limit_shrinks_search_space(case_preset):
    layer = dense_layer(64, 32, 48)
    full = _mapper(case_preset, max_enumerated=10)
    pruned = _mapper(case_preset, max_enumerated=10, lpf_limit=2)
    assert pruned.space_size(layer) < full.space_size(layer)
    # Pruned atoms still cover every loop bound exactly.
    import math

    atoms = pruned.loop_multiset(layer)
    for dim in {d for d, __ in atoms}:
        bound = pruned.spatial.temporal_bound(dim, layer)
        assert math.prod(f for d, f in atoms if d is dim) == bound


def test_lpf_limit_search_still_finds_valid_mappings(case_preset, small_layer):
    pruned = _mapper(case_preset, max_enumerated=2000, lpf_limit=2)
    results = pruned.search(small_layer)
    assert results
    assert results[0].report.total_cycles > 0
