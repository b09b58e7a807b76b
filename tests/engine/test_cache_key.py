"""``Mapping.cache_key``: the structural identity the evaluation caches use.

The in-process engine and the serve client key their caches on
``cache_key`` (plain str/int values) instead of the SHA-256
``fingerprint()``. The two must name the same design point: whatever
leaves one unchanged leaves the other unchanged, and whatever changes one
changes the other.
"""

import dataclasses

import pytest

from repro.dse.mapper import MapperConfig, TemporalMapper
from repro.engine import EvaluationEngine
from repro.hardware.presets import case_study_accelerator
from repro.mapping.loop import Loop
from repro.mapping.mapping import Mapping
from repro.mapping.serde import mapping_from_dict, mapping_to_dict
from repro.mapping.spatial import SpatialMapping
from repro.mapping.temporal import TemporalMapping
from repro.workload.dims import LoopDim
from repro.workload.generator import dense_layer
from repro.workload.layer import LayerSpec, LayerType
from repro.workload.operand import Operand


@pytest.fixture
def preset():
    return case_study_accelerator()


@pytest.fixture
def mapping(preset):
    mapper = TemporalMapper(
        preset.accelerator,
        preset.spatial_unrolling,
        MapperConfig(max_enumerated=50, samples=30),
    )
    return next(iter(mapper.mappings(dense_layer(16, 32, 64))))


def _hand_built(spatial=None, loops=None, cuts=None) -> Mapping:
    """K fits the unroll either way (ceil(12/16) == ceil(12/12) == 1), and
    C's factors 2, 3, 2 differ, so spatial and loop sizes vary alone."""
    layer = LayerSpec(LayerType.DENSE, {LoopDim.B: 2, LoopDim.K: 12, LoopDim.C: 12})
    loops = loops or (
        Loop(LoopDim.C, 2), Loop(LoopDim.B, 2), Loop(LoopDim.C, 3), Loop(LoopDim.C, 2),
    )
    cuts = cuts or {Operand.W: (1, 4), Operand.I: (2, 3), Operand.O: (0, 4)}
    return Mapping(
        layer, SpatialMapping(spatial or {LoopDim.K: 16}), TemporalMapping(loops, cuts)
    )


def _identity(mapping):
    return mapping.cache_key, mapping.fingerprint()


def _plain(value) -> bool:
    if isinstance(value, tuple):
        return all(_plain(v) for v in value)
    return type(value) in (str, int)


def test_cache_key_is_plain_hashable_and_memoized(mapping):
    key = mapping.cache_key
    assert _plain(key)
    hash(key)
    assert mapping.cache_key is key


def test_equal_mappings_share_both_identities(mapping):
    round_trip = mapping_from_dict(mapping_to_dict(mapping), mapping.layer)
    renamed = Mapping(
        dataclasses.replace(mapping.layer, name="renamed"),
        mapping.spatial,
        mapping.temporal,
    )
    copied = dataclasses.replace(
        mapping,
        layer=dataclasses.replace(mapping.layer),
        spatial=dataclasses.replace(mapping.spatial),
        temporal=dataclasses.replace(mapping.temporal),
    )
    for twin in (round_trip, renamed, copied):
        assert twin is not mapping
        assert _identity(twin) == _identity(mapping)


def test_any_structural_change_changes_both_identities():
    base = _hand_built()
    cut = _hand_built(cuts={Operand.W: (1, 4), Operand.I: (2, 4), Operand.O: (0, 4)})
    size = _hand_built(loops=(
        Loop(LoopDim.C, 3), Loop(LoopDim.B, 2), Loop(LoopDim.C, 2), Loop(LoopDim.C, 2),
    ))
    spatial = _hand_built(spatial={LoopDim.K: 12})
    keys = {base.cache_key, cut.cache_key, size.cache_key, spatial.cache_key}
    fingerprints = {m.fingerprint() for m in (base, cut, size, spatial)}
    assert len(keys) == len(fingerprints) == 4


def test_evaluate_fills_what_evaluate_many_of_an_equal_mapping_hits(preset, mapping):
    engine = EvaluationEngine.from_preset(preset)
    report = engine.evaluate(mapping)
    twin = mapping_from_dict(
        mapping_to_dict(mapping), dataclasses.replace(mapping.layer, name="twin")
    )
    assert twin is not mapping and twin.layer is not mapping.layer
    misses = engine.stats.cache_misses
    [outcome] = engine.evaluate_many([twin])
    assert outcome.cache_hit
    assert engine.stats.cache_misses == misses
    assert engine.stats.evaluations == 1
    assert outcome.report.total_cycles == report.total_cycles
