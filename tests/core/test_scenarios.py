"""Fig. 1(b): the four computation scenarios."""

import pytest

from repro.core.scenarios import ScenarioQuantities, classify
from repro.mapping.spatial import SpatialMapping
from repro.mapping.temporal import TemporalMapping, loops_from_pairs
from repro.mapping.mapping import Mapping
from repro.workload.dims import LoopDim
from repro.workload.generator import dense_layer
from repro.workload.operand import Operand


def _mapping(layer, spatial, loops):
    tm = TemporalMapping(loops_from_pairs(loops), {op: (len(loops),) for op in Operand})
    return Mapping(layer, SpatialMapping(spatial), tm)


def test_scenario1_full_mapping():
    layer = dense_layer(8, 2, 2)
    mapping = _mapping(layer, {LoopDim.B: 8}, [("K", 2), ("C", 2)])
    q = classify(mapping, array_size=8, ss_overall=0)
    assert q.scenario == 1
    assert q.utilization == pytest.approx(1.0)
    assert q.latency == q.cc_ideal == 4
    assert q.spatially_full and q.temporally_full


def test_scenario2_spatial_underuse():
    layer = dense_layer(5, 2, 2)  # B=5 on an 8-wide unroll
    mapping = _mapping(layer, {LoopDim.B: 8}, [("K", 2), ("C", 2)])
    q = classify(mapping, array_size=8, ss_overall=0)
    assert q.scenario == 2
    assert q.cc_spatial == 4
    assert q.spatial_stall == pytest.approx(4 - 20 / 8)
    assert q.utilization == pytest.approx((20 / 8) / 4)


def test_scenario3_temporal_stall_only():
    layer = dense_layer(8, 2, 2)
    mapping = _mapping(layer, {LoopDim.B: 8}, [("K", 2), ("C", 2)])
    q = classify(mapping, array_size=8, ss_overall=4)
    assert q.scenario == 3
    assert q.latency == 8
    assert q.utilization == pytest.approx(0.5)
    assert q.temporal_stall == 4


def test_scenario4_both_stalls():
    layer = dense_layer(5, 2, 2)
    mapping = _mapping(layer, {LoopDim.B: 8}, [("K", 2), ("C", 2)])
    q = classify(mapping, array_size=8, ss_overall=2)
    assert q.scenario == 4
    assert q.latency == 6
    assert not q.spatially_full and not q.temporally_full


def test_negative_ss_clamped():
    layer = dense_layer(8, 2, 2)
    mapping = _mapping(layer, {LoopDim.B: 8}, [("K", 2), ("C", 2)])
    q = classify(mapping, array_size=8, ss_overall=-5)
    assert q.ss_overall == 0
    assert q.scenario == 1


def test_quantities_are_consistent():
    q = ScenarioQuantities(scenario=3, cc_ideal=100, cc_spatial=100, ss_overall=25)
    assert q.latency == 125
    assert q.utilization == pytest.approx(0.8)
    assert q.spatial_stall == 0
