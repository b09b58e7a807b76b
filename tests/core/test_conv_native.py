"""Native Conv2D / Depthwise evaluation (no Im2Col lowering).

The model must handle the sliding-window (pr) input loops and depthwise
channel coupling directly; these tests run layers with OX/OY/FX/FY
temporal loops end-to-end through mapper, model and simulator.
"""

import pytest

from repro.dse.mapper import MapperConfig, TemporalMapper
from repro.simulator.engine import CycleSimulator
from repro.simulator.result import accuracy
from repro.workload.dims import LoopDim
from repro.workload.layer import LayerSpec, LayerType

from tests.conftest import toy_accelerator


def _conv(k=8, c=4, ox=8, oy=8, f=3, stride=1):
    return LayerSpec(
        LayerType.CONV2D,
        {LoopDim.K: k, LoopDim.C: c, LoopDim.OX: ox, LoopDim.OY: oy,
         LoopDim.FX: f, LoopDim.FY: f},
        stride_x=stride, stride_y=stride, name="conv-native",
    )


def _best(acc, layer, spatial=None):
    mapper = TemporalMapper(
        acc, spatial or {}, MapperConfig(max_enumerated=150, samples=100)
    )
    return mapper.best_mapping(layer)


@pytest.fixture(scope="module")
def machine():
    return toy_accelerator(reg_bits=8 * 16, o_reg_bits=24 * 16, reg_bw=16,
                           gb_read_bw=16, gb_write_bw=16)


def test_conv_maps_and_evaluates(machine):
    best = _best(machine, _conv())
    report = best.report
    assert report.cc_spatial == _conv().total_macs  # 1-MAC toy machine
    assert report.total_cycles >= report.cc_spatial


def test_conv_model_matches_simulator(machine):
    best = _best(machine, _conv(k=4, c=2, ox=6, oy=6))
    sim = CycleSimulator(machine, best.mapping).run()
    assert accuracy(best.report.total_cycles, sim.total_cycles) > 0.85


def test_strided_conv(machine):
    best = _best(machine, _conv(k=4, c=2, ox=4, oy=4, stride=2))
    assert best.report.total_cycles > 0


def test_conv_spatial_unrolling(machine_with_array=None):
    acc = toy_accelerator(array=16, reg_bits=8, o_reg_bits=24,
                          reg_instances=16, o_instances=16,
                          reg_bw=8, gb_read_bw=64, gb_write_bw=64)
    layer = _conv(k=16, c=4, ox=8, oy=8)
    best = _best(acc, layer, spatial={LoopDim.K: 16})
    assert best.report.cc_ideal == pytest.approx(layer.total_macs / 16)


def test_depthwise_native(machine):
    layer = LayerSpec(
        LayerType.DEPTHWISE,
        {LoopDim.K: 8, LoopDim.OX: 6, LoopDim.OY: 6, LoopDim.FX: 3, LoopDim.FY: 3},
        name="dw-native",
    )
    best = _best(machine, layer)
    sim = CycleSimulator(machine, best.mapping).run()
    assert accuracy(best.report.total_cycles, sim.total_cycles) > 0.85


def test_pointwise_native(machine):
    layer = LayerSpec(
        LayerType.POINTWISE,
        {LoopDim.K: 8, LoopDim.C: 8, LoopDim.OX: 4, LoopDim.OY: 4},
        name="pw-native",
    )
    best = _best(machine, layer)
    assert best.report.total_cycles >= layer.total_macs


def test_input_halo_footprint_visible(machine):
    """With FX/FY at the reg level, the input tile includes the halo."""
    from repro.mapping.footprint import tile_elements
    from repro.mapping.loop import Loop
    from repro.mapping.spatial import SpatialMapping
    from repro.workload.operand import Operand

    layer = _conv(k=1, c=1, ox=8, oy=1, f=3)
    loops = (Loop(LoopDim.OX, 4), Loop(LoopDim.FX, 3))
    elements = tile_elements(layer, Operand.I, loops, SpatialMapping({}))
    assert elements == 6  # (4-1)*1 + (3-1)*1 + 1


def test_prime_layer_dims_ceil_effects():
    """Prime, non-dividing dims exercise the ceil path end to end."""
    acc = toy_accelerator(array=4, reg_bits=8, o_reg_bits=24,
                          reg_instances=4, o_instances=4,
                          gb_read_bw=64, gb_write_bw=64, reg_bw=8)
    layer = LayerSpec(
        LayerType.DENSE, {LoopDim.B: 7, LoopDim.K: 13, LoopDim.C: 5},
        name="prime",
    )
    best = _best(acc, layer, spatial={LoopDim.K: 4})
    report = best.report
    # ceil(13/4) = 4 K iterations: CC_spatial = 7 * 4 * 5.
    assert report.cc_spatial == 7 * 4 * 5
    assert report.spatial_utilization < 1.0
    sim = CycleSimulator(acc, best.mapping).run()
    assert sim.total_cycles >= report.cc_spatial
