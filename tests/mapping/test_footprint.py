"""Mem_DATA footprints: r-loop products, sliding windows, replication."""

import pytest

from repro.mapping.footprint import (
    operand_footprint_bits,
    operand_footprint_elements,
    outputs_are_partial_above,
    spatial_replication,
    tile_elements,
)
from repro.mapping.loop import Loop
from repro.mapping.spatial import SpatialMapping
from repro.mapping.temporal import TemporalMapping, loops_from_pairs
from repro.workload.dims import LoopDim
from repro.workload.generator import dense_layer
from repro.workload.layer import LayerSpec, LayerType
from repro.workload.operand import Operand


def test_tile_elements_r_loops_only():
    layer = dense_layer(8, 8, 8)
    spatial = SpatialMapping({})
    loops = loops_from_pairs([("B", 2), ("K", 4), ("C", 2)])
    # W footprint ignores B (irrelevant): K4 x C2.
    assert tile_elements(layer, Operand.W, tuple(loops), spatial) == 8
    # I ignores K: B2 x C2.
    assert tile_elements(layer, Operand.I, tuple(loops), spatial) == 4
    # O ignores C: B2 x K4.
    assert tile_elements(layer, Operand.O, tuple(loops), spatial) == 8


def test_tile_includes_spatial_r_factors():
    layer = dense_layer(8, 32, 8)
    spatial = SpatialMapping({LoopDim.K: 16, LoopDim.B: 8, LoopDim.C: 2})
    assert tile_elements(layer, Operand.W, (), spatial) == 32       # K16 x C2
    assert tile_elements(layer, Operand.I, (), spatial) == 16      # B8 x C2
    assert tile_elements(layer, Operand.O, (), spatial) == 128     # K16 x B8


def test_extent_clamped_to_layer():
    layer = dense_layer(4, 8, 8)
    spatial = SpatialMapping({LoopDim.B: 8})  # unroll exceeds bound
    assert tile_elements(layer, Operand.I, (), spatial) == 4  # clamped to B=4


def test_conv_input_sliding_window():
    layer = LayerSpec(
        LayerType.CONV2D,
        {LoopDim.K: 4, LoopDim.C: 2, LoopDim.OX: 8, LoopDim.OY: 8,
         LoopDim.FX: 3, LoopDim.FY: 3},
    )
    spatial = SpatialMapping({})
    loops = (Loop(LoopDim.OX, 4), Loop(LoopDim.FX, 3))
    # ix = (4-1)*1 + (3-1)*1 + 1 = 6; iy = 1 (no OY/FY loops -> fy=1? no: FY extent 1)
    assert tile_elements(layer, Operand.I, loops, spatial) == 6


def test_input_window_with_stride_and_dilation():
    """The tile window matches ``LayerSpec.input_extent_x`` / ``_y``."""
    layer = LayerSpec(
        LayerType.CONV2D,
        {LoopDim.C: 3, LoopDim.OX: 6, LoopDim.OY: 5, LoopDim.FX: 3, LoopDim.FY: 3},
        stride_x=2, stride_y=3, dilation_x=2, dilation_y=3,
    )
    spatial = SpatialMapping({LoopDim.C: 3})
    loops = (Loop(LoopDim.OX, 3), Loop(LoopDim.FX, 3), Loop(LoopDim.OY, 5), Loop(LoopDim.FY, 2))
    window = layer.input_extent_x(3, 3) * layer.input_extent_y(5, 2)
    assert window == (2 * 2 + 2 * 2 + 1) * (4 * 3 + 1 * 3 + 1)
    assert tile_elements(layer, Operand.I, loops, spatial) == 3 * window
    full = layer.input_extent_x(6, 3) * layer.input_extent_y(5, 3)
    assert layer.operand_elements(Operand.I) == 3 * full


def test_depthwise_input_channels_follow_k():
    layer = LayerSpec(
        LayerType.DEPTHWISE,
        {LoopDim.K: 16, LoopDim.OX: 4, LoopDim.OY: 4, LoopDim.FX: 3, LoopDim.FY: 3},
    )
    spatial = SpatialMapping({})
    loops = (Loop(LoopDim.K, 4),)
    assert tile_elements(layer, Operand.I, loops, spatial) == 4  # 4 channels x 1x1
    assert tile_elements(layer, Operand.W, loops, spatial) == 4  # K4 x fx1 fy1


def test_operand_footprint_bits_partial_precision():
    layer = dense_layer(4, 4, 4)
    spatial = SpatialMapping({})
    tm = TemporalMapping(
        loops_from_pairs([("B", 4), ("K", 4), ("C", 4)]),
        {Operand.W: (0,), Operand.I: (0,), Operand.O: (1,)},
    )
    final = operand_footprint_bits(layer, Operand.O, tm, spatial, 0)
    partial = operand_footprint_bits(layer, Operand.O, tm, spatial, 0, partial_outputs=True)
    assert final == 4 * 24
    assert partial == 4 * layer.precision.o_partial


def test_outputs_are_partial_above():
    layer = dense_layer(4, 4, 4)
    spatial = SpatialMapping({})
    # C above O level 0 -> partial sums leave the reg.
    tm = TemporalMapping(
        loops_from_pairs([("B", 4), ("C", 4), ("K", 4)]),
        {Operand.W: (0,), Operand.I: (0,), Operand.O: (1,)},
    )
    assert outputs_are_partial_above(layer, tm, 0)
    # All C at/below level 0 -> final outputs only.
    tm2 = TemporalMapping(
        loops_from_pairs([("C", 4), ("B", 4), ("K", 4)]),
        {Operand.W: (0,), Operand.I: (0,), Operand.O: (1,)},
    )
    assert not outputs_are_partial_above(layer, tm2, 0)
    del spatial


def test_spatial_replication_broadcast_dims():
    layer = dense_layer(64, 64, 64)
    spatial = SpatialMapping({LoopDim.K: 16, LoopDim.B: 8, LoopDim.C: 2})
    # W is broadcast across the B lanes.
    assert spatial_replication(layer, Operand.W, spatial) == 8
    # I is broadcast across the K lanes.
    assert spatial_replication(layer, Operand.I, spatial) == 16
    # O never replicates (spatial reduction uses an adder tree).
    assert spatial_replication(layer, Operand.O, spatial) == 1


def test_footprint_elements_uses_levels():
    layer = dense_layer(8, 8, 8)
    spatial = SpatialMapping({})
    tm = TemporalMapping(
        loops_from_pairs([("C", 2), ("C", 4), ("K", 8), ("B", 8)]),
        {Operand.W: (1,), Operand.I: (1,), Operand.O: (2,)},
    )
    assert operand_footprint_elements(layer, Operand.W, tm, spatial, 0) == 2
    assert operand_footprint_elements(layer, Operand.W, tm, spatial, 1) == 8 * 8


def test_extent_error_propagation():
    layer = dense_layer(2, 2, 2)
    with pytest.raises(ValueError):
        layer.input_extent_x(0, 1)
