"""Operand data footprints (``Mem_DATA``) at every memory level.

``Mem_DATA`` (Fig. 2a) is "the product of all the r loops' size (temporal &
spatial) of that operand at current and lower memory levels". Spatial
unrolling always sits below the innermost memory level, so every level
includes the spatial r factors. The input operand's partially-relevant
OX/OY/FX/FY loops enter through the sliding-window extent formula instead
of a plain product.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping as TMapping, Tuple

from repro.mapping.loop import Loop
from repro.mapping.spatial import SpatialMapping
from repro.mapping.temporal import TemporalMapping
from repro.workload.dims import LoopDim
from repro.workload.layer import LayerSpec, LayerType
from repro.workload.operand import Operand


def _dim_extent(loops: Iterable[Loop], spatial: SpatialMapping, dim: LoopDim) -> int:
    """Combined temporal x spatial iteration count of ``dim`` in ``loops``."""
    temporal = math.prod(l.size for l in loops if l.dim is dim)
    return temporal * spatial.factor(dim)


def tile_elements(
    layer: LayerSpec,
    operand: Operand,
    loops: Tuple[Loop, ...],
    spatial: SpatialMapping,
) -> int:
    """Elements of ``operand`` covered by ``loops`` (+ all spatial unrolls).

    ``loops`` is the set of temporal loops at and below the level of
    interest; the spatial unrolling is included wholesale since it is below
    every memory level.
    """
    # Clamp to the layer bounds: ceil-induced padding never stores real data.
    ext = {
        dim: min(_dim_extent(loops, spatial, dim), layer.size(dim))
        for dim in LoopDim
    }
    return extent_elements(layer, operand, ext)


def extent_elements(
    layer: LayerSpec, operand: Operand, ext: TMapping[LoopDim, int]
) -> int:
    """``Mem_DATA`` in elements of ``operand`` for per-dim extents ``ext``.

    ``ext`` maps every dimension to its iteration count (temporal x
    spatial, clamped to the layer bounds, so at least 1): ints, or NumPy
    arrays of one count per lane in the batch core. W and O tiles are
    products of their relevant extents; the input tile follows the
    sliding window of :meth:`LayerSpec.input_extent_x`.
    """
    if operand is Operand.W:
        channels = ext[LoopDim.C] if layer.layer_type is not LayerType.DEPTHWISE else 1
        return ext[LoopDim.K] * channels * ext[LoopDim.FX] * ext[LoopDim.FY]
    if operand is Operand.O:
        return ext[LoopDim.B] * ext[LoopDim.K] * ext[LoopDim.OX] * ext[LoopDim.OY]
    # Input: sliding window in x and y.
    ix = (ext[LoopDim.OX] - 1) * layer.stride_x + (ext[LoopDim.FX] - 1) * layer.dilation_x + 1
    iy = (ext[LoopDim.OY] - 1) * layer.stride_y + (ext[LoopDim.FY] - 1) * layer.dilation_y + 1
    if layer.layer_type is LayerType.DEPTHWISE:
        channels = ext[LoopDim.K]
    else:
        channels = ext[LoopDim.C]
    return ext[LoopDim.B] * channels * ix * iy


def operand_footprint_elements(
    layer: LayerSpec,
    operand: Operand,
    temporal: TemporalMapping,
    spatial: SpatialMapping,
    level: int,
) -> int:
    """``Mem_DATA`` in elements for ``operand`` at memory ``level``."""
    loops = temporal.loops_at_or_below(operand, level)
    return tile_elements(layer, operand, loops, spatial)


def operand_footprint_bits(
    layer: LayerSpec,
    operand: Operand,
    temporal: TemporalMapping,
    spatial: SpatialMapping,
    level: int,
    partial_outputs: bool = False,
) -> int:
    """``Mem_DATA`` in bits (psum precision when ``partial_outputs``)."""
    elements = operand_footprint_elements(layer, operand, temporal, spatial, level)
    return elements * layer.precision.of(operand, partial=partial_outputs)


def spatial_replication(layer: LayerSpec, operand: Operand, spatial: SpatialMapping) -> int:
    """Physical duplication factor of ``operand`` across a lane-split level.

    Per-lane register levels (one instance per MAC / accumulator) store a
    private copy of the operand slice; spatial loops *irrelevant* to the
    operand broadcast the same element to several lanes, so the physical
    storage demand is the distinct footprint times the product of the
    operand-irrelevant spatial unroll factors. Single-instance memories
    (buffers) store distinct data once — replication does not apply there.

    Outputs never replicate: spatially-unrolled reduction loops meet in an
    adder tree, not in duplicated accumulators.
    """
    if operand is Operand.O:
        return 1
    factor = 1
    for dim, unroll in spatial.unrolling.items():
        if layer.relevance(operand, dim, pr_as_r=True) == "ir":
            factor *= unroll
    return factor


def outputs_are_partial_above(
    layer: LayerSpec, temporal: TemporalMapping, level: int
) -> bool:
    """Whether output tiles leaving ``level`` still await accumulation.

    True when any output-irrelevant loop (C / FX / FY — the reduction
    loops) is scheduled above ``level`` in the output chain: the tile
    flushed upward is then a partial sum that must come back down later.
    """
    for loop in temporal.loops_above(Operand.O, level):
        if layer.relevance(Operand.O, loop.dim, pr_as_r=True) == "ir":
            return True
    return False
