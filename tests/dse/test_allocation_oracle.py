"""Greedy level allocation equals the prefix-by-prefix reference.

:meth:`TemporalMapper.allocate_block` allocates a whole block of loop
orders at once from int columns, and :meth:`TemporalMapper.allocate` is
its one-order call. The reference below is the textbook form of the same
greedy rule: for every growing prefix of the order, re-measure each
operand's tile with :func:`tile_elements` and climb a level while it does
not fit. The two must agree on every order, layer and machine, row by row
within ragged blocks.
"""

from __future__ import annotations

from typing import Dict, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dse.mapper import MapperConfig, TemporalMapper, order_columns
from repro.hardware.accelerator import Accelerator, StallOverlapConfig
from repro.hardware.hierarchy import MemoryHierarchy, auto_allocate
from repro.hardware.mac_array import MacArray
from repro.hardware.memory import MemoryInstance, dual_port
from repro.hardware.pool import MemoryPool
from repro.hardware.presets import (
    KB,
    array_scales,
    case_study_accelerator,
    inhouse_accelerator,
    shared_lb_accelerator,
)
from repro.mapping.footprint import spatial_replication, tile_elements
from repro.mapping.loop import Loop
from repro.mapping.temporal import TemporalMapping
from repro.testing import toy_accelerator
from repro.workload.dims import ALL_DIMS, LoopDim
from repro.workload.layer import LayerSpec, LayerType
from repro.workload.operand import Operand


def reference_allocate(mapper: TemporalMapper, layer: LayerSpec, order) -> TemporalMapping:
    """Greedy bottom-up allocation, re-measuring every prefix from scratch."""
    loops = tuple(Loop(dim, size) for dim, size in order)
    cuts: Dict[Operand, Tuple[int, ...]] = {}
    for operand in Operand:
        chain = mapper.accelerator.hierarchy.levels(operand)
        cut = []
        level = 0
        for index in range(1, len(loops) + 1):
            prefix = loops[:index]
            while level < len(chain) - 1 and not _fits(
                mapper, layer, operand, prefix, chain[level]
            ):
                cut.append(index - 1)
                level += 1
        cut.extend([len(loops)] * (len(chain) - 1 - len(cut)))
        cuts[operand] = tuple(cut)
    return TemporalMapping(loops, cuts)


def _fits(mapper, layer, operand, prefix, level) -> bool:
    elements = tile_elements(layer, operand, prefix, mapper.spatial)
    bits = elements * layer.precision.of(operand, partial=operand is Operand.O)
    if level.instance.instances > 1:
        bits *= spatial_replication(layer, operand, mapper.spatial)
    return bits <= level.capacity_for(operand)


def _pool_machines():
    pool = MemoryPool.small()
    machines = []
    for k, b, c in array_scales().values():
        for index, (__, preset) in enumerate(pool.build(k, b, c, gb_read_bw=128.0)):
            if index % 5 == 0:
                machines.append(preset)
    return machines


MACHINES = [
    case_study_accelerator(),
    inhouse_accelerator(),
    shared_lb_accelerator(),
    shared_lb_accelerator(
        lb_shares={Operand.W: 16 * KB, Operand.I: 8 * KB, Operand.O: 8 * KB}
    ),
    *_pool_machines(),
]


@st.composite
def layers(draw) -> LayerSpec:
    """Dense, strided/dilated conv and depthwise layers with odd bounds.

    Bounds are drawn independently of the machines' unroll factors, so
    ``ceil(size / unroll) * unroll`` often exceeds ``size`` and the
    allocator must clamp extents to the layer bounds.
    """
    kind = draw(st.sampled_from(["dense", "conv", "depthwise"]))
    small = st.integers(1, 12)
    dims = {LoopDim.B: draw(small), LoopDim.K: draw(st.integers(1, 40))}
    if kind == "dense":
        dims[LoopDim.C] = draw(st.integers(1, 96))
        return LayerSpec(LayerType.DENSE, dims)
    dims.update({
        LoopDim.OX: draw(small), LoopDim.OY: draw(small),
        LoopDim.FX: draw(st.integers(1, 5)), LoopDim.FY: draw(st.integers(1, 5)),
    })
    if kind == "conv":
        dims[LoopDim.C] = draw(st.integers(1, 24))
        layer_type = LayerType.CONV2D
    else:
        layer_type = LayerType.DEPTHWISE
    return LayerSpec(
        layer_type, dims,
        stride_x=draw(st.integers(1, 3)), stride_y=draw(st.integers(1, 3)),
        dilation_x=draw(st.integers(1, 2)), dilation_y=draw(st.integers(1, 2)),
    )


@settings(max_examples=150, deadline=None)
@given(
    machine=st.sampled_from(MACHINES),
    first=layers(),
    second=layers(),
    lpf_limit=st.sampled_from([None, 1, 2, 3]),
    data=st.data(),
)
def test_allocate_equals_prefix_reference(machine, first, second, lpf_limit, data):
    mapper = TemporalMapper(
        machine.accelerator, machine.spatial_unrolling, MapperConfig(lpf_limit=lpf_limit)
    )
    # Alternate layers on one mapper: per-layer constants must follow the layer.
    for layer in (first, second, first):
        atoms = mapper.loop_multiset(layer)
        order = tuple(data.draw(st.permutations(atoms)))
        assert mapper.allocate(layer, order) == reference_allocate(mapper, layer, order)


@pytest.mark.parametrize(
    "machine, spatial, dims, order",
    [
        # Loop sizes of another layer: extents clamp to this layer's bounds.
        (case_study_accelerator().accelerator, case_study_accelerator().spatial_unrolling,
         {LoopDim.B: 8, LoopDim.K: 20, LoopDim.C: 30},
         ((LoopDim.C, 7), (LoopDim.K, 5), (LoopDim.B, 3), (LoopDim.C, 11))),
        # The spatial tile alone overflows W-Reg, so W's first cut is 0.
        (toy_accelerator(array=4), {LoopDim.K: 4},
         {LoopDim.B: 2, LoopDim.K: 4, LoopDim.C: 6},
         ((LoopDim.K, 2), (LoopDim.C, 2), (LoopDim.C, 3))),
    ],
)
def test_allocate_handles_orders_of_another_layer(machine, spatial, dims, order):
    """A foreign order still allocates identically (Mapping rejects it later)."""
    mapper = TemporalMapper(machine, spatial)
    layer = LayerSpec(LayerType.DENSE, dims)
    assert mapper.allocate(layer, order) == reference_allocate(mapper, layer, order)


# --------------------------------------------------------------------- #
# Ragged blocks
# --------------------------------------------------------------------- #

def _chain_machine() -> Accelerator:
    """Chains the presets lack: W has a single level (its data home), and
    I climbs from a register into a lane-split level that holds *fewer*
    elements than the register below it once the K unroll replicates I."""

    def memory(name, bits, instances=1):
        return MemoryInstance(
            name, bits, dual_port(64.0, 64.0), instances=instances,
            read_energy_pj_per_bit=0.01, write_energy_pj_per_bit=0.01,
        )

    gb = auto_allocate(memory("GB", 64 * 1024 * 8), set(Operand))
    hierarchy = MemoryHierarchy({
        Operand.W: (gb,),
        Operand.I: (
            auto_allocate(memory("I-Reg", 64), {Operand.I}),
            auto_allocate(memory("I-Lane", 32, instances=4), {Operand.I}),
            gb,
        ),
        Operand.O: (auto_allocate(memory("O-Reg", 96), {Operand.O}), gb),
    })
    return Accelerator(
        name="chains",
        mac_array=MacArray(rows=1, cols=4, macs_per_pe=1, mac_energy_pj=0.1),
        hierarchy=hierarchy,
        stall_overlap=StallOverlapConfig.all_concurrent(),
    )


BLOCK_MACHINES = [
    (machine.accelerator, machine.spatial_unrolling) for machine in MACHINES
] + [(_chain_machine(), {LoopDim.K: 4})]

UNIT_LAYERS = st.sampled_from([
    LayerSpec(LayerType.DENSE, {LoopDim.B: 1, LoopDim.K: 1, LoopDim.C: 1}),
    LayerSpec(LayerType.CONV2D, dict.fromkeys(ALL_DIMS, 1)),
])


def test_chain_machine_has_the_chains_the_block_rule_must_handle():
    accelerator, spatial = BLOCK_MACHINES[-1]
    mapper = TemporalMapper(accelerator, spatial)
    layer = LayerSpec(LayerType.DENSE, {LoopDim.B: 4, LoopDim.K: 16, LoopDim.C: 8})
    __, __, limits = mapper._allocation_plan(layer)
    assert len(limits[Operand.W]) == 0  # single level: no cuts
    assert limits[Operand.I][1] < limits[Operand.I][0]  # limits not increasing


@settings(max_examples=150, deadline=None)
@given(
    machine=st.sampled_from(BLOCK_MACHINES),
    layer=st.one_of(layers(), UNIT_LAYERS),
    lpf_limit=st.sampled_from([None, 1, 2, 3]),
    data=st.data(),
)
def test_block_cuts_equal_reference_row_by_row(machine, layer, lpf_limit, data):
    """Orders of different lengths share a block; every row allocates as
    the reference allocates that order alone."""
    accelerator, spatial = machine
    mapper = TemporalMapper(accelerator, spatial, MapperConfig(lpf_limit=lpf_limit))
    atoms = mapper.loop_multiset(layer)
    # Sub-multisets of the layer's atoms: ragged lengths, empty orders too.
    orders = data.draw(st.lists(
        st.lists(st.booleans(), min_size=len(atoms), max_size=len(atoms)).flatmap(
            lambda keep: st.permutations([a for a, k in zip(atoms, keep) if k])
        ).map(tuple),
        min_size=1, max_size=6,
    ))
    dims, sizes, lengths = order_columns(orders)
    assert dims.shape == (len(orders), max(map(len, orders)))
    cuts = mapper.allocate_block(layer, dims, sizes, lengths)
    for row, order in enumerate(orders):
        want = reference_allocate(mapper, layer, order)
        got = {op: tuple(cuts[op][row].tolist()) for op in Operand}
        assert got == want.cuts
        one = mapper.allocate_block(layer, *order_columns([order]))
        assert mapper.allocate(layer, order).cuts == {
            op: tuple(one[op][0].tolist()) for op in Operand
        } == got
