"""Access counting for the energy model."""

from repro.energy.access_counts import count_accesses
from repro.mapping.loop import Loop
from repro.workload.dims import LoopDim
from repro.workload.generator import dense_layer
from repro.workload.operand import Operand

from tests.conftest import make_mapping, toy_accelerator


def _ws_mapping(b=8, k=4, c=4):
    layer = dense_layer(b, k, c)
    levels = {
        Operand.W: [[Loop(LoopDim.B, b)], [Loop(LoopDim.C, c), Loop(LoopDim.K, k)]],
        Operand.I: [[], [Loop(LoopDim.B, b), Loop(LoopDim.C, c), Loop(LoopDim.K, k)]],
        Operand.O: [[Loop(LoopDim.B, b), Loop(LoopDim.C, c)], [Loop(LoopDim.K, k)]],
    }
    return make_mapping(layer, {}, levels)


def test_mac_count():
    acc = toy_accelerator()
    mapping = _ws_mapping()
    counts = count_accesses(acc, mapping)
    assert counts.mac_ops == 8 * 4 * 4


def test_weight_refills_counted_per_tile():
    acc = toy_accelerator(reg_bits=8, o_reg_bits=24 * 8)
    counts = count_accesses(acc, _ws_mapping())
    # W-Reg refreshed once per (C,K) iteration: 16 tiles x 8 bits read from GB.
    assert counts.reads_bits[("GB", Operand.W)] == 16 * 8
    assert counts.writes_bits[("W-Reg", Operand.W)] == 16 * 8


def test_compute_edge_reads_every_cycle():
    acc = toy_accelerator(reg_bits=8, o_reg_bits=24 * 8)
    counts = count_accesses(acc, _ws_mapping())
    total_cc = 8 * 4 * 4
    # One 8-bit weight and one input read per cycle at the reg level.
    assert counts.reads_bits[("W-Reg", Operand.W)] == 8 * total_cc
    assert counts.reads_bits[("I-Reg", Operand.I)] == 8 * total_cc


def test_input_streams_every_cycle():
    acc = toy_accelerator(reg_bits=8, o_reg_bits=24 * 8)
    counts = count_accesses(acc, _ws_mapping())
    total_cc = 128
    # I-Reg refreshed every cycle from GB (no temporal loops below it).
    assert counts.reads_bits[("GB", Operand.I)] == 8 * total_cc


def test_output_stationary_flush_counts():
    acc = toy_accelerator(reg_bits=8, o_reg_bits=24 * 8)
    counts = count_accesses(acc, _ws_mapping())
    # O-Reg flushes per K iteration: 4 tiles x 8 outputs... level-0 tile is
    # B8 outputs at final precision (fully accumulated: all C below).
    assert counts.reads_bits[("O-Reg", Operand.O)] >= 4 * 8 * 24
    assert counts.writes_bits[("GB", Operand.O)] == 4 * 8 * 24


def test_psum_roundtrip_counted():
    acc = toy_accelerator(reg_bits=8, o_reg_bits=24)
    layer = dense_layer(2, 2, 8)
    levels = {
        Operand.W: [[Loop(LoopDim.C, 2)],
                    [Loop(LoopDim.B, 2), Loop(LoopDim.K, 2), Loop(LoopDim.C, 4)]],
        Operand.I: [[], [Loop(LoopDim.C, 2), Loop(LoopDim.B, 2), Loop(LoopDim.K, 2), Loop(LoopDim.C, 4)]],
        Operand.O: [[Loop(LoopDim.C, 2)],
                    [Loop(LoopDim.B, 2), Loop(LoopDim.K, 2), Loop(LoopDim.C, 4)]],
    }
    mapping = make_mapping(layer, {}, levels)
    counts = count_accesses(acc, mapping)
    # Readbacks exist: GB is read for O.
    assert counts.reads_bits.get(("GB", Operand.O), 0) > 0
    # 16 flushes total: 4 final (per B,K tile) + 12 partial.
    o_part = layer.precision.o_partial
    o_fin = layer.precision.o_final
    assert counts.writes_bits[("GB", Operand.O)] == 12 * o_part + 4 * o_fin
    assert counts.reads_bits[("GB", Operand.O)] == 12 * o_part


def test_aggregates():
    acc = toy_accelerator(reg_bits=8, o_reg_bits=24 * 8)
    counts = count_accesses(acc, _ws_mapping())
    assert counts.memory_reads("GB") == (
        counts.reads_bits[("GB", Operand.W)] + counts.reads_bits[("GB", Operand.I)]
    )
    assert counts.operand_traffic(Operand.W) > 0
