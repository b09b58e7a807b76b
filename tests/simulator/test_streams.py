"""Job-stream lowering: gates, thresholds, reduction-pattern decoding."""

import pytest

from repro.mapping.loop import Loop
from repro.simulator.streams import build_streams
from repro.workload.dims import LoopDim
from repro.workload.generator import dense_layer
from repro.workload.operand import Operand

from tests.conftest import make_mapping, toy_accelerator


def _streams_by(streams, kind=None, operand=None):
    return [
        s for s in streams
        if (kind is None or s.kind == kind)
        and (operand is None or s.operand is operand)
    ]


def _ws_mapping(b=8, k=4, c=4):
    layer = dense_layer(b, k, c)
    levels = {
        Operand.W: [[Loop(LoopDim.B, b)], [Loop(LoopDim.C, c), Loop(LoopDim.K, k)]],
        Operand.I: [[], [Loop(LoopDim.B, b), Loop(LoopDim.C, c), Loop(LoopDim.K, k)]],
        Operand.O: [[Loop(LoopDim.B, b), Loop(LoopDim.C, c)], [Loop(LoopDim.K, k)]],
    }
    return make_mapping(layer, {}, levels)


def test_refill_stream_jobs():
    acc = toy_accelerator(reg_bits=8, o_reg_bits=24 * 8)
    streams = build_streams(acc, _ws_mapping())
    w = _streams_by(streams, "refill", Operand.W)[0]
    assert w.period == 8
    assert len(w) == 16                 # all Z tiles, incl. the preload tile
    assert w.gates[0] == float("-inf") and w.thresholds[0] == 0.0
    # Non-DB keep-out: tile k may start x_req before its period.
    assert w.gates[1] == pytest.approx(8 - w.x_req)
    assert w.thresholds[1] == pytest.approx(8)


def test_db_refill_gets_full_period_window():
    acc = toy_accelerator(reg_bits=16, o_reg_bits=24 * 8, reg_double_buffered=True)
    streams = build_streams(acc, _ws_mapping())
    w = _streams_by(streams, "refill", Operand.W)[0]
    assert w.gates[1] == pytest.approx(0.0)
    assert w.gates[2] == pytest.approx(8.0)


def test_flush_jobs_after_period_end():
    acc = toy_accelerator(reg_bits=8, o_reg_bits=24 * 8)
    streams = build_streams(acc, _ws_mapping())
    fl = _streams_by(streams, "flush")[0]
    assert fl.gates[0] == pytest.approx(fl.period)
    assert fl.thresholds[0] == pytest.approx(fl.period + fl.x_req)


def test_output_stationary_all_final_no_readback():
    acc = toy_accelerator(reg_bits=8, o_reg_bits=24 * 8)
    streams = build_streams(acc, _ws_mapping())
    assert _streams_by(streams, "readback") == []
    fl = _streams_by(streams, "flush")[0]
    layer_final_bits = 8 * 24
    assert all(bits == layer_final_bits for bits in fl.bits)


def test_interrupted_accumulation_readbacks_and_precisions():
    from repro.workload.layer import Precision

    acc = toy_accelerator(reg_bits=8, o_reg_bits=32)
    # Distinct final/partial widths so flush kinds are distinguishable.
    layer = dense_layer(2, 2, 8, precision=Precision(o_final=16, o_partial=32))
    levels = {
        Operand.W: [[Loop(LoopDim.C, 2)],
                    [Loop(LoopDim.B, 2), Loop(LoopDim.K, 2), Loop(LoopDim.C, 4)]],
        Operand.I: [[], [Loop(LoopDim.C, 2), Loop(LoopDim.B, 2), Loop(LoopDim.K, 2), Loop(LoopDim.C, 4)]],
        Operand.O: [[Loop(LoopDim.C, 2)],
                    [Loop(LoopDim.B, 2), Loop(LoopDim.K, 2), Loop(LoopDim.C, 4)]],
    }
    mapping = make_mapping(layer, {}, levels)
    streams = build_streams(acc, mapping)
    fl = _streams_by(streams, "flush")[0]
    rb = _streams_by(streams, "readback")[0]
    # 16 flush periods; last C4 digit maxed in the final 4 -> 4 final flushes.
    finals = [bits for bits in fl.bits if bits == layer.precision.o_final]
    partials = [bits for bits in fl.bits if bits == layer.precision.o_partial]
    assert len(fl) == 16 and len(finals) == 4 and len(partials) == 12
    # 12 revisit periods need read-backs.
    assert len(rb) == 12
    # Read-backs depend on the preceding flush.
    assert rb.upstream == fl.name and len(rb.dep_seq) == len(rb)


def test_first_visit_pattern_decoding():
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
    rb = _streams_by(build_streams(acc, mapping), "readback")[0]
    # Periods 0..3 (first C4 round) are first visits: no readback for them.
    gates = sorted(rb.gates)
    assert gates[0] >= 4 * rb.period - rb.x_req - 1e-9


def test_multi_level_refill_dependencies():
    from repro.hardware.presets import case_study_accelerator
    from repro.dse.mapper import MapperConfig, TemporalMapper

    preset = case_study_accelerator()
    mapper = TemporalMapper(
        preset.accelerator, preset.spatial_unrolling,
        MapperConfig(max_enumerated=5, samples=5),
    )
    layer = dense_layer(64, 128, 1200)
    mapping = next(mapper.mappings(layer))
    streams = build_streams(preset.accelerator, mapping)
    lb_refills = [s for s in streams if s.kind == "refill" and s.level == 0]
    for s in lb_refills:
        upper_name = f"{s.operand}-refill-L1"
        if any(t.name == upper_name for t in streams):
            assert s.upstream == upper_name and len(s.dep_seq) == len(s)


def test_total_bits_accounting():
    acc = toy_accelerator(reg_bits=8, o_reg_bits=24 * 8)
    streams = build_streams(acc, _ws_mapping())
    w = _streams_by(streams, "refill", Operand.W)[0]
    # 16 tiles x 8 bits.
    assert w.total_bits == 16 * 8
