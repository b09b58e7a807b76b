"""Minimum-burst (word-size) rounding in model and simulator."""

import pytest

from repro.core.dtl import DTL, TrafficKind, Transfer
from repro.core.model import LatencyModel
from repro.hardware.port import EndpointKind
from repro.mapping.loop import Loop
from repro.simulator.engine import CycleSimulator
from repro.workload.dims import LoopDim
from repro.workload.generator import dense_layer
from repro.workload.operand import Operand

from tests.conftest import make_mapping, toy_accelerator


def _transfer(bits=8.0):
    return Transfer(
        operand=Operand.W, kind=TrafficKind.REFILL, served_memory="W-Reg",
        served_level=0, src_memory="GB", dst_memory="W-Reg",
        data_bits=bits, period=8.0, repeats=4, x_req=2.0, window_start=6.0,
    )


def test_dtl_padding_math():
    d = DTL(_transfer(8.0), "GB", "rd", EndpointKind.TL, real_bw=8.0, burst_bits=64)
    assert d.padded_bits == 64
    assert d.x_real == pytest.approx(8.0)
    unpadded = DTL(_transfer(8.0), "GB", "rd", EndpointKind.TL, real_bw=8.0)
    assert unpadded.x_real == pytest.approx(1.0)


def test_dtl_padding_exact_multiple():
    d = DTL(_transfer(128.0), "GB", "rd", EndpointKind.TL, real_bw=8.0, burst_bits=64)
    assert d.padded_bits == 128


def test_dtl_rejects_bad_burst():
    with pytest.raises(ValueError):
        DTL(_transfer(), "GB", "rd", EndpointKind.TL, real_bw=8.0, burst_bits=0)


def _wide_word_machine(burst: int):
    acc = toy_accelerator(reg_bits=8, o_reg_bits=24 * 8, gb_read_bw=64, gb_write_bw=64)
    return acc.replace_memory("GB", min_burst_bits=burst)


def _small_tile_mapping():
    layer = dense_layer(8, 4, 4)
    levels = {
        Operand.W: [[Loop(LoopDim.B, 8)], [Loop(LoopDim.C, 4), Loop(LoopDim.K, 4)]],
        Operand.I: [[], [Loop(LoopDim.B, 8), Loop(LoopDim.C, 4), Loop(LoopDim.K, 4)]],
        Operand.O: [[Loop(LoopDim.B, 8), Loop(LoopDim.C, 4)], [Loop(LoopDim.K, 4)]],
    }
    return make_mapping(layer, {}, levels)


def test_wide_words_slow_small_tiles_in_model():
    mapping = _small_tile_mapping()
    narrow = LatencyModel(_wide_word_machine(1)).evaluate(mapping, validate=False)
    wide = LatencyModel(_wide_word_machine(512)).evaluate(mapping, validate=False)
    # 8-bit weight refills pay for 512-bit words: stalls appear.
    assert wide.total_cycles > narrow.total_cycles


def test_wide_words_slow_small_tiles_in_simulator():
    mapping = _small_tile_mapping()
    narrow = CycleSimulator(_wide_word_machine(1), mapping).run()
    wide = CycleSimulator(_wide_word_machine(512), mapping).run()
    assert wide.total_cycles > narrow.total_cycles


def test_model_simulator_agree_with_bursts():
    from repro.simulator.result import accuracy

    mapping = _small_tile_mapping()
    machine = _wide_word_machine(256)
    report = LatencyModel(machine).evaluate(mapping, validate=False)
    sim = CycleSimulator(machine, mapping).run()
    assert accuracy(report.total_cycles, sim.total_cycles) > 0.8
