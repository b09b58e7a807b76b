"""Three-level output hierarchies (O-Reg -> O-LB -> GB).

The paper's machines route outputs Reg -> GB directly, but the model is
uniform over arbitrary chains; these tests build a machine with an
intermediate output buffer and check flush/read-back traffic at BOTH
interfaces, plus simulator agreement.
"""

from repro.core.dtl import TrafficKind
from repro.core.model import LatencyModel
from repro.core.step1 import ModelOptions, build_dtls
from repro.hardware.accelerator import Accelerator
from repro.hardware.hierarchy import MemoryHierarchy, auto_allocate
from repro.hardware.mac_array import MacArray
from repro.hardware.memory import MemoryInstance, dual_port
from repro.mapping.loop import Loop
from repro.simulator.engine import CycleSimulator
from repro.simulator.result import accuracy
from repro.workload.dims import LoopDim
from repro.workload.generator import dense_layer
from repro.workload.operand import Operand

from tests.conftest import make_mapping


def deep_output_machine(gb_bw: float = 16.0, olb_bw: float = 48.0) -> Accelerator:
    w_reg = auto_allocate(MemoryInstance("W-Reg", 64, dual_port(8, 8)), {Operand.W})
    i_reg = auto_allocate(MemoryInstance("I-Reg", 64, dual_port(8, 8)), {Operand.I})
    o_reg = auto_allocate(MemoryInstance("O-Reg", 24 * 4, dual_port(48, 48)), {Operand.O})
    o_lb = auto_allocate(
        MemoryInstance("O-LB", 24 * 64, dual_port(olb_bw, olb_bw)), {Operand.O}
    )
    gb = auto_allocate(
        MemoryInstance("GB", 8 * 2 ** 20, dual_port(gb_bw, gb_bw)), set(Operand)
    )
    hierarchy = MemoryHierarchy(
        {
            Operand.W: (w_reg, gb),
            Operand.I: (i_reg, gb),
            Operand.O: (o_reg, o_lb, gb),
        }
    )
    return Accelerator("deep-o", MacArray(1, 1), hierarchy)


def _three_level_mapping(b=4, k=4, c=8):
    """O: [C2] at Reg, [B4, C2] at O-LB, rest at GB."""
    layer = dense_layer(b, k, c)
    levels = {
        Operand.W: [[Loop(LoopDim.C, 2)],
                    [Loop(LoopDim.B, b), Loop(LoopDim.C, 2), Loop(LoopDim.K, k), Loop(LoopDim.C, 2)]],
        Operand.I: [[Loop(LoopDim.C, 2)],
                    [Loop(LoopDim.B, b), Loop(LoopDim.C, 2), Loop(LoopDim.K, k), Loop(LoopDim.C, 2)]],
        Operand.O: [[Loop(LoopDim.C, 2)],
                    [Loop(LoopDim.B, b), Loop(LoopDim.C, 2)],
                    [Loop(LoopDim.K, k), Loop(LoopDim.C, 2)]],
    }
    return make_mapping(layer, {}, levels)


def test_flush_traffic_at_both_interfaces():
    acc = deep_output_machine()
    mapping = _three_level_mapping()
    dtls = build_dtls(acc, mapping, ModelOptions(compute_edges=False))
    flushes = {
        d.transfer.served_memory
        for d in dtls
        if d.transfer.kind is TrafficKind.FLUSH
    }
    # Both the Reg->O-LB and O-LB->GB interfaces carry flushes.
    assert flushes == {"O-Reg", "O-LB"}


def test_readback_levels_follow_reduction_split():
    acc = deep_output_machine()
    mapping = _three_level_mapping()
    dtls = build_dtls(acc, mapping, ModelOptions(compute_edges=False))
    readbacks = {
        d.transfer.served_memory
        for d in dtls
        if d.transfer.kind is TrafficKind.PSUM_READBACK
    }
    # C2 above the O-Reg level (inside O-LB's span) -> Reg psums return
    # from the O-LB; C2 above the O-LB level -> O-LB psums return from GB.
    assert readbacks == {"O-Reg", "O-LB"}


def test_levels_see_partial_precision_until_complete():
    from repro.workload.layer import Precision

    layer = dense_layer(4, 4, 8, precision=Precision(o_final=16, o_partial=32))
    levels = {
        Operand.W: [[Loop(LoopDim.C, 2)],
                    [Loop(LoopDim.B, 4), Loop(LoopDim.C, 2), Loop(LoopDim.K, 4), Loop(LoopDim.C, 2)]],
        Operand.I: [[Loop(LoopDim.C, 2)],
                    [Loop(LoopDim.B, 4), Loop(LoopDim.C, 2), Loop(LoopDim.K, 4), Loop(LoopDim.C, 2)]],
        Operand.O: [[Loop(LoopDim.C, 2)],
                    [Loop(LoopDim.B, 4), Loop(LoopDim.C, 2)],
                    [Loop(LoopDim.K, 4), Loop(LoopDim.C, 2)]],
    }
    mapping = make_mapping(layer, {}, levels)
    # Reg tile: 1 output (C is reuse), still accumulating -> psum width.
    assert mapping.footprint_bits(Operand.O, 0) == 1 * 32
    # O-LB tile: 4 outputs, C2 still above -> psum width.
    assert mapping.footprint_bits(Operand.O, 1) == 4 * 32
    # GB tile: all reduction inside -> final width.
    assert mapping.footprint_bits(Operand.O, 2) == 16 * 16


def test_model_evaluates_three_level_chain():
    acc = deep_output_machine()
    mapping = _three_level_mapping()
    report = LatencyModel(acc).evaluate(mapping)
    assert report.total_cycles >= mapping.spatial_cycles


def test_simulator_agreement_three_levels():
    acc = deep_output_machine()
    mapping = _three_level_mapping()
    report = LatencyModel(acc).evaluate(mapping)
    sim = CycleSimulator(acc, mapping).run()
    assert accuracy(report.total_cycles, sim.total_cycles) > 0.8


def test_starving_intermediate_level_stalls():
    fast = deep_output_machine(olb_bw=96.0)
    slow = deep_output_machine(olb_bw=2.0)
    mapping = _three_level_mapping()
    fast_cc = LatencyModel(fast).evaluate(mapping).total_cycles
    slow_cc = LatencyModel(slow).evaluate(mapping).total_cycles
    assert slow_cc > fast_cc


def test_mapper_allocates_three_level_output_chain():
    from repro.dse.mapper import MapperConfig, TemporalMapper

    acc = deep_output_machine()
    mapper = TemporalMapper(acc, {}, MapperConfig(max_enumerated=80, samples=60))
    best = mapper.best_mapping(dense_layer(4, 4, 16))
    assert best.mapping.temporal.num_levels(Operand.O) == 3
    assert best.report.total_cycles > 0
