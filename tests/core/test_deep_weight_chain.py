"""Four-level weight hierarchies (Reg -> LB0 -> LB1 -> GB).

Exercises refill DTLs at three interfaces and the simulator's multi-hop
dependency chain (a register tile needs its LB0 tile, which needs LB1,
which needs the GB)."""

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


def deep_weight_machine(gb_bw: float = 16.0) -> Accelerator:
    w_reg = auto_allocate(MemoryInstance("W-Reg", 8 * 2, dual_port(16, 16)), {Operand.W})
    w_lb0 = auto_allocate(MemoryInstance("W-LB0", 8 * 16, dual_port(16, 16)), {Operand.W})
    w_lb1 = auto_allocate(MemoryInstance("W-LB1", 8 * 128, dual_port(16, 16)), {Operand.W})
    i_reg = auto_allocate(MemoryInstance("I-Reg", 8 * 4, dual_port(16, 16)), {Operand.I})
    o_reg = auto_allocate(MemoryInstance("O-Reg", 24 * 8, dual_port(48, 48)), {Operand.O})
    gb = auto_allocate(
        MemoryInstance("GB", 8 * 2 ** 20, dual_port(gb_bw, gb_bw)), set(Operand)
    )
    hierarchy = MemoryHierarchy(
        {
            Operand.W: (w_reg, w_lb0, w_lb1, gb),
            Operand.I: (i_reg, gb),
            Operand.O: (o_reg, gb),
        }
    )
    return Accelerator("deep-w", MacArray(1, 1), hierarchy)


def _mapping(b=4, k=16, c=8):
    """W levels: Reg [C2], LB0 [K2... ], LB1 [...], GB rest."""
    layer = dense_layer(b, k, c)
    levels = {
        Operand.W: [[Loop(LoopDim.C, 2)],
                    [Loop(LoopDim.C, 2), Loop(LoopDim.K, 2)],
                    [Loop(LoopDim.C, 2), Loop(LoopDim.K, 2)],
                    [Loop(LoopDim.B, b), Loop(LoopDim.K, 4)]],
        Operand.I: [[Loop(LoopDim.C, 2)],
                    [Loop(LoopDim.C, 2), Loop(LoopDim.K, 2), Loop(LoopDim.C, 2),
                     Loop(LoopDim.K, 2), Loop(LoopDim.B, b), Loop(LoopDim.K, 4)]],
        Operand.O: [[Loop(LoopDim.C, 2), Loop(LoopDim.C, 2)],
                    [Loop(LoopDim.K, 2), Loop(LoopDim.C, 2), Loop(LoopDim.K, 2),
                     Loop(LoopDim.B, b), Loop(LoopDim.K, 4)]],
    }
    return make_mapping(layer, {}, levels)


def test_three_refill_interfaces():
    acc = deep_weight_machine()
    dtls = build_dtls(acc, _mapping(), ModelOptions(compute_edges=False))
    w_interfaces = {
        (d.transfer.src_memory, d.transfer.dst_memory)
        for d in dtls
        if d.transfer.operand is Operand.W and d.transfer.kind is TrafficKind.REFILL
    }
    assert w_interfaces == {
        ("W-LB0", "W-Reg"), ("W-LB1", "W-LB0"), ("GB", "W-LB1"),
    }


def test_periods_nest_upward():
    acc = deep_weight_machine()
    dtls = build_dtls(acc, _mapping(), ModelOptions(compute_edges=False))
    periods = {
        d.transfer.dst_memory: d.transfer.period
        for d in dtls
        if d.transfer.operand is Operand.W and d.transfer.kind is TrafficKind.REFILL
    }
    assert periods["W-Reg"] < periods["W-LB0"] < periods["W-LB1"]
    assert periods["W-LB0"] % periods["W-Reg"] == 0
    assert periods["W-LB1"] % periods["W-LB0"] == 0


def test_model_and_simulator_agree_on_deep_chain():
    acc = deep_weight_machine()
    # Larger batch so steady state dominates the period-boundary effects.
    mapping = _mapping(b=32)
    report = LatencyModel(acc).evaluate(mapping, validate=False)
    sim = CycleSimulator(acc, mapping).run()
    assert accuracy(report.total_cycles, sim.total_cycles) > 0.8


def test_simulator_dependency_chain_depth():
    from repro.simulator.streams import build_streams

    acc = deep_weight_machine()
    streams = build_streams(acc, _mapping())
    reg_stream = next(s for s in streams if s.name == "W-refill-L0")
    lb0_stream = next(s for s in streams if s.name == "W-refill-L1")
    assert all(j.dep is not None and j.dep[0] == "W-refill-L1" for j in reg_stream.jobs)
    assert all(j.dep is not None and j.dep[0] == "W-refill-L2" for j in lb0_stream.jobs)


def test_starved_top_level_backpressures_whole_chain():
    mapping = _mapping()
    fast = LatencyModel(deep_weight_machine(gb_bw=64.0)).evaluate(mapping, validate=False)
    slow = LatencyModel(deep_weight_machine(gb_bw=1.0)).evaluate(mapping, validate=False)
    assert slow.total_cycles > fast.total_cycles
    sim_slow = CycleSimulator(deep_weight_machine(gb_bw=1.0), mapping).run()
    assert sim_slow.total_cycles > fast.total_cycles
