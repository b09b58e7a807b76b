"""Engine internals: stream columns and port fairness."""

import pytest

from repro.mapping.loop import Loop
from repro.simulator.engine import CycleSimulator, _Columns
from repro.simulator.streams import JobStream, TransferJob
from repro.simulator.trace import TraceRecorder
from repro.workload.dims import LoopDim
from repro.workload.generator import dense_layer
from repro.workload.operand import Operand

from tests.conftest import make_mapping, toy_accelerator


def _stream(n_jobs=3):
    jobs = [
        TransferJob("s", k, gate_c=float(k), threshold_c=float(k + 1), bits=8.0)
        for k in range(n_jobs)
    ]
    return JobStream(
        name="s", kind="refill", operand=Operand.W, level=0,
        period=1, x_req=1.0, ports=(("GB", "rd"),), jobs=jobs,
    )


def test_stream_state_cursor():
    """The engine's flat per-stream columns: cursor ``k`` of stream ``i``
    reads job ``k``'s gate, threshold, per-port bits and dependency."""
    up = _stream()
    down = JobStream(
        name="d", kind="refill", operand=Operand.I, level=0, period=1,
        x_req=1.0, ports=(("GB", "rd"), ("I-Reg", "wr")),
        jobs=[
            TransferJob("d", k, gate_c=float(k), threshold_c=float(k + 1),
                        bits=4.0, dep=("s", 2 * k),
                        bits_per_port={("GB", "rd"): 16.0})
            for k in range(2)
        ],
    )
    cols = _Columns([up, down])
    assert cols.port_keys == [("GB", "rd"), ("I-Reg", "wr")]
    assert cols.length == [3, 2]
    assert cols.gates[0] == [0.0, 1.0, 2.0]
    assert cols.thresholds[1] == [1.0, 2.0]
    assert cols.pids == [(0,), (0, 1)]
    assert cols.bits[0][2] == (8.0,)
    assert cols.bits[1][1] == (16.0, 4.0)
    assert cols.dep_up == [-1, 0]
    assert cols.dep_seq == [[-1, -1, -1], [0, 2]]


def test_stream_total_bits():
    assert _stream(4).total_bits == 32.0


def test_port_fairness_under_contention():
    """Two equal streams on one port: the simulator splits bandwidth, so
    their traced transfer times are (nearly) equal."""
    acc = toy_accelerator(reg_bits=8, o_reg_bits=24 * 8, gb_read_bw=4, gb_write_bw=64)
    layer = dense_layer(8, 4, 4)
    levels = {
        # W and I both stream every cycle from the shared GB rd port.
        Operand.W: [[], [Loop(LoopDim.C, 4), Loop(LoopDim.B, 8), Loop(LoopDim.K, 4)]],
        Operand.I: [[], [Loop(LoopDim.C, 4), Loop(LoopDim.B, 8), Loop(LoopDim.K, 4)]],
        Operand.O: [[Loop(LoopDim.C, 4)], [Loop(LoopDim.B, 8), Loop(LoopDim.K, 4)]],
    }
    mapping = make_mapping(layer, {}, levels)
    trace = TraceRecorder()
    CycleSimulator(acc, mapping, trace=trace).run()
    by_stream = {}
    for job in trace.jobs:
        by_stream.setdefault(job.stream, []).append(job.duration)
    w = by_stream.get("W-refill-L0", [])
    i = by_stream.get("I-refill-L0", [])
    assert w and i
    mean_w = sum(w) / len(w)
    mean_i = sum(i) / len(i)
    assert mean_w == pytest.approx(mean_i, rel=0.25)


def test_max_events_guard_message():
    acc = toy_accelerator(reg_bits=8, o_reg_bits=24 * 8)
    layer = dense_layer(8, 4, 4)
    levels = {
        Operand.W: [[Loop(LoopDim.B, 8)], [Loop(LoopDim.C, 4), Loop(LoopDim.K, 4)]],
        Operand.I: [[], [Loop(LoopDim.B, 8), Loop(LoopDim.C, 4), Loop(LoopDim.K, 4)]],
        Operand.O: [[Loop(LoopDim.B, 8), Loop(LoopDim.C, 4)], [Loop(LoopDim.K, 4)]],
    }
    mapping = make_mapping(layer, {}, levels)
    with pytest.raises(RuntimeError) as excinfo:
        CycleSimulator(acc, mapping, max_events=2).run()
    assert "exceeded" in str(excinfo.value)
    assert "jobs done" in str(excinfo.value)
