"""Engine internals: reading stream columns and port fairness."""

import pytest

from repro.mapping.loop import Loop
from repro.simulator import engine
from repro.simulator.engine import CycleSimulator
from repro.simulator.streams import JobStream
from repro.simulator.trace import TraceRecorder
from repro.workload.dims import LoopDim
from repro.workload.generator import dense_layer
from repro.workload.operand import Operand

from tests.conftest import make_mapping, toy_accelerator


def _stream(n_jobs=3):
    return JobStream(
        name="s", kind="refill", operand=Operand.W, level=0,
        period=1, x_req=1.0, ports=(("GB", "rd"),),
        gates=[float(k) for k in range(n_jobs)],
        thresholds=[float(k + 1) for k in range(n_jobs)],
        bits=[8.0] * n_jobs, port_bits=[(8.0,)] * n_jobs,
    )


def test_stream_state_cursor(monkeypatch):
    """Cursor ``k`` of stream ``i`` reads job ``k``'s gate, threshold,
    per-port bits and dependency: each job moves its physical bits on its
    own ports, is traced with its logical bits, and starts only after the
    upstream job it waits on."""
    up = _stream()
    down = JobStream(
        name="d", kind="refill", operand=Operand.I, level=0, period=1,
        x_req=1.0, ports=(("GB", "rd"), ("I-Reg", "wr")),
        gates=[0.0, 1.0], thresholds=[1.0, 2.0], bits=[4.0, 4.0],
        port_bits=[(16.0, 4.0)] * 2, upstream="s", dep_seq=[0, 2],
    )
    monkeypatch.setattr(engine, "build_streams", lambda acc, mapping: [up, down])
    mapping = make_mapping(
        dense_layer(2, 2, 2), {},
        {op: [[], [Loop(LoopDim.B, 2), Loop(LoopDim.K, 2), Loop(LoopDim.C, 2)]]
         for op in Operand},
    )
    trace = TraceRecorder()
    result = CycleSimulator(toy_accelerator(), mapping, trace=trace).run()
    assert result.jobs_completed == 5
    assert result.port_busy == {("GB", "rd"): 3 * 8.0 + 2 * 16.0, ("I-Reg", "wr"): 2 * 4.0}
    jobs = {(job.stream, job.seq): job for job in trace.jobs}
    assert [jobs["d", k].bits for k in range(2)] == [4.0, 4.0]
    assert jobs["d", 0].start >= jobs["s", 0].end
    assert jobs["d", 1].start >= jobs["s", 2].end
    assert jobs["s", 2].start >= 2.0          # gated until c reaches 2


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
