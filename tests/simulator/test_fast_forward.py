"""Fast-forward over the simulator's steady state equals stepping every event.

A run with a :class:`TraceRecorder` attached steps every event, so it is
the oracle: the untraced run, which jumps over exact recurrences of its
own state, must return a bit-identical :class:`SimulationResult` (every
field, including the ``port_busy`` dict and the ``events`` count).
"""

import pathlib

import pytest

from repro.dse.mapper import MapperConfig, TemporalMapper
from repro.hardware.presets import inhouse_accelerator
from repro.mapping.loop import Loop
from repro.observability import Tracer, use_telemetry
from repro.simulator.engine import CycleSimulator
from repro.simulator.trace import TraceRecorder
from repro.verify.corpus import load_corpus
from repro.verify.generators import sample_cases
from repro.workload.dims import LoopDim
from repro.workload.generator import dense_layer
from repro.workload.im2col import im2col
from repro.workload.networks import validation_layers
from repro.workload.operand import Operand

from tests.conftest import make_mapping, toy_accelerator

CORPUS = pathlib.Path(__file__).parent.parent / "verify" / "corpus"
FIG5_MAX_MACS = 1_000_000
E5_CONFIG = MapperConfig(max_enumerated=200, samples=150, seed=0)


def _stepping(accelerator, mapping, **kwargs):
    return CycleSimulator(accelerator, mapping, trace=TraceRecorder(), **kwargs).run()


def _fast(accelerator, mapping):
    """The untraced result and the ``simulator.run`` span's attributes."""
    tracer = Tracer()
    with use_telemetry(tracer=tracer):
        result = CycleSimulator(accelerator, mapping).run()
    spans = [r for r in tracer.records if r.name == "simulator.run"]
    return result, spans[0].attributes


@pytest.fixture(scope="module")
def fig5_layers():
    """The Fig. 5 layers of at most 1 M MACs, lowered and mapped as in E5."""
    preset = inhouse_accelerator()
    out = {}
    for layer in validation_layers():
        if layer.total_macs <= FIG5_MAX_MACS:
            mapper = TemporalMapper(
                preset.accelerator, preset.spatial_unrolling, E5_CONFIG
            )
            out[layer.name] = mapper.best_mapping(im2col(layer)).mapping
    return preset.accelerator, out


@pytest.mark.parametrize(
    "case",
    sample_cases(seed=0, count=100) + sample_cases(seed=1, count=100),
    ids=lambda c: c.case_id,
)
def test_generated_cases_match_stepping(case):
    fast, __ = _fast(case.accelerator, case.mapping)
    assert fast == _stepping(case.accelerator, case.mapping)


@pytest.mark.parametrize(
    "entry", load_corpus(CORPUS), ids=lambda e: e.path.name
)
def test_corpus_cases_match_stepping(entry):
    case = entry.case
    fast, __ = _fast(case.accelerator, case.mapping)
    assert fast == _stepping(case.accelerator, case.mapping)


def test_fig5_layers_match_stepping_and_skip_most_events(fig5_layers):
    accelerator, mappings = fig5_layers
    assert len(mappings) == 4
    events = stepped = 0
    for name, mapping in mappings.items():
        fast, span = _fast(accelerator, mapping)
        assert fast == _stepping(accelerator, mapping), name
        assert span["events"] == fast.events
        events += fast.events
        stepped += span["stepped_events"]
    assert stepped < events / 2


def test_fig5_layer_reports_stepped_events(fig5_layers):
    accelerator, mappings = fig5_layers
    fast, span = _fast(accelerator, mappings["dw6"])
    assert span["stepped_events"] < fast.events / 4


def _shared_port_case(gb_read_bw):
    """W refill, I refill and O read-back all draw on the GB read port."""
    layer = dense_layer(8, 8, 4)
    nest = [Loop(LoopDim.K, 8), Loop(LoopDim.C, 4)]
    levels = {
        Operand.W: [[Loop(LoopDim.B, 8)], nest],
        Operand.I: [[], [Loop(LoopDim.B, 8)] + nest],
        Operand.O: [[Loop(LoopDim.B, 8)], nest],
    }
    accelerator = toy_accelerator(
        reg_bits=8, o_reg_bits=24 * 8, gb_read_bw=gb_read_bw
    )
    return accelerator, make_mapping(layer, {}, levels)


def test_off_grid_rates_refuse_the_jump():
    """At 48 bits/cycle the shares (48/2, 48/3) give off-grid time steps:
    replaying a period would round differently from stepping it, so the
    engine steps every event. At 64 bits/cycle the same schedule jumps."""
    accelerator, mapping = _shared_port_case(48.0)
    fast, span = _fast(accelerator, mapping)
    assert fast == _stepping(accelerator, mapping)
    assert span["stepped_events"] == fast.events

    accelerator, mapping = _shared_port_case(64.0)
    fast, span = _fast(accelerator, mapping)
    assert fast == _stepping(accelerator, mapping)
    assert span["stepped_events"] < fast.events


def test_max_events_guard_fires_at_the_same_event(fig5_layers):
    accelerator, mappings = fig5_layers
    mapping = mappings["dw6"]
    events = _stepping(accelerator, mapping).events
    for max_events in (events - 1, events // 2, 100):
        with pytest.raises(RuntimeError) as stepped:
            _stepping(accelerator, mapping, max_events=max_events)
        with pytest.raises(RuntimeError) as fast:
            CycleSimulator(accelerator, mapping, max_events=max_events).run()
        assert str(fast.value) == str(stepped.value)
    result = CycleSimulator(accelerator, mapping, max_events=events).run()
    assert result == _stepping(accelerator, mapping)


def test_idle_stream_bounds_the_jump(monkeypatch):
    """A stream that makes no progress over the recurring period keeps its
    gate where it is: the jump must stop before the compute clock reaches
    it, or the stream would start late."""
    from repro.simulator import engine
    from repro.simulator.streams import JobStream

    accelerator = toy_accelerator(reg_bw=128.0, gb_read_bw=16.0)
    mapping = make_mapping(
        dense_layer(10, 10, 10), {},
        {op: [[], [Loop(LoopDim.B, 10), Loop(LoopDim.K, 10), Loop(LoopDim.C, 10)]]
         for op in Operand},
    )
    assert mapping.temporal.total_cycles == 1000
    gb, w_reg, i_reg = ("GB", "rd"), ("W-Reg", "wr"), ("I-Reg", "wr")

    def streams(accelerator, mapping):
        inner = JobStream(
            "inner", "refill", Operand.W, 0, 10, 10.0, (gb, w_reg),
            gates=[float(10 * k - 10) if k else float("-inf") for k in range(100)],
            thresholds=[float(10 * k) for k in range(100)],
            bits=[64.0] * 100, port_bits=[(64.0, 64.0)] * 100,
        )
        outer = JobStream(
            "outer", "refill", Operand.I, 0, 1000, 400.0, (gb, i_reg),
            gates=[600.0], thresholds=[1000.0],
            bits=[4096.0], port_bits=[(4096.0, 4096.0)],
        )
        return [inner, outer]

    monkeypatch.setattr(engine, "build_streams", streams)
    fast, span = _fast(accelerator, mapping)
    assert fast == _stepping(accelerator, mapping)
    assert span["stepped_events"] < fast.events
