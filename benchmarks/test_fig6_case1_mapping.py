"""E6 — Fig. 6 / Case study 1: mapping vs. latency.

The paper compares two mappings of one Dense layer (CC_ideal = 38 400 on
the 16x16-MAC machine) that a BW-unaware model cannot tell apart:

* **Mapping B** — full output-stationary dataflow: all of O's reuse (C)
  loops at the O-Reg level, only final outputs travel to the GB;
* **Mapping A** — input-reuse-first: K loops at the I-LB level, part of
  the C reuse pushed to the GB level, so partial sums round-trip.

We rebuild both (same layer, same spatial unrolling, identical W
distribution up to capacity cuts) and reproduce the shape claims: equal
``CC_ideal``, a large latency/utilization gap only the temporal-stall-aware
model reveals, the Fig. 6(f) ReqBW-vs-RealBW table (3 072 vs 128 b/cycle on
the GB write port), and the partial-sum traffic anatomy.

Shape note (recorded in EXPERIMENTS.md): with our instantiation of the
unpublished layer/buffer details the *winner flips* — the psum-bearing
mapping A is faster here because full output stationarity forces W/I
re-reads through the same starved GB read port — but every mechanism the
paper uses to explain the gap (psum round trips, GB port saturation,
identical ideal latency) is reproduced and verified against the simulator.
"""

import pytest

from repro.core.baseline import BwUnawareModel
from repro.core.dtl import TrafficKind
from repro.core.model import LatencyModel
from repro.energy.energy_model import EnergyModel
from repro.mapping.mapping import Mapping
from repro.simulator.engine import CycleSimulator
from repro.simulator.result import accuracy
from repro.workload.dims import LoopDim
from repro.workload.operand import Operand

from benchmarks.conftest import make_mapper


def _build(mapper, layer, order):
    order = tuple((LoopDim(d), f) for d, f in order)
    return Mapping(layer, mapper.spatial, mapper.allocate(layer, order))


@pytest.fixture(scope="module")
def mappings(case_preset, case1_layer):
    mapper = make_mapper(case_preset)
    # B: all C innermost -> full output stationarity at O-Reg.
    mapping_b = _build(mapper, case1_layer, [
        ("C", 2), ("C", 2), ("C", 2), ("C", 3), ("C", 5), ("C", 5),
        ("K", 2), ("K", 2), ("K", 2), ("B", 2), ("B", 2), ("B", 2),
    ])
    # A: C split (C5 pushed outward), K block right above the inner C chunk
    # so the I-LB holds inputs across all K iterations.
    mapping_a = _build(mapper, case1_layer, [
        ("C", 2), ("C", 2), ("C", 2), ("C", 3), ("C", 5),
        ("K", 2), ("K", 2), ("K", 2), ("B", 2), ("B", 2), ("B", 2), ("C", 5),
    ])
    return mapping_a, mapping_b


@pytest.fixture(scope="module")
def reports(case_preset, mappings):
    model = LatencyModel(case_preset.accelerator)
    energy = EnergyModel(case_preset.accelerator)
    rows = {}
    for name, mapping in zip("AB", mappings):
        rows[name] = {
            "mapping": mapping,
            "report": model.evaluate(mapping),
            "energy": energy.evaluate(mapping),
            "sim": CycleSimulator(case_preset.accelerator, mapping).run(),
        }
    return rows


def test_identical_ideal_latency(reports):
    """Fig. 6(c)(d): both mappings share CC_ideal = 38 400 cycles."""
    assert reports["A"]["report"].cc_ideal == pytest.approx(38400)
    assert reports["B"]["report"].cc_ideal == pytest.approx(38400)
    assert reports["A"]["report"].cc_spatial == reports["B"]["report"].cc_spatial


def test_bw_unaware_model_cannot_distinguish(case_preset, mappings):
    unaware = BwUnawareModel(case_preset.accelerator, include_loading=False)
    a = unaware.evaluate(mappings[0]).total_cycles
    b = unaware.evaluate(mappings[1]).total_cycles
    assert a == pytest.approx(b)


def test_latency_gap_despite_equal_ideal(reports):
    """The stall-aware model separates the mappings by >= 15 %.

    (The paper reports 30 % for its instantiation; ours measures 17-31 %
    depending on the chain-bound convention — the simulator puts the true
    gap at 24 %.)"""
    a = reports["A"]["report"].total_cycles
    b = reports["B"]["report"].total_cycles
    gap = abs(a - b) / max(a, b)
    assert gap > 0.15
    sim_gap = abs(
        reports["A"]["sim"].total_cycles - reports["B"]["sim"].total_cycles
    ) / max(reports["A"]["sim"].total_cycles, reports["B"]["sim"].total_cycles)
    assert sim_gap > 0.20
    # Utilization gap follows (paper: 26 % relative).
    ua = reports["A"]["report"].utilization
    ub = reports["B"]["report"].utilization
    assert abs(ua - ub) / min(ua, ub) > 0.2


def test_fig6f_reqbw_table(reports):
    """GB write: ReqBW 3072 vs RealBW 128 b/cycle (the paper's numbers)."""
    report = reports["B"]["report"]
    gb_wr = report.port_combinations[("GB", "wr")]
    assert gb_wr.req_bw_comb == pytest.approx(3072)
    real_bw = max(d.real_bw for d in gb_wr.dtls if d.memory == "GB")
    assert real_bw == pytest.approx(128)


def test_psum_traffic_anatomy(reports):
    """Mapping A has partial-sum round trips; B flushes final outputs only."""
    def psum_bits(report):
        return sum(
            d.transfer.data_bits * d.transfer.repeats
            for d in report.dtls
            if d.transfer.kind is TrafficKind.PSUM_READBACK and d.memory == "GB"
        )

    assert psum_bits(reports["A"]["report"]) > 0
    assert psum_bits(reports["B"]["report"]) == 0


def test_model_matches_simulator_on_both(reports):
    """B matches tightly; A is conservatively over-predicted by the chain
    bound (its drain stalls partly hide under independent refill stalls),
    still inside the validation band."""
    for name in "AB":
        acc = accuracy(
            reports[name]["report"].total_cycles,
            reports[name]["sim"].total_cycles,
        )
        assert acc > 0.90, name
    assert accuracy(
        reports["B"]["report"].total_cycles, reports["B"]["sim"].total_cycles
    ) > 0.97


def test_case1_table_printout(reports):
    print("\nCase study 1 (Fig. 6) reproduction:")
    print(f"{'':10s} {'CC_ideal':>10s} {'total cc':>10s} {'util':>7s} "
          f"{'energy uJ':>10s} {'sim cc':>10s}")
    for name in "AB":
        r = reports[name]["report"]
        e = reports[name]["energy"]
        s = reports[name]["sim"]
        print(f"Mapping {name}: {r.cc_ideal:10.0f} {r.total_cycles:10.0f} "
              f"{r.utilization:7.1%} {e.total_pj / 1e6:10.3f} {s.total_cycles:10.0f}")
    a, b = reports["A"], reports["B"]
    faster = "A" if a["report"].total_cycles < b["report"].total_cycles else "B"
    slower = "B" if faster == "A" else "A"
    ratio = (reports[slower]["report"].total_cycles
             / reports[faster]["report"].total_cycles)
    print(f"Mapping {faster} is {ratio:.2f}x faster at identical CC_ideal "
          f"(paper: 1.43x for its instantiation).")
    for name in "AB":
        print(f"Mapping {name} O-chain: "
              f"{reports[name]['mapping'].temporal.describe(Operand.O)}")


def test_bench_case1_pair_evaluation(benchmark, case_preset, mappings):
    model = LatencyModel(case_preset.accelerator)

    def run():
        return (model.evaluate(mappings[0], validate=False).total_cycles,
                model.evaluate(mappings[1], validate=False).total_cycles)

    a, b = benchmark(run)
    assert a != b
