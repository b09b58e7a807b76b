"""E4 — Fig. 4: the worked Divide/Combine example.

The figure derives ``SS_comb`` of a local buffer's read port that feeds
three non-double-buffered registers (W/I/O-Reg). We rebuild that machine —
one shared LB whose single read port serves all three operands' registers —
walk Step 1 (per-DTL ReqBW_u / MUW_u / SS_u without interference) and
Step 2 (Eq. (1) combination with interference), and print the intermediate
table the figure tabulates.
"""

import pytest

from repro.core.step1 import ModelOptions, build_dtls
from repro.core.step2 import combine_all_ports, served_memory_stalls
from repro.hardware.accelerator import Accelerator
from repro.hardware.hierarchy import MemoryHierarchy, auto_allocate
from repro.hardware.mac_array import MacArray
from repro.hardware.memory import MemoryInstance, dual_port
from repro.mapping.mapping import Mapping
from repro.mapping.spatial import SpatialMapping
from repro.mapping.temporal import TemporalMapping, loops_from_pairs
from repro.workload.generator import dense_layer
from repro.workload.operand import Operand


def _fig4_machine(lb_read_bw: float = 8.0) -> Accelerator:
    """W/I/O registers fed from ONE shared LB read port (as in Fig. 4)."""
    w_reg = auto_allocate(MemoryInstance("W-Reg", 8, dual_port(8, 8)), {Operand.W})
    i_reg = auto_allocate(MemoryInstance("I-Reg", 8, dual_port(8, 8)), {Operand.I})
    o_reg = auto_allocate(MemoryInstance("O-Reg", 24, dual_port(24, 24)), {Operand.O})
    lb = auto_allocate(
        MemoryInstance("LB", 64 * 1024, dual_port(lb_read_bw, lb_read_bw)),
        set(Operand),
    )
    hierarchy = MemoryHierarchy(
        {
            Operand.W: (w_reg, lb),
            Operand.I: (i_reg, lb),
            Operand.O: (o_reg, lb),
        }
    )
    return Accelerator("fig4", MacArray(1, 1), hierarchy)


def _fig4_mapping():
    """A register-level mapping giving each operand a distinct period.

    inner -> outer: C2 | B4 | K8. W-Reg holds one weight for C2 (r) cycles
    extended by B4 (ir) -> period 8 with keep-out; I-Reg holds one input
    reused across... and O-Reg accumulates over C2 with B4 relevant.
    """
    layer = dense_layer(4, 8, 2)
    tm = TemporalMapping(
        loops_from_pairs([("C", 2), ("B", 4), ("K", 8)]),
        {Operand.W: (1,), Operand.I: (0,), Operand.O: (2,)},
    )
    return Mapping(layer, SpatialMapping({}), tm)


def test_step1_divide_attributes():
    acc = _fig4_machine()
    mapping = _fig4_mapping()
    dtls = build_dtls(acc, mapping, ModelOptions(compute_edges=False))
    lb_read = [d for d in dtls if d.port_key == ("LB", "rd")]
    by_op = {d.transfer.operand: d for d in lb_read}
    # W: tile of 1 weight (C2 at reg... level 0 = [C2], ext B4): P = 8.
    assert by_op[Operand.W].transfer.period == 8
    # I: no reg loops, K8... I-Reg refreshed every cycle extended by nothing
    # (B is relevant): P = 1.
    assert by_op[Operand.I].transfer.period == 1
    assert by_op[Operand.I].x_req == pytest.approx(1.0)


def test_step2_combine_on_shared_port():
    acc = _fig4_machine(lb_read_bw=8.0)
    mapping = _fig4_mapping()
    dtls = build_dtls(acc, mapping, ModelOptions(compute_edges=False))
    ports = combine_all_ports(dtls, float(mapping.spatial_cycles))
    combo = ports[("LB", "rd")]
    # The shared port carries W and I refills (O psums would use the write
    # port; with full accumulation below K there are only final flushes).
    assert {d.transfer.operand for d in combo.dtls} >= {Operand.W, Operand.I}
    assert combo.req_bw_comb == pytest.approx(
        sum(d.req_bw for d in combo.dtls)
    )
    # Interference: the combined stall exceeds every individual stall.
    assert combo.ss_comb >= max(d.ss_u for d in combo.dtls) - 1e-9


def test_divide_then_combine_printout():
    acc = _fig4_machine(lb_read_bw=8.0)
    mapping = _fig4_mapping()
    dtls = build_dtls(acc, mapping, ModelOptions(compute_edges=False))
    horizon = float(mapping.spatial_cycles)
    ports = combine_all_ports(dtls, horizon)
    print("\nFig. 4 Step 1 (Divide) — per-DTL attributes:")
    for d in dtls:
        if d.memory == "LB":
            t = d.transfer
            print(
                f"  {t.operand}-{t.kind.value:7s} Mem_DATA={t.data_bits:5.0f}b "
                f"Mem_CC={t.period:4.0f} Z={t.repeats:4d} ReqBW={t.req_bw:6.2f} "
                f"MUW_u={d.muw_u:7.1f} SS_u={d.ss_u:+8.1f}"
            )
    combo = ports[("LB", "rd")]
    print("Fig. 4 Step 2 (Combine) — LB read port:")
    print(f"  ReqBW_comb={combo.req_bw_comb:.2f} MUW_comb={combo.muw_comb:.1f} "
          f"SS_comb={combo.ss_comb:+.1f}")
    served = served_memory_stalls(dtls, ports)
    for s in served:
        print(f"  served {s.describe()}")
    assert combo.muw_comb <= horizon


def test_interference_grows_with_contention():
    """Starving the shared port turns individual slack into combined stall."""
    mapping = _fig4_mapping()
    horizon = float(mapping.spatial_cycles)
    lenient = combine_all_ports(
        build_dtls(_fig4_machine(64.0), mapping, ModelOptions(compute_edges=False)),
        horizon,
    )[("LB", "rd")]
    starved = combine_all_ports(
        build_dtls(_fig4_machine(2.0), mapping, ModelOptions(compute_edges=False)),
        horizon,
    )[("LB", "rd")]
    assert starved.ss_comb > lenient.ss_comb


def test_bench_step2_combination(benchmark):
    acc = _fig4_machine()
    mapping = _fig4_mapping()
    dtls = build_dtls(acc, mapping, ModelOptions(compute_edges=False))
    result = benchmark(combine_all_ports, dtls, float(mapping.spatial_cycles))
    assert ("LB", "rd") in result
