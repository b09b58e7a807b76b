"""E2 — Table I: ReqBW determined by memory type and top temporal loop.

=================  ==========  ==============================
memory type        top loop    ReqBW
=================  ==========  ==============================
double-buffered    r or ir     BW0  (mapper sees A/2)
non-DB dual-port   r           BW0
non-DB dual-port   ir          BW0 x top-ir loop size
=================  ==========  ==============================
"""

import pytest

from repro.core.dtl import TrafficKind
from repro.core.step1 import ModelOptions, build_dtls
from repro.mapping.mapping import Mapping
from repro.mapping.spatial import SpatialMapping
from repro.mapping.temporal import TemporalMapping, loops_from_pairs
from repro.workload.generator import dense_layer
from repro.workload.operand import Operand

from repro.testing import toy_accelerator


def _w_refill(acc, loops, cuts_w):
    layer = dense_layer(8, 4, 4)
    tm = TemporalMapping(
        loops_from_pairs(loops),
        {Operand.W: cuts_w, Operand.I: (0,), Operand.O: (0,)},
    )
    mapping = Mapping(layer, SpatialMapping({}), tm)
    dtls = build_dtls(acc, mapping, ModelOptions(compute_edges=False))
    return [
        d for d in dtls
        if d.transfer.operand is Operand.W and d.transfer.kind is TrafficKind.REFILL
    ][0].transfer


# W level 0 = [C4] with K4 (r) directly above -> the r-top rows.
_R_TOP = ([("C", 4), ("K", 4), ("B", 8)], (1,))
# W level 0 = [K4] with B8 ir directly above -> ir-top rows (top-ir = 8).
_IR_TOP = ([("K", 4), ("B", 8), ("C", 4)], (1,))


def test_row_db_r_top():
    acc = toy_accelerator(reg_bits=64, o_reg_bits=24 * 8, reg_double_buffered=True)
    t = _w_refill(acc, *_R_TOP)
    assert t.req_bw == pytest.approx(t.bw0)
    # Mapper-seen capacity is half the physical (checked on the instance).
    w_reg = acc.memory_by_name("W-Reg").instance
    assert w_reg.mapper_visible_bits == w_reg.size_bits // 2


def test_row_db_ir_top():
    acc = toy_accelerator(reg_bits=64, o_reg_bits=24 * 8, reg_double_buffered=True)
    t = _w_refill(acc, *_IR_TOP)
    assert t.req_bw == pytest.approx(t.bw0)  # DB never scales


def test_row_nondb_r_top():
    acc = toy_accelerator(reg_bits=32, o_reg_bits=24 * 8)
    t = _w_refill(acc, *_R_TOP)
    assert t.req_bw == pytest.approx(t.bw0)
    assert t.x_req == pytest.approx(t.period)


def test_row_nondb_ir_top_scales_by_top_ir():
    acc = toy_accelerator(reg_bits=32, o_reg_bits=24 * 8)
    t = _w_refill(acc, *_IR_TOP)
    assert t.req_bw == pytest.approx(t.bw0 * 8)
    assert t.x_req == pytest.approx(t.period / 8)


def test_multiple_consecutive_ir_loops_multiply():
    """'This minimum BW requirement needs to be scaled up by ALL top ir
    loop sizes.'"""
    acc = toy_accelerator(reg_bits=32, o_reg_bits=24 * 8)
    layer = dense_layer(8, 4, 4)
    tm = TemporalMapping(
        loops_from_pairs([("K", 4), ("B", 2), ("B", 4), ("C", 4)]),
        {Operand.W: (1,), Operand.I: (0,), Operand.O: (0,)},
    )
    mapping = Mapping(layer, SpatialMapping({}), tm)
    t = [
        d for d in build_dtls(acc, mapping, ModelOptions(compute_edges=False))
        if d.transfer.operand is Operand.W and d.transfer.kind is TrafficKind.REFILL
    ][0].transfer
    assert t.req_bw == pytest.approx(t.bw0 * 8)  # B2 x B4


def test_table_printout():
    rows = []
    for db in (True, False):
        acc = toy_accelerator(
            reg_bits=64 if db else 32, o_reg_bits=24 * 8, reg_double_buffered=db
        )
        for label, args in (("r", _R_TOP), ("ir", _IR_TOP)):
            t = _w_refill(acc, *args)
            rows.append((
                "DB" if db else "non-DB", label, t.bw0, t.req_bw, t.req_bw / t.bw0
            ))
    print("\nTable I reproduction (memtype, top-loop, BW0, ReqBW, ratio):")
    for row in rows:
        print(f"  {row[0]:7s} {row[1]:3s} BW0={row[2]:.3f} ReqBW={row[3]:.3f} x{row[4]:.0f}")
    ratios = {(r[0], r[1]): r[4] for r in rows}
    assert ratios[("DB", "r")] == ratios[("DB", "ir")] == 1
    assert ratios[("non-DB", "r")] == 1
    assert ratios[("non-DB", "ir")] == 8


def test_bench_dtl_construction(benchmark, case_preset, case1_layer):
    """Benchmark: Step-1 DTL construction for a real mapping."""
    from benchmarks.conftest import make_mapper

    mapping = next(make_mapper(case_preset, 20, 20).mappings(case1_layer))
    result = benchmark(
        build_dtls, case_preset.accelerator, mapping, ModelOptions()
    )
    assert result
