"""Preset accelerators: the validation chip and the case-study machine.

Two concrete machines appear in the paper:

* **Validation chip** (Section IV): systolic-array accelerator in TSMC 7 nm,
  16x32 PE array with 2 MACs per PE (1024 MACs), one 24 b output register
  per PE, one 8 b weight and one 8 b input register per MAC, 32 KB weight
  local buffer with a 256 b bus, 64 KB input local buffer with a 512 b bus,
  and a 1 MB global buffer tiled from 16 64-KB SRAM macros.

* **Case-study machine** (Section V): a scale-down with 8x16 PE x 2 MACs
  ("16x16 MAC"), 16 KB W-LB, 8 KB I-LB, 1 MB GB with 128 bit/cycle
  read/write bandwidth, spatial unrolling ``K 16 | B 8 | C 2``.

Port widths not spelled out in the paper (register write buses, GB bus of
the validation chip) are set to the natural systolic values and documented
inline; EXPERIMENTS.md discusses their (small) influence.

Buffering choices follow Fig. 4: the per-MAC/PE registers are
non-double-buffered; the local buffers are double-buffered ping-pong
(standard for systolic designs and consistent with the case studies where
the GB port is the only stall source); the GB is a non-DB dual-port SRAM.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional, Tuple

from repro.hardware.accelerator import Accelerator, StallOverlapConfig
from repro.hardware.hierarchy import MemoryHierarchy, auto_allocate
from repro.hardware.mac_array import MacArray
from repro.hardware.memory import MemoryInstance, dual_port
from repro.workload.dims import LoopDim
from repro.workload.operand import Operand

BYTE = 8
KB = 1024 * BYTE


@dataclasses.dataclass(frozen=True)
class Preset:
    """An accelerator together with its native spatial unrolling."""

    accelerator: Accelerator
    spatial_unrolling: Dict[LoopDim, int]


def build_accelerator(
    name: str,
    macs_k: int,
    macs_b: int,
    macs_c: int,
    w_reg_bits: int = 8,
    i_reg_bits: int = 8,
    o_reg_bits: int = 24,
    w_lb_bits: int = 16 * KB,
    i_lb_bits: int = 8 * KB,
    gb_bits: int = 1024 * KB,
    gb_read_bw: float = 128.0,
    gb_write_bw: Optional[float] = None,
    w_lb_bus: Optional[float] = None,
    i_lb_bus: Optional[float] = None,
    lb_double_buffered: bool = True,
    reg_energy_pj_per_bit: float = 0.003,
    lb_energy_pj_per_bit: float = 0.015,
    gb_energy_pj_per_bit: float = 0.060,
    mac_energy_pj: float = 0.3,
) -> Preset:
    """Construct the paper's accelerator template at arbitrary scale.

    The machine is a weight/input-register systolic array: W and I each have
    a three-level chain Reg -> LB -> GB; outputs accumulate in per-PE
    registers and exchange (partial) sums directly with the GB (two-level
    chain), exactly like Fig. 2(b)'s right-hand column.

    ``macs_k / macs_b / macs_c`` give the spatial unrolling (K x B x C
    MACs); the PE count is ``K*B*C/2`` with 2 MACs per PE. Local-buffer
    buses default to one refill element per MAC lane per cycle (256 b for
    the 16x16 case-study array, matching the validation chip's W bus).
    """
    array_size = macs_k * macs_b * macs_c
    if array_size % 2:
        raise ValueError("array template uses 2 MACs per PE; K*B*C must be even")
    num_pes = array_size // 2
    mac_array = MacArray(rows=macs_k, cols=num_pes // macs_k, macs_per_pe=2,
                         mac_energy_pj=mac_energy_pj)

    gb_write_bw = gb_read_bw if gb_write_bw is None else gb_write_bw
    # Local-buffer buses default to one full spatial operand tile per cycle
    # (the array can swap its registers in a single cycle), so the GB link
    # is the only bandwidth-limited hop — matching the Section-V machine
    # where all temporal stalls are attributed to the GB ports.
    w_lb_bus = float(macs_k * macs_c * w_reg_bits) if w_lb_bus is None else w_lb_bus
    i_lb_bus = float(macs_b * macs_c * i_reg_bits) if i_lb_bus is None else i_lb_bus

    w_reg = MemoryInstance(
        "W-Reg", w_reg_bits, dual_port(read_bw=float(w_reg_bits), write_bw=float(w_reg_bits)),
        double_buffered=False, instances=array_size,
        read_energy_pj_per_bit=reg_energy_pj_per_bit,
        write_energy_pj_per_bit=reg_energy_pj_per_bit,
    )
    i_reg = MemoryInstance(
        "I-Reg", i_reg_bits, dual_port(read_bw=float(i_reg_bits), write_bw=float(i_reg_bits)),
        double_buffered=False, instances=array_size,
        read_energy_pj_per_bit=reg_energy_pj_per_bit,
        write_energy_pj_per_bit=reg_energy_pj_per_bit,
    )
    # One accumulator per (K, B) lane; the C-spatial MACs reduce into it.
    o_lanes = macs_k * macs_b
    o_reg = MemoryInstance(
        "O-Reg", o_reg_bits, dual_port(read_bw=float(o_reg_bits), write_bw=float(o_reg_bits)),
        double_buffered=False, instances=o_lanes,
        read_energy_pj_per_bit=reg_energy_pj_per_bit,
        write_energy_pj_per_bit=reg_energy_pj_per_bit,
    )
    w_lb = MemoryInstance(
        "W-LB", w_lb_bits, dual_port(read_bw=w_lb_bus, write_bw=w_lb_bus),
        double_buffered=lb_double_buffered,
        read_energy_pj_per_bit=lb_energy_pj_per_bit,
        write_energy_pj_per_bit=lb_energy_pj_per_bit,
    )
    i_lb = MemoryInstance(
        "I-LB", i_lb_bits, dual_port(read_bw=i_lb_bus, write_bw=i_lb_bus),
        double_buffered=lb_double_buffered,
        read_energy_pj_per_bit=lb_energy_pj_per_bit,
        write_energy_pj_per_bit=lb_energy_pj_per_bit,
    )
    gb = MemoryInstance(
        "GB", gb_bits, dual_port(read_bw=gb_read_bw, write_bw=gb_write_bw),
        double_buffered=False,
        read_energy_pj_per_bit=gb_energy_pj_per_bit,
        write_energy_pj_per_bit=gb_energy_pj_per_bit,
    )

    w_reg_lvl = auto_allocate(w_reg, {Operand.W})
    i_reg_lvl = auto_allocate(i_reg, {Operand.I})
    o_reg_lvl = auto_allocate(o_reg, {Operand.O})
    w_lb_lvl = auto_allocate(w_lb, {Operand.W})
    i_lb_lvl = auto_allocate(i_lb, {Operand.I})
    gb_lvl = auto_allocate(gb, {Operand.W, Operand.I, Operand.O})

    hierarchy = MemoryHierarchy(
        {
            Operand.W: (w_reg_lvl, w_lb_lvl, gb_lvl),
            Operand.I: (i_reg_lvl, i_lb_lvl, gb_lvl),
            Operand.O: (o_reg_lvl, gb_lvl),
        }
    )
    accelerator = Accelerator(
        name=name,
        mac_array=mac_array,
        hierarchy=hierarchy,
        stall_overlap=StallOverlapConfig.all_concurrent(),
    )
    spatial = {LoopDim.K: macs_k, LoopDim.B: macs_b, LoopDim.C: macs_c}
    return Preset(accelerator, spatial)


def case_study_accelerator(gb_read_bw: float = 128.0,
                           gb_write_bw: Optional[float] = None) -> Preset:
    """The Section-V scale-down machine (Cases 1 and 2).

    8x16 PE x 2 MACs = 256 MACs spatially unrolled as ``K 16 | B 8 | C 2``,
    16 KB W-LB, 8 KB I-LB, 1 MB GB at 128 bit/cycle read and write.
    """
    return build_accelerator(
        "case-study-16x16",
        macs_k=16, macs_b=8, macs_c=2,
        w_lb_bits=16 * KB, i_lb_bits=8 * KB,
        gb_read_bw=gb_read_bw, gb_write_bw=gb_write_bw,
    )


def inhouse_accelerator() -> Preset:
    """The Section-IV validation chip (16x32 PE x 2 MACs = 1024 MACs).

    Spatial unrolling ``K 16 | B 32 | C 2``: this is the unique unrolling
    consistent with every published parameter — a 16x32 PE geometry, one
    24 b output register per PE (K16 x B32 = 512 accumulator lanes), a
    256 b W-LB bus (K16 x C2 = 32 weights/cycle) and a 512 b I-LB bus
    (B32 x C2 = 64 inputs/cycle). 32 KB W-LB, 64 KB I-LB, 1 MB GB from 16
    64-KB macros; the GB bus width is taken as 512 b/cycle read and write
    (one 32 b word per macro).
    """
    return build_accelerator(
        "inhouse-7nm",
        macs_k=16, macs_b=32, macs_c=2,
        w_lb_bits=32 * KB, i_lb_bits=64 * KB,
        gb_read_bw=512.0, gb_write_bw=512.0,
    )


def shared_lb_accelerator(
    name: str = "shared-lb-16x16",
    macs_k: int = 16,
    macs_b: int = 8,
    macs_c: int = 2,
    lb_bits: int = 64 * KB,
    lb_rw_bw: float = 256.0,
    gb_rw_bw: float = 128.0,
    lb_shares: Optional[Dict[Operand, int]] = None,
) -> Preset:
    """A deliberately *different* architecture shape (generality check).

    Instead of per-operand local buffers with dedicated read/write ports,
    this machine has ONE local buffer shared by W, I and O behind a single
    read/write port, and a single-RW-port global buffer — the "memories
    shared by multiple operands" case whose interference most prior models
    assume away (Section I). Everything contends: W/I refills, O flushes
    and partial-sum read-backs all share two physical ports.

    ``lb_shares`` optionally pins a per-operand capacity split of the LB.
    """
    from repro.hardware.memory import single_rw_port

    array_size = macs_k * macs_b * macs_c
    if array_size % 2:
        raise ValueError("array template uses 2 MACs per PE; K*B*C must be even")
    mac_array = MacArray(
        rows=macs_k, cols=array_size // 2 // macs_k, macs_per_pe=2,
        mac_energy_pj=0.3,
    )
    w_reg = MemoryInstance(
        "W-Reg", 8, dual_port(8.0, 8.0), instances=array_size,
        read_energy_pj_per_bit=0.003, write_energy_pj_per_bit=0.003,
    )
    i_reg = MemoryInstance(
        "I-Reg", 8, dual_port(8.0, 8.0), instances=array_size,
        read_energy_pj_per_bit=0.003, write_energy_pj_per_bit=0.003,
    )
    o_reg = MemoryInstance(
        "O-Reg", 24, dual_port(24.0, 24.0), instances=macs_k * macs_b,
        read_energy_pj_per_bit=0.003, write_energy_pj_per_bit=0.003,
    )
    lb = MemoryInstance(
        "LB", lb_bits, single_rw_port(lb_rw_bw),
        read_energy_pj_per_bit=0.015, write_energy_pj_per_bit=0.015,
    )
    gb = MemoryInstance(
        "GB", 1024 * KB, single_rw_port(gb_rw_bw),
        read_energy_pj_per_bit=0.060, write_energy_pj_per_bit=0.060,
    )
    lb_level = auto_allocate(lb, set(Operand), capacity_share=lb_shares)
    gb_level = auto_allocate(gb, set(Operand))
    hierarchy = MemoryHierarchy(
        {
            Operand.W: (auto_allocate(w_reg, {Operand.W}), lb_level, gb_level),
            Operand.I: (auto_allocate(i_reg, {Operand.I}), lb_level, gb_level),
            Operand.O: (auto_allocate(o_reg, {Operand.O}), lb_level, gb_level),
        }
    )
    accelerator = Accelerator(
        name=name,
        mac_array=mac_array,
        hierarchy=hierarchy,
        stall_overlap=StallOverlapConfig.all_concurrent(),
    )
    spatial = {LoopDim.K: macs_k, LoopDim.B: macs_b, LoopDim.C: macs_c}
    return Preset(accelerator, spatial)


def array_scales() -> Dict[str, Tuple[int, int, int]]:
    """The Case-study-3 MAC-array sizes and their spatial unrollings."""
    return {
        "16x16": (16, 8, 2),
        "32x32": (32, 16, 2),
        "64x64": (64, 32, 2),
    }
