"""Per-memory, per-operand access counting (bits read and written).

The counts follow the same periodic-transfer analysis as the latency
model's Step 1 — identical ``Mem_DATA`` / effective ``Mem_CC`` / ``Z``
machinery — but, unlike the stall analysis, energy accounting includes the
pre-loading and offloading rounds (the energy is spent regardless of when
the transfer happens) and the MAC-side register traffic.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, Tuple

from repro.hardware.accelerator import Accelerator
from repro.mapping.footprint import operand_footprint_elements, tile_elements
from repro.mapping.loop import loops_product
from repro.mapping.mapping import Mapping
from repro.workload.operand import Operand


@dataclasses.dataclass(frozen=True)
class AccessCounts:
    """Bits read/written per (memory name, operand) pair plus MAC count.

    ``link_bits`` tracks the traffic crossing each memory's *downward*
    interconnect (refills leaving it, compute-edge distribution below it,
    output flushes/read-backs arriving from below) for the NoC-energy term.
    """

    reads_bits: Dict[Tuple[str, Operand], float]
    writes_bits: Dict[Tuple[str, Operand], float]
    link_bits: Dict[str, float]
    mac_ops: int

    def memory_reads(self, memory: str) -> float:
        """Total bits read from ``memory`` (all operands)."""
        return sum(v for (m, __), v in self.reads_bits.items() if m == memory)

    def memory_writes(self, memory: str) -> float:
        """Total bits written into ``memory`` (all operands)."""
        return sum(v for (m, __), v in self.writes_bits.items() if m == memory)

    def operand_traffic(self, operand: Operand) -> float:
        """Total bits moved for ``operand`` (reads + writes, all levels)."""
        reads = sum(v for (__, op), v in self.reads_bits.items() if op is operand)
        writes = sum(v for (__, op), v in self.writes_bits.items() if op is operand)
        return reads + writes


def _add(table: Dict[Tuple[str, Operand], float], key: Tuple[str, Operand], bits: float) -> None:
    table[key] = table.get(key, 0.0) + bits


def _add_link(table: Dict[str, float], memory: str, bits: float) -> None:
    table[memory] = table.get(memory, 0.0) + bits


def count_accesses(accelerator: Accelerator, mapping: Mapping) -> AccessCounts:
    """Count every memory access of running ``mapping`` once."""
    layer = mapping.layer
    temporal = mapping.temporal
    spatial = mapping.spatial
    total_cc = temporal.total_cycles
    reads: Dict[Tuple[str, Operand], float] = {}
    writes: Dict[Tuple[str, Operand], float] = {}
    links: Dict[str, float] = {}

    # ---- W / I refills (incl. the pre-loading round). ----
    for operand in (Operand.W, Operand.I):
        chain = accelerator.hierarchy.levels(operand)
        for lvl in range(len(chain) - 1):
            dst, src = chain[lvl], chain[lvl + 1]
            ext = loops_product(temporal.ir_run_above(operand, lvl, layer))
            period = temporal.cycles_at_or_below(operand, lvl) * ext
            z_total = total_cc // period
            bits = float(mapping.footprint_bits(operand, lvl)) * z_total
            _add(reads, (src.name, operand), bits)
            _add(writes, (dst.name, operand), bits)
            _add_link(links, src.name, bits)
        # Compute-edge reads from the innermost level, every cycle — these
        # travel the array distribution network (the innermost link).
        per_cycle = tile_elements(layer, operand, (), spatial) * layer.precision.of(operand)
        _add(reads, (chain[0].name, operand), float(per_cycle) * total_cc)
        _add_link(links, chain[0].name, float(per_cycle) * total_cc)

    # ---- Output flushes, read-backs and accumulation. ----
    operand = Operand.O
    chain = accelerator.hierarchy.levels(operand)
    for lvl in range(len(chain) - 1):
        low, high = chain[lvl], chain[lvl + 1]
        ext = loops_product(temporal.ir_run_above(operand, lvl, layer))
        period = temporal.cycles_at_or_below(operand, lvl) * ext
        z_total = total_cc // period
        ir_above = math.prod(
            loop.size
            for loop in temporal.loops_above(operand, lvl)
            if layer.relevance(operand, loop.dim, pr_as_r=True) == "ir"
        )
        revisit = ir_above // ext
        elements = operand_footprint_elements(layer, operand, temporal, spatial, lvl)
        partial_bits = float(elements * layer.precision.of(operand, partial=True))
        final_bits = float(elements * layer.precision.of(operand, partial=False))
        final_flushes = z_total // revisit if revisit > 1 else z_total
        psum_flushes = z_total - final_flushes
        flush_bits = psum_flushes * partial_bits + final_flushes * final_bits
        _add(reads, (low.name, operand), flush_bits)
        _add(writes, (high.name, operand), flush_bits)
        _add_link(links, high.name, flush_bits)
        if revisit > 1:
            readbacks = z_total - final_flushes
            rb_bits = readbacks * partial_bits
            _add(reads, (high.name, operand), rb_bits)
            _add(writes, (low.name, operand), rb_bits)
            _add_link(links, high.name, rb_bits)
    # Accumulator read-modify-write at the innermost output level.
    lanes = tile_elements(layer, operand, (), spatial)
    acc_bits = float(lanes * layer.precision.of(operand, partial=True)) * total_cc
    _add(reads, (chain[0].name, operand), acc_bits)
    _add(writes, (chain[0].name, operand), acc_bits)

    return AccessCounts(
        reads_bits=reads,
        writes_bits=writes,
        link_bits=links,
        mac_ops=layer.total_macs,
    )
