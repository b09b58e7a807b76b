"""Data pre-loading and offloading latency (the phases around computation).

"We define the data pre-loading as the data initialization step before
computation starts, and the data offloading as the final round of outputs
writing back to memory after computation finishes. We can derive their
latency based on the required data transfer amount and the related
memories' BW." (Section III)

Pre-loading fills every W/I level's *first tile*, stage by stage from the
outermost level inwards. Within one stage (one hop depth) transfers that
share a physical port serialize — the sum of their bits divides the port
bandwidth — while transfers on disjoint ports overlap (max). Stages
themselves serialize because a level cannot forward data it has not
received. Offloading drains the last (final-precision) output tile up the
output chain the same way.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.hardware.accelerator import Accelerator
from repro.hardware.port import EndpointKind
from repro.mapping.mapping import Mapping
from repro.workload.operand import Operand


def _stage_time(port_bits: Dict[Tuple[str, str], Tuple[float, float]]) -> float:
    """Max over ports of (total bits on port / port bandwidth)."""
    time = 0.0
    for bits, bw in port_bits.values():
        time = max(time, bits / bw)
    return time


def preload_cycles(accelerator: Accelerator, mapping: Mapping) -> float:
    """Cycles to initialize the W and I hierarchies before compute starts."""
    hierarchy = accelerator.hierarchy
    max_depth = max(hierarchy.depth(op) for op in (Operand.W, Operand.I))
    total = 0.0

    if accelerator.offchip_bandwidth is not None:
        bits = 0.0
        for operand in (Operand.W, Operand.I):
            outer = hierarchy.depth(operand) - 1
            bits += mapping.footprint_bits(operand, outer)
        total += bits / accelerator.offchip_bandwidth

    # Stage s fills the level that is s hops below each operand's outermost.
    for stage in range(1, max_depth):
        port_bits: Dict[Tuple[str, str], Tuple[float, float]] = {}
        for operand in (Operand.W, Operand.I):
            depth = hierarchy.depth(operand)
            dst_index = depth - 1 - stage
            if dst_index < 0:
                continue
            src = hierarchy.levels(operand)[dst_index + 1]
            dst = hierarchy.levels(operand)[dst_index]
            bits = float(mapping.footprint_bits(operand, dst_index))
            for level, kind in ((src, EndpointKind.TL), (dst, EndpointKind.FH)):
                port = level.port_for(operand, kind)
                key = (level.name, port.name)
                bw = port.bandwidth * level.instance.instances
                prev_bits, __ = port_bits.get(key, (0.0, bw))
                port_bits[key] = (prev_bits + bits, bw)
        total += _stage_time(port_bits)
    return total


def offload_cycles(accelerator: Accelerator, mapping: Mapping) -> float:
    """Cycles to drain the last output tile after compute finishes."""
    hierarchy = accelerator.hierarchy
    chain = hierarchy.levels(Operand.O)
    total = 0.0
    for lvl in range(len(chain) - 1):
        src, dst = chain[lvl], chain[lvl + 1]
        # The final round is always at final-output precision.
        bits = float(_final_bits(mapping, lvl))
        src_bw = src.port_for(Operand.O, EndpointKind.TH).bandwidth * src.instance.instances
        dst_bw = dst.port_for(Operand.O, EndpointKind.FL).bandwidth * dst.instance.instances
        total += bits / min(src_bw, dst_bw)
    return total


def _final_bits(mapping: Mapping, level: int) -> int:
    """Last-tile size at ``level`` in final-output precision."""
    from repro.mapping.footprint import operand_footprint_elements

    elements = operand_footprint_elements(
        mapping.layer, Operand.O, mapping.temporal, mapping.spatial, level
    )
    return elements * mapping.layer.precision.of(Operand.O, partial=False)
