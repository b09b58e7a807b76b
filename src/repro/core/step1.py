"""Step 1 — Divide the memory system into unit memories and DTLs.

For every operand and every adjacent pair of its memory levels this module
derives the periodic transfer stream (``Mem_DATA``, effective ``Mem_CC``,
``Z``), applies Table I to obtain ``ReqBW_u`` / ``X_REQ`` (keep-out zones
for non-double-buffered memories with irrelevant loops on top), and
instantiates the two DTL endpoints with their port-specific ``RealBW``.

Output-operand specifics (Section III-B and Case study 1): tiles flushed
upward while reduction loops remain above the level are *partial sums* —
they travel at accumulator precision and return later as read-back traffic,
which is exactly the extra GB traffic that penalizes Mapping A in Fig. 6.
"""

from __future__ import annotations

import dataclasses
import math
from typing import List, Optional

from repro.core import kernels
from repro.core.dtl import DTL, TrafficKind, Transfer
from repro.hardware.accelerator import Accelerator
from repro.hardware.hierarchy import MemoryLevel
from repro.hardware.port import EndpointKind
from repro.mapping.footprint import operand_footprint_elements, tile_elements
from repro.mapping.loop import loops_product
from repro.mapping.mapping import Mapping
from repro.workload.operand import Operand


@dataclasses.dataclass(frozen=True)
class ModelOptions:
    """Tunable conventions of the latency model.

    Parameters
    ----------
    compute_edges:
        Include the innermost-level read DTLs feeding the MAC array (the
        W-Reg/I-Reg "to MAC" links of Fig. 2b). Output accumulation is part
        of the MAC-accumulator datapath and is never modeled as a DTL.
    paper_period_count:
        Use ``Z`` = all periods, as printed in the paper's
        ``SS_u = (X_REAL - X_REQ) x Z``. The default counts ``Z - 1``
        steady-state transfers, because each unit memory's first tile
        arrives in the pre-loading phase (and the last output flush is the
        offloading phase); the two conventions differ by one period (a
        ``1/Z`` relative effect) and the ablation bench quantifies it.
    combine_rule:
        Shared-port combination rule. ``"paper"`` is Eq. (2) exactly as
        printed: DTLs that already stall contribute only their ``SS_u`` and
        are excluded from the window-consumption sum. ``"refined"``
        (default) additionally lower-bounds the result by the port's busy
        deficit ``sum(X_REAL * Z) - MUW_comb`` over *all* DTLs — a stalling
        DTL still occupies the shared window with its first ``X_REQ``
        cycles, which the printed form drops; the cycle-level simulator
        confirms the refined form (see the ablation bench).
    served_rule:
        Same-served-memory combination. ``"paper"`` takes the max over all
        endpoint ports (Fig. 2b). ``"chained"`` (default) keeps that max
        but additionally lower-bounds an output register's stall by its
        drain -> partial-sum-reload dependency chain: when the allowed
        window is strictly shorter than the period, compute separates
        consecutive boundaries, the chain restarts every period and the
        two streams' stalls *add*; when the window spans the whole period
        the boundaries abut and the streams pipeline on their two ports
        (back to the paper max). Both regimes are simulator-verified
        (ablation bench). ``"sum"`` always adds distinct streams — a
        pessimistic bound kept for the ablation study.
    residency_extension:
        Extend ``Mem_CC`` by the run of operand-irrelevant loops directly
        above each level boundary (pure reuse prolongs residency without a
        refill). Disabling it reverts to the plain loop-product turnaround
        of Fig. 2(a)'s table — the ablation bench shows the resulting
        phantom refill traffic.
    """

    compute_edges: bool = True
    paper_period_count: bool = False
    combine_rule: str = "refined"
    served_rule: str = "chained"
    residency_extension: bool = True

    def __post_init__(self) -> None:
        if self.combine_rule not in ("paper", "refined"):
            raise ValueError(f"unknown combine_rule {self.combine_rule!r}")
        if self.served_rule not in ("paper", "sum", "chained"):
            raise ValueError(f"unknown served_rule {self.served_rule!r}")

    @staticmethod
    def paper_faithful() -> "ModelOptions":
        """The model with every convention exactly as printed in the paper."""
        return ModelOptions(
            paper_period_count=True, combine_rule="paper", served_rule="paper"
        )


def _steady_repeats(z_total: int, options: ModelOptions) -> int:
    """Transfers that land inside the computation phase."""
    return int(kernels.steady_repeats(z_total, options.paper_period_count))


def _x_req(level: MemoryLevel, period: float, top_ir_product: int) -> float:
    """Table I: allowed updating span per period (see ``kernels.x_req_span``)."""
    return float(
        kernels.x_req_span(period, top_ir_product, level.instance.double_buffered)
    )


def _endpoint_pair(
    transfer: Transfer,
    src_level: Optional[MemoryLevel],
    src_kind: EndpointKind,
    dst_level: Optional[MemoryLevel],
    dst_kind: EndpointKind,
    operand: Operand,
) -> List[DTL]:
    """Build the (up to two) DTL endpoints of a transfer."""
    dtls: List[DTL] = []
    if src_level is not None:
        port = src_level.port_for(operand, src_kind)
        dtls.append(
            DTL(
                transfer=transfer,
                memory=src_level.name,
                port=port.name,
                endpoint=src_kind,
                real_bw=port.bandwidth * src_level.instance.instances,
                burst_bits=src_level.instance.min_burst_bits,
            )
        )
    if dst_level is not None:
        port = dst_level.port_for(operand, dst_kind)
        dtls.append(
            DTL(
                transfer=transfer,
                memory=dst_level.name,
                port=port.name,
                endpoint=dst_kind,
                real_bw=port.bandwidth * dst_level.instance.instances,
                burst_bits=dst_level.instance.min_burst_bits,
            )
        )
    return dtls


def build_dtls(
    accelerator: Accelerator,
    mapping: Mapping,
    options: Optional[ModelOptions] = None,
) -> List[DTL]:
    """All DTL endpoints of ``mapping`` on ``accelerator`` (Step 1)."""
    options = options or ModelOptions()
    dtls: List[DTL] = []
    dtls.extend(_input_weight_dtls(accelerator, mapping, options))
    dtls.extend(_output_dtls(accelerator, mapping, options))
    if options.compute_edges:
        dtls.extend(_compute_edge_dtls(accelerator, mapping))
    return dtls


# --------------------------------------------------------------------- #
# W / I refills
# --------------------------------------------------------------------- #

def _input_weight_dtls(
    accelerator: Accelerator, mapping: Mapping, options: ModelOptions
) -> List[DTL]:
    layer = mapping.layer
    temporal = mapping.temporal
    total_cc = temporal.total_cycles
    dtls: List[DTL] = []

    for operand in (Operand.W, Operand.I):
        chain = accelerator.hierarchy.levels(operand)
        for lvl in range(len(chain) - 1):
            dst_level, src_level = chain[lvl], chain[lvl + 1]
            base_cc = temporal.cycles_at_or_below(operand, lvl)
            ext = loops_product(temporal.ir_run_above(operand, lvl, layer))
            if not options.residency_extension:
                ext = 1
            period = base_cc * ext
            z_total = total_cc // period
            repeats = _steady_repeats(z_total, options)
            if repeats == 0:
                continue  # the tile is resident for the whole layer: preload only
            data_bits = mapping.footprint_bits(operand, lvl)
            top_ir = loops_product(temporal.top_ir_run(operand, lvl, layer))
            x_req = _x_req(dst_level, period, top_ir)
            transfer = Transfer(
                operand=operand,
                kind=TrafficKind.REFILL,
                served_memory=dst_level.name,
                served_level=lvl,
                src_memory=src_level.name,
                dst_memory=dst_level.name,
                data_bits=float(data_bits),
                period=float(period),
                repeats=repeats,
                x_req=x_req,
                window_start=float(period) - x_req,
            )
            dtls.extend(
                _endpoint_pair(
                    transfer,
                    src_level, EndpointKind.TL,
                    dst_level, EndpointKind.FH,
                    operand,
                )
            )
    return dtls


# --------------------------------------------------------------------- #
# Output flushes and partial-sum read-backs
# --------------------------------------------------------------------- #

def _output_dtls(
    accelerator: Accelerator, mapping: Mapping, options: ModelOptions
) -> List[DTL]:
    layer = mapping.layer
    temporal = mapping.temporal
    total_cc = temporal.total_cycles
    operand = Operand.O
    chain = accelerator.hierarchy.levels(operand)
    dtls: List[DTL] = []

    for lvl in range(len(chain) - 1):
        low_level, high_level = chain[lvl], chain[lvl + 1]
        base_cc = temporal.cycles_at_or_below(operand, lvl)
        ext = loops_product(temporal.ir_run_above(operand, lvl, layer))
        if not options.residency_extension:
            ext = 1
        period = base_cc * ext
        z_total = total_cc // period
        # Reduction iterations that interleave with relevant loops above:
        # each tile is flushed F times, F-1 of them as partial sums.
        ir_above = math.prod(
            loop.size
            for loop in temporal.loops_above(operand, lvl)
            if layer.relevance(operand, loop.dim, pr_as_r=True) == "ir"
        )
        revisit_factor = ir_above // ext
        partial = revisit_factor > 1
        elements = operand_footprint_elements(layer, operand, temporal, mapping.spatial, lvl)
        data_bits = float(elements * layer.precision.of(operand, partial=partial))
        top_ir = loops_product(temporal.top_ir_run(operand, lvl, layer))
        x_req = _x_req(low_level, period, top_ir)

        flush_repeats = z_total - 1 if z_total > 1 else 0
        if options.paper_period_count and z_total > 1:
            flush_repeats = z_total
        if flush_repeats > 0:
            flush = Transfer(
                operand=operand,
                kind=TrafficKind.FLUSH,
                served_memory=low_level.name,
                served_level=lvl,
                src_memory=low_level.name,
                dst_memory=high_level.name,
                data_bits=data_bits,
                period=float(period),
                repeats=flush_repeats,
                x_req=x_req,
                window_start=float(period) - x_req,
            )
            dtls.extend(
                _endpoint_pair(
                    flush,
                    low_level, EndpointKind.TH,
                    high_level, EndpointKind.FL,
                    operand,
                )
            )

        if partial:
            readback_repeats = z_total - z_total // revisit_factor
            if readback_repeats > 0:
                readback = Transfer(
                    operand=operand,
                    kind=TrafficKind.PSUM_READBACK,
                    served_memory=low_level.name,
                    served_level=lvl,
                    src_memory=high_level.name,
                    dst_memory=low_level.name,
                    data_bits=data_bits,
                    period=float(period),
                    repeats=readback_repeats,
                    x_req=x_req,
                    window_start=0.0,
                )
                dtls.extend(
                    _endpoint_pair(
                        readback,
                        high_level, EndpointKind.TL,
                        low_level, EndpointKind.FH,
                        operand,
                    )
                )
    return dtls


# --------------------------------------------------------------------- #
# Compute-edge reads (innermost level feeding the MAC array)
# --------------------------------------------------------------------- #

def _compute_edge_dtls(accelerator: Accelerator, mapping: Mapping) -> List[DTL]:
    layer = mapping.layer
    total_cc = mapping.temporal.total_cycles
    dtls: List[DTL] = []
    for operand in (Operand.W, Operand.I):
        level0 = accelerator.hierarchy.innermost(operand)
        per_cycle_elements = tile_elements(layer, operand, (), mapping.spatial)
        data_bits = float(per_cycle_elements * layer.precision.of(operand))
        transfer = Transfer(
            operand=operand,
            kind=TrafficKind.COMPUTE_READ,
            served_memory=level0.name,
            served_level=0,
            src_memory=level0.name,
            dst_memory=None,
            data_bits=data_bits,
            period=1.0,
            repeats=total_cc,
            x_req=1.0,
            window_start=0.0,
        )
        dtls.extend(
            _endpoint_pair(transfer, level0, EndpointKind.TL, None, EndpointKind.FH, operand)
        )
    return dtls
