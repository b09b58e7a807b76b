"""Lower a mapping onto periodic transfer-job streams for the simulator.

Each stream is one unit memory's periodic traffic (refill, flush or
partial-sum read-back), lowered into per-job columns (gate, threshold,
bits, per-port bits, upstream dependency) that the engine reads. The schedule
parameters — period, keep-out window, bits per tile — restate the machine's
*semantics* (the same Table-I rules the analytical model uses, because the
keep-out zone is a property of the hardware, not of the model); what the
simulator adds is *state*: jobs contend for port bandwidth, chain across
levels and gate the compute clock, so stalls emerge instead of being
computed in closed form.

Job gating uses compute-local time ``c`` (ideal cycles of the temporal
schedule):

* refill of tile ``k``: may start once ``c >= k*P - X_REQ`` (non-DB; a
  double-buffered level may start a full period early) and blocks compute
  from passing ``c = k*P`` until done;
* flush of period ``k``: may start once the period's accumulation ends
  (``c >= (k+1)*P``) and blocks compute from passing ``(k+1)*P + X_REQ``;
* read-back for period ``k``: mirrors a refill at the period start with an
  ``X_REQ`` grace window into the period.

Flush jobs decode the reduction pattern exactly: period index ``k`` is
expanded in mixed radix over the loops above the level; a tile's *last*
visit (all remaining reduction digits maxed) flushes at final precision,
every other visit flushes a partial sum, and every revisit is preceded by a
read-back job.
"""

from __future__ import annotations

import dataclasses
import math
from typing import List, Optional, Sequence, Tuple

from repro.hardware.accelerator import Accelerator
from repro.hardware.hierarchy import MemoryLevel
from repro.hardware.port import EndpointKind
from repro.mapping.footprint import operand_footprint_elements
from repro.mapping.loop import Loop, loops_product
from repro.mapping.mapping import Mapping
from repro.observability.telemetry import telemetry
from repro.workload.operand import Operand

PortKey = Tuple[str, str]


@dataclasses.dataclass
class JobStream:
    """One unit memory's periodic transfer jobs on fixed ports, as columns.

    Job ``k`` may start once the compute clock reaches ``gates[k]`` and,
    when ``upstream`` names a stream, once that stream has completed more
    than ``dep_seq[k]`` jobs; it blocks the compute clock from passing
    ``thresholds[k]``. It moves ``bits[k]`` logical bits, and
    ``port_bits[k]`` gives the physical bits for each distinct port of
    ``ports``, in order: word-size padding can differ between source and
    destination (a wide-word memory reads whole bursts even for a narrow
    tile). Jobs of one stream share a few ``port_bits`` rows.

    A layer lowers to thousands of jobs, so each is one entry per column,
    appended by the builders and read as they are by the engine;
    ``dep_seq`` is empty when ``upstream`` is None.
    """

    name: str
    kind: str                      # "refill" | "flush" | "readback"
    operand: Operand
    level: int
    period: int
    x_req: float
    ports: Tuple[PortKey, ...]
    gates: List[float] = dataclasses.field(default_factory=list)
    thresholds: List[float] = dataclasses.field(default_factory=list)
    bits: List[float] = dataclasses.field(default_factory=list)
    port_bits: List[Tuple[float, ...]] = dataclasses.field(default_factory=list)
    upstream: Optional[str] = None
    dep_seq: List[int] = dataclasses.field(default_factory=list)

    def __len__(self) -> int:
        return len(self.gates)

    @property
    def total_bits(self) -> float:
        """Bits the stream moves across the whole layer."""
        return sum(self.bits)


def _x_req_of(level: MemoryLevel, period: int, top_ir: int) -> float:
    """Table-I allowed window (shared machine semantics)."""
    if level.instance.double_buffered or top_ir <= 1:
        return float(period)
    return period / top_ir


def _port_key(level: MemoryLevel, operand: Operand, kind: EndpointKind) -> PortKey:
    return level.name, level.port_for(operand, kind).name


def _pad_to_burst(bits: float, *levels: MemoryLevel) -> float:
    """Round a transfer up to the coarsest endpoint word size."""
    burst = max((lvl.instance.min_burst_bits for lvl in levels), default=1)
    if burst <= 1:
        return bits
    return math.ceil(bits / burst) * burst


def _mixed_radix_digits(index: int, sizes: Sequence[int]) -> List[int]:
    """Expand ``index`` over ``sizes`` (inner first)."""
    digits = []
    for size in sizes:
        digits.append(index % size)
        index //= size
    return digits


def build_streams(accelerator: Accelerator, mapping: Mapping) -> List[JobStream]:
    """All job streams of ``mapping`` on ``accelerator``.

    Traced as one ``simulator.build_streams`` span with a
    ``simulator.stream`` event per lowered stream (kind, level, period,
    allowed window, job count, traffic), so a trace shows what the
    simulator is about to contend over before any event executes.
    """
    tracer = telemetry().tracer
    with tracer.span("simulator.build_streams") as span:
        streams: List[JobStream] = []
        streams.extend(_refill_streams(accelerator, mapping))
        streams.extend(_output_streams(accelerator, mapping))
        if tracer.enabled:
            span.set("streams", len(streams))
            span.set("jobs", sum(len(s) for s in streams))
            for stream in streams:
                tracer.event(
                    "simulator.stream",
                    stream=stream.name,
                    kind=stream.kind,
                    operand=str(stream.operand),
                    level=stream.level,
                    period=stream.period,
                    x_req=stream.x_req,
                    jobs=len(stream),
                    total_bits=stream.total_bits,
                )
    return streams


def _refill_streams(accelerator: Accelerator, mapping: Mapping) -> List[JobStream]:
    layer = mapping.layer
    temporal = mapping.temporal
    total_cc = temporal.total_cycles
    streams: List[JobStream] = []
    for operand in (Operand.W, Operand.I):
        chain = accelerator.hierarchy.levels(operand)
        periods = []
        for lvl in range(len(chain) - 1):
            ext = loops_product(temporal.ir_run_above(operand, lvl, layer))
            periods.append(temporal.cycles_at_or_below(operand, lvl) * ext)
        for lvl, period in enumerate(periods):
            dst, src = chain[lvl], chain[lvl + 1]
            z_total = total_cc // period
            bits = float(mapping.footprint_bits(operand, lvl))
            top_ir = loops_product(temporal.top_ir_run(operand, lvl, layer))
            x_req = _x_req_of(dst, period, top_ir)
            src_key = _port_key(src, operand, EndpointKind.TL)
            dst_key = _port_key(dst, operand, EndpointKind.FH)
            # The tile for compute window [k*P, (k+1)*P) comes out of the
            # upper-level tile covering time k*P: job (k*P) // P_upper of the
            # level-(l+1) refill stream.
            p_upper = periods[lvl + 1] if lvl + 1 < len(periods) else 0
            z_upper = total_cc // p_upper if p_upper else 0
            # Tile 0 is the preload: it may start at once.
            if dst.instance.double_buffered:
                gates = [float((k - 1) * period) for k in range(1, z_total)]
            else:
                gates = [k * period - x_req for k in range(1, z_total)]
            streams.append(JobStream(
                f"{operand}-refill-L{lvl}", "refill", operand, lvl, period, x_req,
                (src_key, dst_key),
                gates=[float("-inf"), *gates],
                thresholds=[float(k * period) for k in range(z_total)],
                bits=[bits] * z_total,
                port_bits=[_per_port(bits, src, src_key, dst, dst_key)] * z_total,
                upstream=f"{operand}-refill-L{lvl + 1}" if z_upper else None,
                dep_seq=[
                    min((k * period) // p_upper, z_upper - 1) for k in range(z_total)
                ] if z_upper else [],
            ))
    return streams


def _per_port(
    bits: float,
    src_level: MemoryLevel,
    src_port: PortKey,
    dst_level: MemoryLevel,
    dst_port: PortKey,
) -> Tuple[float, ...]:
    """Physical bits each distinct endpoint port of a link moves for a
    ``bits`` tile, in ``(src_port, dst_port)`` order."""
    row = {
        src_port: _pad_to_burst(bits, src_level),
        dst_port: _pad_to_burst(bits, dst_level),
    }
    return tuple(row.values())


def _output_streams(accelerator: Accelerator, mapping: Mapping) -> List[JobStream]:
    layer = mapping.layer
    temporal = mapping.temporal
    total_cc = temporal.total_cycles
    operand = Operand.O
    chain = accelerator.hierarchy.levels(operand)
    streams: List[JobStream] = []
    for lvl in range(len(chain) - 1):
        low, high = chain[lvl], chain[lvl + 1]
        ext_run = temporal.ir_run_above(operand, lvl, layer)
        ext = loops_product(ext_run)
        period = temporal.cycles_at_or_below(operand, lvl) * ext
        z_total = total_cc // period
        # Loops above the (extended) period window, inner first.
        above: Tuple[Loop, ...] = temporal.loops_above(operand, lvl)[len(ext_run):]
        sizes = [loop.size for loop in above]
        is_ir = [
            layer.relevance(operand, loop.dim, pr_as_r=True) == "ir" for loop in above
        ]
        elements = operand_footprint_elements(
            layer, operand, temporal, mapping.spatial, lvl
        )
        partial_bits = float(elements * layer.precision.of(operand, partial=True))
        final_bits = float(elements * layer.precision.of(operand, partial=False))
        top_ir = loops_product(temporal.top_ir_run(operand, lvl, layer))
        x_req = _x_req_of(low, period, top_ir)

        low_th = _port_key(low, operand, EndpointKind.TH)
        high_fl = _port_key(high, operand, EndpointKind.FL)
        high_tl = _port_key(high, operand, EndpointKind.TL)
        low_fh = _port_key(low, operand, EndpointKind.FH)
        flush = JobStream(
            f"O-flush-L{lvl}", "flush", operand, lvl, period, x_req, (low_th, high_fl)
        )
        readback = JobStream(
            f"O-readback-L{lvl}", "readback", operand, lvl, period, x_req,
            (high_tl, low_fh), upstream=flush.name,
        )
        flush_rows = {
            bits: _per_port(bits, low, low_th, high, high_fl)
            for bits in (partial_bits, final_bits)
        }
        rb_row = _per_port(partial_bits, high, high_tl, low, low_fh)
        for k in range(z_total):
            digits = _mixed_radix_digits(k, sizes)
            last_visit = all(
                d == s - 1 for d, s, ir in zip(digits, sizes, is_ir) if ir
            )
            first_visit = all(d == 0 for d, __, ir in zip(digits, sizes, is_ir) if ir)
            bits = final_bits if last_visit else partial_bits
            flush.gates.append(float((k + 1) * period))
            flush.thresholds.append((k + 1) * period + x_req)
            flush.bits.append(bits)
            flush.port_bits.append(flush_rows[bits])
            if not first_visit:
                # Period 0 is every tile's first visit, so ``k >= 1`` here.
                readback.gates.append(k * period - x_req)
                readback.thresholds.append(k * period + x_req)
                readback.bits.append(partial_bits)
                readback.port_bits.append(rb_row)
                readback.dep_seq.append(k - 1)
        streams.append(flush)
        if readback.gates:
            streams.append(readback)
    return streams
