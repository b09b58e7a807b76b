"""Lower a mapping onto per-unit-memory transfer FIFOs for the RTL backend.

This is a *second, independent* lowering of the machine semantics — it
deliberately shares no code with :mod:`repro.simulator.streams`. Both
restate the same Table-I hardware contract (keep-out windows, periods,
tile sizes are properties of the machine, not of either simulator), but
the two implementations decode it differently:

* the event lowering walks mixed-radix *digit lists* to classify output
  visits; this one collapses the irrelevant-loop digits into a single
  mixed-radix *ir-index* and compares it against ``0`` / ``ir_total - 1``;
* the event lowering builds per-stream job lists consumed by a
  continuous-time engine; this one builds :class:`TransferStep` FIFOs
  attached to the unit memory whose preload/offload engine will replay
  them tick by tick;
* burst padding, allowed windows and cross-level dependencies are
  re-derived from the hardware description rather than imported.

The lowering also performs the static half of the *exactness* analysis:
when every gate, threshold and per-port leg duration is integral, the
tick-quantized RTL schedule can only diverge from the continuous-time
event schedule through port contention — which the RTL simulator detects
dynamically. ``MachineProgram.integral`` records the static half;
:class:`repro.simulator.rtl.sim.RtlSimulator` combines it with the
measured ``contended_port_cycles == 0`` to assert exact agreement.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, List, Optional, Tuple

from repro.hardware.accelerator import Accelerator
from repro.hardware.hierarchy import MemoryLevel
from repro.hardware.port import EndpointKind
from repro.mapping.footprint import operand_footprint_elements
from repro.mapping.loop import loops_product
from repro.mapping.mapping import Mapping
from repro.workload.operand import Operand

PortKey = Tuple[str, str]

_NEG_INF = float("-inf")

#: Fixed arbitration ranks, documented once and tested in
#: ``tests/simulator/rtl/test_arbiter.py``: refills feed the compute
#: frontier and win over read-backs, which win over flushes; within a
#: rank, W beats I beats O and inner levels beat outer ones.
KIND_RANK = {"refill": 0, "readback": 1, "flush": 2}
OPERAND_RANK = {Operand.W: 0, Operand.I: 1, Operand.O: 2}


@dataclasses.dataclass(frozen=True)
class TransferStep:
    """One queued tile transfer in an engine's FIFO.

    ``gate`` / ``threshold`` are compute-clock cycles: the step may enter
    flight once the MAC array has issued ``gate`` temporal iterations
    (and ``dep`` has retired), and the array may not issue past
    ``threshold`` until the step retires. ``legs`` lists the physical
    bits each endpoint port must move (store-and-forward: the step
    retires when every leg has drained).
    """

    engine: str
    seq: int
    gate: float
    threshold: float
    bits: float
    legs: Tuple[Tuple[PortKey, float], ...]
    dep: Optional[Tuple[str, int]] = None


@dataclasses.dataclass(frozen=True)
class EnginePlan:
    """The static program of one DTL transfer engine.

    ``unit_memory`` names the served unit memory in the ledger's
    ``ss_comb`` key style (``"W@LB/L0"``) so measured stall attributions
    line up with the analytical report's Step-2 keys. ``priority`` is the
    arbiter rank tuple (lower wins) derived from :data:`KIND_RANK` /
    :data:`OPERAND_RANK`.
    """

    name: str
    kind: str                    # "refill" | "readback" | "flush"
    operand: Operand
    level: int
    unit_memory: str
    period: int
    window: float                # the Table-I allowed window (X_REQ)
    ports: Tuple[PortKey, ...]
    steps: Tuple[TransferStep, ...]
    priority: Tuple[int, int, int, str]

    def __len__(self) -> int:
        return len(self.steps)


@dataclasses.dataclass(frozen=True)
class MachineProgram:
    """Everything the tick scheduler needs: engines, ports, exactness."""

    plans: Tuple[EnginePlan, ...]
    total_cycles: int
    port_bandwidth: Dict[PortKey, float]
    integral: bool


# --------------------------------------------------------------------------- #
# Shared machine-semantics helpers (re-derived, not imported)


def _allowed_window(level: MemoryLevel, period: int, top_ir: int) -> float:
    """Table-I allowed refill window for a unit memory at this level."""
    if level.instance.double_buffered or top_ir <= 1:
        return float(period)
    return period / top_ir


def _burst(bits: float, level: MemoryLevel) -> float:
    """Physical bits the level's port moves for a logical tile."""
    word = level.instance.min_burst_bits
    if word <= 1:
        return bits
    return float(word) * math.ceil(bits / float(word))


def _port_of(level: MemoryLevel, operand: Operand, kind: EndpointKind) -> PortKey:
    return (level.name, level.port_for(operand, kind).name)


def _unit_key(operand: Operand, level: MemoryLevel, lvl: int) -> str:
    return f"{operand}@{level.name}/L{lvl}"


def _ir_position(index: int, loops, is_ir) -> Tuple[int, int]:
    """Collapse a period index to its mixed-radix ir-index and ir-total.

    Walking the loops above the period window (inner first), the digits
    of the irrelevant loops form their own mixed-radix number: ``0``
    means the first visit to this output tile, ``ir_total - 1`` the last
    (every reduction digit maxed). Relevant-loop digits are skipped —
    they select *which* tile, not which visit.
    """
    ir_index, ir_total = 0, 1
    for loop, irrelevant in zip(loops, is_ir):
        digit = index % loop.size
        index //= loop.size
        if irrelevant:
            ir_index += digit * ir_total
            ir_total *= loop.size
    return ir_index, ir_total


def _is_integral(value: float, eps: float = 1e-9) -> bool:
    return value == _NEG_INF or abs(value - round(value)) <= eps


# --------------------------------------------------------------------------- #
# Lowering


def lower_program(accelerator: Accelerator, mapping: Mapping) -> MachineProgram:
    """Build the full transfer program for one mapping on one machine."""
    plans: List[EnginePlan] = []
    for operand in (Operand.W, Operand.I):
        plans.extend(_input_plans(accelerator, mapping, operand))
    plans.extend(_output_plans(accelerator, mapping))

    bandwidth: Dict[PortKey, float] = {}
    for level in accelerator.hierarchy.unique_levels():
        for port in level.instance.ports:
            bandwidth[(level.name, port.name)] = (
                port.bandwidth * level.instance.instances
            )

    # Exactness (static half): every gate and threshold on the integer
    # grid, and every step's *slowest* leg a whole number of cycles — the
    # retire instant is start + max(leg durations), so a faster leg
    # finishing mid-cycle is unobservable unless its port is contended
    # (which the dynamic half of the certificate rules out separately).
    integral = all(
        _is_integral(step.gate)
        and _is_integral(step.threshold)
        and all(bandwidth[key] > 0 for key, __ in step.legs)
        and _is_integral(
            max((bits / bandwidth[key] for key, bits in step.legs), default=0.0)
        )
        for plan in plans
        for step in plan.steps
    )
    return MachineProgram(
        plans=tuple(plans),
        total_cycles=mapping.temporal.total_cycles,
        port_bandwidth=bandwidth,
        integral=integral,
    )


def _input_plans(
    accelerator: Accelerator, mapping: Mapping, operand: Operand
) -> List[EnginePlan]:
    """Refill FIFOs for one input operand, chained across the hierarchy."""
    layer = mapping.layer
    temporal = mapping.temporal
    horizon = temporal.total_cycles
    chain = accelerator.hierarchy.levels(operand)
    plans: List[EnginePlan] = []
    for lvl in range(len(chain) - 1):
        inner, outer = chain[lvl], chain[lvl + 1]
        extension = loops_product(temporal.ir_run_above(operand, lvl, layer))
        period = temporal.cycles_at_or_below(operand, lvl) * extension
        top_ir = loops_product(temporal.top_ir_run(operand, lvl, layer))
        window = _allowed_window(inner, period, top_ir)
        tile_bits = float(mapping.footprint_bits(operand, lvl))
        source = _port_of(outer, operand, EndpointKind.TL)
        sink = _port_of(inner, operand, EndpointKind.FH)
        legs = (
            (source, _burst(tile_bits, outer)),
            (sink, _burst(tile_bits, inner)),
        )
        name = f"{operand}/refill/L{lvl}"
        upper = f"{operand}/refill/L{lvl + 1}" if lvl + 1 < len(chain) - 1 else None
        upper_period = None
        upper_count = None
        if upper is not None:
            upper_ext = loops_product(temporal.ir_run_above(operand, lvl + 1, layer))
            upper_period = temporal.cycles_at_or_below(operand, lvl + 1) * upper_ext
            upper_count = horizon // upper_period

        steps: List[TransferStep] = []
        for k in range(horizon // period):
            if k == 0:
                gate, threshold = _NEG_INF, 0.0
            elif inner.instance.double_buffered:
                gate, threshold = float((k - 1) * period), float(k * period)
            else:
                gate, threshold = k * period - window, float(k * period)
            dep = None
            if upper is not None:
                # The covering upper-level tile is the one resident over
                # compute cycle k*P; clamp to the last upper tile.
                dep = (upper, min((k * period) // upper_period, upper_count - 1))
            steps.append(
                TransferStep(name, k, gate, threshold, tile_bits, legs, dep)
            )
        plans.append(
            EnginePlan(
                name=name,
                kind="refill",
                operand=operand,
                level=lvl,
                unit_memory=_unit_key(operand, inner, lvl),
                period=period,
                window=window,
                ports=(source, sink),
                steps=tuple(steps),
                priority=(KIND_RANK["refill"], OPERAND_RANK[operand], lvl, name),
            )
        )
    return plans


def _output_plans(accelerator: Accelerator, mapping: Mapping) -> List[EnginePlan]:
    """Flush and read-back FIFOs for the output operand at every boundary."""
    operand = Operand.O
    layer = mapping.layer
    temporal = mapping.temporal
    horizon = temporal.total_cycles
    chain = accelerator.hierarchy.levels(operand)
    plans: List[EnginePlan] = []
    for lvl in range(len(chain) - 1):
        inner, outer = chain[lvl], chain[lvl + 1]
        ext_run = temporal.ir_run_above(operand, lvl, layer)
        period = temporal.cycles_at_or_below(operand, lvl) * loops_product(ext_run)
        top_ir = loops_product(temporal.top_ir_run(operand, lvl, layer))
        window = _allowed_window(inner, period, top_ir)
        above = temporal.loops_above(operand, lvl)[len(ext_run):]
        is_ir = tuple(
            layer.relevance(operand, loop.dim, pr_as_r=True) == "ir"
            for loop in above
        )
        elements = operand_footprint_elements(
            layer, operand, temporal, mapping.spatial, lvl
        )
        partial = float(elements * layer.precision.of(operand, partial=True))
        final = float(elements * layer.precision.of(operand, partial=False))

        up = _port_of(inner, operand, EndpointKind.TH)      # flush source
        up_sink = _port_of(outer, operand, EndpointKind.FL)
        down = _port_of(outer, operand, EndpointKind.TL)    # read-back source
        down_sink = _port_of(inner, operand, EndpointKind.FH)

        flush_name = f"{operand}/flush/L{lvl}"
        rb_name = f"{operand}/readback/L{lvl}"
        flush_steps: List[TransferStep] = []
        rb_steps: List[TransferStep] = []
        for k in range(horizon // period):
            position, visits = _ir_position(k, above, is_ir)
            bits = final if position == visits - 1 else partial
            flush_steps.append(
                TransferStep(
                    flush_name,
                    k,
                    gate=float((k + 1) * period),
                    threshold=(k + 1) * period + window,
                    bits=bits,
                    legs=(
                        (up, _burst(bits, inner)),
                        (up_sink, _burst(bits, outer)),
                    ),
                )
            )
            if position != 0:
                # Revisit: the partial sum written last period comes back
                # down before accumulation resumes.
                rb_steps.append(
                    TransferStep(
                        rb_name,
                        len(rb_steps),
                        gate=k * period - window,
                        threshold=k * period + window,
                        bits=partial,
                        legs=(
                            (down, _burst(partial, outer)),
                            (down_sink, _burst(partial, inner)),
                        ),
                        dep=(flush_name, k - 1),
                    )
                )
        plans.append(
            EnginePlan(
                name=flush_name,
                kind="flush",
                operand=operand,
                level=lvl,
                unit_memory=_unit_key(operand, inner, lvl),
                period=period,
                window=window,
                ports=(up, up_sink),
                steps=tuple(flush_steps),
                priority=(KIND_RANK["flush"], OPERAND_RANK[operand], lvl, flush_name),
            )
        )
        if rb_steps:
            plans.append(
                EnginePlan(
                    name=rb_name,
                    kind="readback",
                    operand=operand,
                    level=lvl,
                    unit_memory=_unit_key(operand, inner, lvl),
                    period=period,
                    window=window,
                    ports=(down, down_sink),
                    steps=tuple(rb_steps),
                    priority=(KIND_RANK["readback"], OPERAND_RANK[operand], lvl, rb_name),
                )
            )
    return plans
