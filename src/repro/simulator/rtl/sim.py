"""The register-stage-accurate tick scheduler.

Where :class:`repro.simulator.engine.CycleSimulator` advances continuous
time in variable-length event segments with processor-shared ports, this
backend calls every component once per integer cycle in a fixed order:

1. **issue** — each unit memory's preload/offload engine puts startable
   steps in flight, using the compute count *before* this cycle;
2. **compute decision** — the MAC-array issue stage may issue one
   temporal iteration iff no engine's blocking threshold is reached;
3. **arbitration** — every port's fixed-priority arbiter grants this
   cycle's bandwidth to its requesters (leftover cascades down-rank);
4. **retire** — at cycle end, steps whose legs all drained retire,
   unblocking dependents from the *next* cycle; the compute count
   increments.

CC_comp, CC_preload, CC_offload and the per-unit-memory stall
decomposition are *measured* off this tick stream, not computed.

Exactness
---------
When the lowered program is *integral* (every gate, threshold and leg
duration a whole number of cycles — ``MachineProgram.integral``) and the
run observed **zero contended port cycles**, the two backends' schedules
coincide event for event: every event-engine instant (gate crossing,
threshold block, leg completion) falls on a cycle boundary, and with at
most one requester per port per cycle the fixed-priority grant equals
the processor share. By induction on the first divergence, total cycle
counts must then match **exactly** — the three-way property in
:mod:`repro.verify.properties` asserts equality, not a band, on this
subset. Any contended or fractional case falls back to the sim-vs-sim
band.

A *stride* fast path replays a provably-stable cycle verbatim over a run
of cycles (bounded so no issue, retire, gate crossing or threshold block
can occur inside the run). It is a pure scheduling optimization: state
updates are the same arithmetic, so results are bit-identical with
``stride=False`` (pinned by ``tests/simulator/rtl``).
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, List, Optional, Tuple

from repro.hardware.accelerator import Accelerator
from repro.mapping.mapping import Mapping
from repro.observability.telemetry import telemetry
from repro.simulator.result import SimulationResult
from repro.simulator.rtl.components import (
    MacArrayIssueStage,
    OffloadEngine,
    PortArbiter,
    PreloadEngine,
    TransferEngine,
)
from repro.simulator.rtl.program import MachineProgram, PortKey, lower_program
from repro.simulator.trace import TraceRecorder

_EPS = 1e-9


@dataclasses.dataclass(frozen=True)
class RtlSimulationResult(SimulationResult):
    """A :class:`SimulationResult` plus the RTL backend's measurements.

    ``exact`` certifies that the run satisfied both exactness conditions
    (integral program, zero contended port cycles) — the subset on which
    the event backend must agree on ``total_cycles`` to the cycle.
    ``stall_by_memory`` is the *measured* per-unit-memory stall
    decomposition, keyed like the ledger's ``ss_comb`` map
    (``"W@LB/L0"``).
    """

    exact: bool = False
    integral: bool = False
    contended_port_cycles: float = 0.0
    stall_by_memory: Dict[str, float] = dataclasses.field(default_factory=dict)
    preload_bits: float = 0.0
    offload_bits: float = 0.0

    def summary(self) -> str:
        base = super().summary().replace("Simulation:", "RTL simulation:")
        lines = [
            base,
            f"  exact        = {self.exact} "
            f"(integral={self.integral}, "
            f"contended={self.contended_port_cycles:.0f} port-cycles)",
        ]
        for key in sorted(self.stall_by_memory):
            lines.append(f"  stall[{key}] = {self.stall_by_memory[key]:12.1f} cc")
        return "\n".join(lines)


class RtlSimulator:
    """Tick-driven second oracle for one mapping on one accelerator.

    Shares no evaluation code with the event engine: its own lowering
    (:mod:`repro.simulator.rtl.program`), its own components, its own
    scheduler. The only shared surface is the result shape.
    """

    def __init__(
        self,
        accelerator: Accelerator,
        mapping: Mapping,
        max_cycles: int = 50_000_000,
        trace: Optional[TraceRecorder] = None,
        stride: bool = True,
    ) -> None:
        self.accelerator = accelerator
        self.mapping = mapping
        self.max_cycles = max_cycles
        self.trace = trace
        self.stride = stride
        self.program: MachineProgram = lower_program(accelerator, mapping)

    # ------------------------------------------------------------------ #

    def run(self) -> RtlSimulationResult:
        """Execute the layer tick by tick and measure the timing."""
        tracer = telemetry().tracer
        with tracer.span("simulator.rtl.run") as span:
            result = self._execute()
            if tracer.enabled:
                span.set_many(
                    accelerator=self.accelerator.name,
                    layer=self.mapping.layer.name or "?",
                    total_cycles=result.total_cycles,
                    stall_cycles=result.stall_cycles,
                    preload_cycles=result.preload_cycles,
                    drain_tail_cycles=result.drain_tail_cycles,
                    exact=result.exact,
                    contended_port_cycles=result.contended_port_cycles,
                )
        return result

    # ------------------------------------------------------------------ #

    def _build(self) -> Tuple[
        List[TransferEngine], List[PreloadEngine], Dict[PortKey, PortArbiter],
        MacArrayIssueStage,
    ]:
        engines = [TransferEngine(plan) for plan in self.program.plans]
        arbiters = {
            key: PortArbiter(key, bw)
            for key, bw in self.program.port_bandwidth.items()
        }
        inbound: Dict[str, List[TransferEngine]] = {}
        outbound: Dict[str, List[TransferEngine]] = {}
        for engine in engines:
            side = outbound if engine.plan.kind == "flush" else inbound
            side.setdefault(engine.plan.unit_memory, []).append(engine)
        units: List[PreloadEngine] = []
        for key in sorted(set(inbound) | set(outbound)):
            if key in inbound:
                units.append(PreloadEngine(key, inbound[key]))
            if key in outbound:
                units.append(OffloadEngine(key, outbound[key]))
        issue = MacArrayIssueStage(self.program.total_cycles)
        return engines, units, arbiters, issue

    def _execute(self) -> RtlSimulationResult:
        engines, units, arbiters, mac = self._build()
        retired: Dict[str, int] = {e.name: -1 for e in engines}
        ports_of: Dict[int, Tuple[PortKey, ...]] = {
            id(e): e.plan.ports for e in engines
        }

        t = 0
        iterations = 0
        jobs_done = 0
        preload_end: Optional[int] = None
        compute_end: Optional[int] = None

        while True:
            iterations += 1
            if t > self.max_cycles or iterations > self.max_cycles:
                raise RuntimeError(
                    f"RTL simulation exceeded {self.max_cycles} cycles "
                    f"({jobs_done} steps retired, t={t}, c={mac.c})"
                )

            # 1. Issue stage. Zero-bit steps retire in place (the event
            # engine completes them in zero time too), possibly enabling
            # dependents at the same cycle, so iterate to a fixed point.
            while True:
                issued_any = False
                for unit in units:
                    for step in unit.issue(mac.c, retired):
                        issued_any = True
                        if self.trace is not None:
                            self.trace.job_started(step.engine, step.seq, float(t))
                for engine in engines:
                    if engine.active is not None and all(
                        engine.pending(p) <= _EPS for p in ports_of[id(engine)]
                    ):
                        step = engine.maybe_retire()
                        if step is not None:
                            retired[engine.name] = step.seq
                            jobs_done += 1
                            if self.trace is not None:
                                self.trace.job_finished(
                                    step.engine, step.seq, float(t), step.bits
                                )
                            issued_any = True
                if not issued_any:
                    break

            # 2. Compute decision under the lowest blocking threshold.
            limit = math.inf
            for engine in engines:
                step = engine.frontier
                if step is not None:
                    limit = min(limit, step.threshold)
            computing = mac.can_issue(limit)
            if self.trace is not None:
                self.trace.compute_state(
                    computing or mac.finished, float(t), float(mac.c)
                )

            # 3. Arbitration: per-port fixed-priority grants. Contention
            # is judged on the pre-drain request pattern (two or more
            # requesters with pending bits on one port this cycle).
            grants: List[Tuple[TransferEngine, PortKey, float]] = []
            contending: List[PortKey] = []
            for key, arbiter in arbiters.items():
                requesters = [
                    e for e in engines
                    if e.active is not None and e.pending(key) > _EPS
                ]
                if not requesters:
                    continue
                if len(requesters) >= 2:
                    contending.append(key)
                for engine, rate in arbiter.arbitrate(requesters, cycles=0.0):
                    grants.append((engine, key, rate))

            # 4. Stride: how many cycles this exact pattern provably
            # repeats (no gate crossing, threshold block, compute finish
            # or leg drain strictly inside the run).
            n = 1
            if self.stride:
                bounds: List[int] = []
                if computing:
                    bounds.append(mac.total_cycles - mac.c)
                    if limit < math.inf:
                        bounds.append(max(1, math.ceil(limit - mac.c - _EPS)))
                    for engine in engines:
                        gate = engine.next_gate()
                        if gate is not None and gate > mac.c + _EPS:
                            bounds.append(max(1, math.ceil(gate - mac.c - _EPS)))
                for engine, key, rate in grants:
                    if rate > _EPS:
                        bounds.append(
                            max(1, int(engine.pending(key) / rate + _EPS))
                        )
                if bounds:
                    n = max(1, min(bounds))

            if not computing and not grants and not mac.finished:
                pending = [e.name for e in engines if not e.done]
                raise RuntimeError(
                    f"RTL simulation deadlock at t={t}, c={mac.c}; "
                    f"pending engines: {pending}"
                )

            # 5. Advance n cycles in one step (same arithmetic as n
            # single ticks — see the stride argument in the module doc).
            for key in contending:
                arbiters[key].contended_cycles += n
            for engine, key, rate in grants:
                engine.drain(key, rate * n)
                arbiters[key].busy_bits += rate * n

            if computing:
                if preload_end is None:
                    preload_end = t
                mac.issue(n)
                if mac.finished and compute_end is None:
                    compute_end = t + n
            elif not mac.finished:
                blockers = sorted({
                    e.plan.unit_memory for e in engines
                    if e.frontier is not None
                    and e.frontier.threshold <= mac.c + _EPS
                })
                mac.stall(float(n), blockers if preload_end is not None else [])
            t += n

            # 6. Retire at cycle end.
            for engine in engines:
                step = engine.maybe_retire()
                if step is not None:
                    retired[engine.name] = step.seq
                    jobs_done += 1
                    if self.trace is not None:
                        self.trace.job_finished(
                            step.engine, step.seq, float(t), step.bits
                        )

            if mac.finished and all(e.done for e in engines):
                break

        if compute_end is None:
            compute_end = t
        if preload_end is None:
            preload_end = 0
        if self.trace is not None:
            self.trace.finish(float(t))

        contended = sum(a.contended_cycles for a in arbiters.values())
        stall = max(0.0, mac.stall_cycles - float(preload_end))
        return RtlSimulationResult(
            total_cycles=float(t),
            compute_cycles=self.program.total_cycles,
            preload_cycles=float(preload_end),
            stall_cycles=stall,
            drain_tail_cycles=float(t - compute_end),
            port_busy={
                key: a.busy_bits for key, a in arbiters.items() if a.busy_bits > 0
            },
            jobs_completed=jobs_done,
            events=iterations,
            exact=self.program.integral and contended == 0.0,
            integral=self.program.integral,
            contended_port_cycles=contended,
            stall_by_memory=dict(mac.stall_by_memory),
            preload_bits=sum(
                u.bits_moved for u in units if u.direction == "preload"
            ),
            offload_bits=sum(
                u.bits_moved for u in units if u.direction == "offload"
            ),
        )
