"""The latency report: every quantity of Fig. 1 plus the stall anatomy.

:func:`trace_report` projects a full report onto the ambient tracer as
the model's span subtree, so a trace always shows the numbers of the
report it was taken from.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Mapping, Optional, Tuple

from repro.core.dtl import DTL
from repro.core.step2 import PortCombination, ServedMemoryStall
from repro.core.step3 import StallIntegration, integrate_lane
from repro.hardware.accelerator import StallOverlapConfig
from repro.observability.telemetry import telemetry


@dataclasses.dataclass(frozen=True)
class LatencyBreakdown:
    """The four Fig. 7(b) latency components, in clock cycles."""

    preload: float
    ideal: float
    spatial_stall: float
    temporal_stall: float
    offload: float

    @property
    def total(self) -> float:
        """Overall layer latency (Section III-E)."""
        return (
            self.preload + self.ideal + self.spatial_stall
            + self.temporal_stall + self.offload
        )

    def as_dict(self) -> Dict[str, float]:
        """Plain-dict view for CSV/JSON export."""
        return {
            "preload": self.preload,
            "ideal": self.ideal,
            "spatial_stall": self.spatial_stall,
            "temporal_stall": self.temporal_stall,
            "offload": self.offload,
            "total": self.total,
        }


@dataclasses.dataclass(frozen=True)
class LatencyReport:
    """Everything the uniform latency model derives for one mapping.

    Attributes follow the paper's terminology: ``cc_ideal`` and
    ``cc_spatial`` from Fig. 1(b); ``ss_overall`` from Step 3; the
    utilization figures are ``U = CC_ideal / CC`` at the respective stage.
    """

    layer_name: str
    accelerator_name: str
    cc_ideal: float
    cc_spatial: int
    ss_overall: float
    preload: float
    offload: float
    scenario: int
    dtls: Tuple[DTL, ...]
    port_combinations: Mapping[Tuple[str, str], PortCombination]
    served_stalls: Tuple[ServedMemoryStall, ...]
    integration: Optional[StallIntegration]

    # ------------------------------------------------------------------ #

    @property
    def spatial_stall(self) -> float:
        """``CC_spatial - CC_ideal`` (Fig. 1b)."""
        return self.cc_spatial - self.cc_ideal

    @property
    def computation_cycles(self) -> float:
        """Computation-phase latency: ``CC_spatial + SS_overall``."""
        return self.cc_spatial + self.ss_overall

    @property
    def total_cycles(self) -> float:
        """Overall latency including data (off)loading."""
        return self.computation_cycles + self.preload + self.offload

    @property
    def utilization(self) -> float:
        """Overall MAC array utilization ``U = CC_ideal / CC``."""
        return self.cc_ideal / self.total_cycles

    @property
    def spatial_utilization(self) -> float:
        """``U_spatial = CC_ideal / CC_spatial``."""
        return self.cc_ideal / self.cc_spatial

    @property
    def temporal_utilization(self) -> float:
        """``U_temp = CC_spatial / (CC_spatial + SS_overall)``."""
        return self.cc_spatial / self.computation_cycles

    @property
    def breakdown(self) -> LatencyBreakdown:
        """The Fig. 7(b)-style component breakdown."""
        return LatencyBreakdown(
            preload=self.preload,
            ideal=self.cc_ideal,
            spatial_stall=self.spatial_stall,
            temporal_stall=self.ss_overall,
            offload=self.offload,
        )

    def bottlenecks(self, top: int = 3) -> Tuple[ServedMemoryStall, ...]:
        """The ``top`` largest unit-memory stalls (positive only)."""
        positive = [s for s in self.served_stalls if s.ss > 0]
        return tuple(sorted(positive, key=lambda s: -s.ss)[:top])

    def summary(self) -> str:
        """Multi-line human-readable report."""
        lines = [
            f"Layer {self.layer_name} on {self.accelerator_name} "
            f"(scenario {self.scenario}):",
            f"  CC_ideal      = {self.cc_ideal:12.1f}",
            f"  CC_spatial    = {self.cc_spatial:12d}   (spatial stall {self.spatial_stall:.1f})",
            f"  SS_overall    = {self.ss_overall:12.1f}   (temporal stall)",
            f"  preload       = {self.preload:12.1f}",
            f"  offload       = {self.offload:12.1f}",
            f"  TOTAL         = {self.total_cycles:12.1f}",
            f"  utilization   = {self.utilization:12.1%} "
            f"(spatial {self.spatial_utilization:.1%}, temporal {self.temporal_utilization:.1%})",
        ]
        bn = self.bottlenecks()
        if bn:
            lines.append("  bottlenecks:")
            lines.extend(f"    {s.describe()}" for s in bn)
        return "\n".join(lines)

    def as_dict(self) -> Dict[str, float]:
        """Flat numeric view for CSV/JSON export."""
        data = self.breakdown.as_dict()
        data.update(
            cc_spatial=float(self.cc_spatial),
            ss_overall=self.ss_overall,
            utilization=self.utilization,
            spatial_utilization=self.spatial_utilization,
            temporal_utilization=self.temporal_utilization,
            scenario=float(self.scenario),
        )
        return data


def trace_report(report: LatencyReport, overlap: StallOverlapConfig, options) -> None:
    """Emit ``report``'s model span subtree on the ambient tracer.

    ``model.evaluate`` with one child per step (``model.step1``,
    ``model.step2.ports``, ``model.step2.served``, ``model.step3``) and
    their per-DTL, per-port, per-memory and per-group events. ``report``
    must be full (``dtls`` and ``port_combinations`` present); the
    machine's stall-overlap groups and the
    :class:`~repro.core.step1.ModelOptions` are not in it, so the caller
    passes them. A no-op unless a tracer is ambient.
    """
    tracer = telemetry().tracer
    if not tracer.enabled:
        return
    served = report.served_stalls
    with tracer.span("model.evaluate") as span:
        with tracer.span("model.step1", dtls=len(report.dtls)):
            for dtl in report.dtls:
                tracer.event("step1.dtl", **dtl.span_attributes())
        ports = report.port_combinations
        with tracer.span(
            "model.step2.ports", ports=len(ports), combine_rule=options.combine_rule
        ):
            for comb in ports.values():
                tracer.event(
                    "step2.port",
                    memory=comb.memory,
                    port=comb.port,
                    dtls=len(comb.dtls),
                    req_bw_comb=comb.req_bw_comb,
                    muw_comb=comb.muw_comb,
                    ss_comb=comb.ss_comb,
                    # Positive per-DTL stalls switch the port to Eq. (2).
                    equation="eq2" if any(d.ss_u > 0 for d in comb.dtls) else "eq1",
                )
        with tracer.span("model.step2.served", rule=options.served_rule):
            for stall in served:
                tracer.event(
                    "step2.served",
                    operand=str(stall.operand),
                    level=stall.level,
                    memory=stall.memory,
                    ss=stall.ss,
                    limiting_port=f"{stall.limiting_port[0]}.{stall.limiting_port[1]}",
                )
        entries = [
            (overlap.group_of(stall.memory), stall.ss, stall.limiting_port)
            for stall in served
        ]
        __, per_group = integrate_lane(entries)
        with tracer.span(
            "model.step3", groups=len(per_group), ss_overall=report.ss_overall
        ):
            for gid, contribution, worst_idx in per_group:
                worst = served[worst_idx]
                members = [
                    stall for stall, entry in zip(served, entries) if entry[0] == gid
                ]
                tracer.event(
                    "step3.group",
                    group=gid,
                    members=len(members),
                    member_memories=",".join(sorted({s.memory for s in members})),
                    dominant_memory=worst.memory,
                    dominant_operand=str(worst.operand),
                    ss_group_raw=worst.ss,
                    ss_group=contribution,
                )
        span.set_many(
            layer=report.layer_name,
            accelerator=report.accelerator_name,
            scenario=report.scenario,
            cc_ideal=report.cc_ideal,
            cc_spatial=report.cc_spatial,
            ss_overall=report.ss_overall,
            preload=report.preload,
            offload=report.offload,
            total_cycles=report.total_cycles,
            utilization=report.utilization,
        )
