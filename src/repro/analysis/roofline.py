"""Roofline analysis: where a (layer, mapping, machine) point sits.

Section II-A-2: "Its performance roofline is determined by hardware
parameters, such as MAC array size, interconnectivity, and memory
hierarchy." This module computes the classic roofline coordinates for a
mapping — operational intensity against the *global-buffer* traffic the
mapping actually generates (reuse included, unlike a naive layer-level
roofline) — and compares the roofline bound with what the uniform latency
model predicts and why they differ (window/keep-out effects the roofline
cannot see).
"""

from __future__ import annotations

import dataclasses
from typing import Dict

from repro.core.report import LatencyReport
from repro.energy.access_counts import count_accesses
from repro.hardware.accelerator import Accelerator
from repro.mapping.mapping import Mapping


@dataclasses.dataclass(frozen=True)
class RooflinePoint:
    """Roofline coordinates of one mapping on one machine."""

    macs: int
    boundary_bits: float
    peak_macs_per_cycle: float
    boundary_bw_bits: float

    @property
    def operational_intensity(self) -> float:
        """MACs per bit crossing the analyzed memory boundary."""
        if self.boundary_bits <= 0:
            return float("inf")
        return self.macs / self.boundary_bits

    @property
    def bandwidth_bound_macs_per_cycle(self) -> float:
        """Throughput ceiling imposed by the boundary bandwidth."""
        return self.operational_intensity * self.boundary_bw_bits

    @property
    def attainable_macs_per_cycle(self) -> float:
        """min(compute roof, bandwidth roof)."""
        return min(self.peak_macs_per_cycle, self.bandwidth_bound_macs_per_cycle)

    @property
    def bound(self) -> str:
        """``"compute"`` or ``"memory"`` — which roof is binding."""
        if self.bandwidth_bound_macs_per_cycle >= self.peak_macs_per_cycle:
            return "compute"
        return "memory"

    @property
    def min_cycles(self) -> float:
        """Roofline lower bound on the computation-phase cycle count."""
        return self.macs / self.attainable_macs_per_cycle

    def describe(self) -> str:
        """One-line summary."""
        return (
            f"OI={self.operational_intensity:.2f} MAC/bit, "
            f"attainable {self.attainable_macs_per_cycle:.1f} MAC/cyc "
            f"({self.bound}-bound), floor {self.min_cycles:.0f} cc"
        )


def roofline_point(
    accelerator: Accelerator,
    mapping: Mapping,
    boundary: str = "GB",
) -> RooflinePoint:
    """Roofline coordinates using the mapping's actual boundary traffic.

    ``boundary`` names the memory whose total read+write traffic defines
    the operational intensity (the global buffer by default — the paper's
    bottleneck). Port bandwidth is the sum of the memory's distinct port
    bandwidths (a read+write dual port can move both streams per cycle).
    """
    counts = count_accesses(accelerator, mapping)
    bits = counts.memory_reads(boundary) + counts.memory_writes(boundary)
    level = accelerator.memory_by_name(boundary)
    bw = sum(p.bandwidth for p in level.instance.ports) * level.instance.instances
    return RooflinePoint(
        macs=mapping.layer.total_macs,
        boundary_bits=bits,
        peak_macs_per_cycle=float(accelerator.mac_array.size),
        boundary_bw_bits=bw,
    )


@dataclasses.dataclass(frozen=True)
class RooflineComparison:
    """Roofline floor vs the uniform model's prediction."""

    point: RooflinePoint
    model_cycles: float
    spatial_cycles: int

    @property
    def roofline_cycles(self) -> float:
        """The larger of the roofline floor and the spatial-mapping floor."""
        return max(self.point.min_cycles, float(self.spatial_cycles))

    @property
    def stall_beyond_roofline(self) -> float:
        """Cycles the model predicts above the roofline floor.

        The roofline assumes perfectly schedulable traffic; the uniform
        model adds keep-out windows, port interference and periodic
        deadlines — this gap is exactly what Section III models.
        """
        return max(0.0, self.model_cycles - self.roofline_cycles)

    @property
    def roofline_optimism(self) -> float:
        """model / roofline — how much the roofline under-predicts."""
        return self.model_cycles / self.roofline_cycles


def compare_with_roofline(
    accelerator: Accelerator,
    mapping: Mapping,
    report: LatencyReport,
    boundary: str = "GB",
) -> RooflineComparison:
    """Bundle the roofline floor with the model's report for one mapping."""
    return RooflineComparison(
        point=roofline_point(accelerator, mapping, boundary),
        model_cycles=report.computation_cycles,
        spatial_cycles=report.cc_spatial,
    )


def roofline_sweep(
    accelerator: Accelerator,
    mappings: Dict[str, Mapping],
    boundary: str = "GB",
) -> Dict[str, RooflinePoint]:
    """Roofline coordinates for a set of labelled mappings."""
    return {
        label: roofline_point(accelerator, mapping, boundary)
        for label, mapping in mappings.items()
    }
