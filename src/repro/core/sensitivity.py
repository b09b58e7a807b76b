"""What-if analysis: latency sensitivity to memory bandwidth and capacity.

Case study 3 closes with the 3D-IC argument: high-bandwidth SRAM-on-logic
stacking (> 1024 bit/cycle) changes which designs win, and "the proposed
BW-aware latency model can aid in evaluating the impact of this new
technology on the design space". This module automates exactly that
question for a single design: sweep one memory's port bandwidth (or the
whole memory's capacity scale) and report the latency curve, its knee, and
the bandwidth beyond which the layer becomes compute-bound.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.step1 import ModelOptions
from repro.dse.mapper import MapperConfig, TemporalMapper
from repro.engine import EvaluationEngine
from repro.hardware.accelerator import Accelerator
from repro.mapping.mapping import Mapping, MappingError
from repro.workload.layer import LayerSpec


@dataclasses.dataclass(frozen=True)
class SensitivityPoint:
    """One point of a sensitivity curve."""

    value: float
    total_cycles: float
    ss_overall: float
    utilization: float


@dataclasses.dataclass(frozen=True)
class SensitivityCurve:
    """A latency-vs-parameter curve with convenience accessors."""

    parameter: str
    points: Tuple[SensitivityPoint, ...]

    def knee(self, tolerance: float = 0.02) -> Optional[SensitivityPoint]:
        """First point within ``tolerance`` of the best latency achieved.

        Beyond the knee, extra bandwidth/capacity buys (almost) nothing —
        the actionable number for a designer sizing an interconnect.
        """
        if not self.points:
            return None
        best = min(p.total_cycles for p in self.points)
        for p in self.points:
            if p.total_cycles <= best * (1 + tolerance):
                return p
        return None

    def compute_bound_from(self) -> Optional[float]:
        """Smallest parameter value with zero temporal stall (if any)."""
        for p in self.points:
            if p.ss_overall <= 0:
                return p.value
        return None

    def as_rows(self) -> List[Dict[str, float]]:
        """Flat rows for CSV export."""
        return [
            {
                self.parameter: p.value,
                "total_cycles": p.total_cycles,
                "ss_overall": p.ss_overall,
                "utilization": p.utilization,
            }
            for p in self.points
        ]


def scale_memory_bandwidth(
    accelerator: Accelerator, memory_name: str, bandwidth: float
) -> Accelerator:
    """Copy of ``accelerator`` with every port of ``memory_name`` set to
    ``bandwidth`` bits/cycle."""
    ports = accelerator.memory_by_name(memory_name).instance.ports
    return accelerator.replace_memory(
        memory_name, ports=tuple(dataclasses.replace(p, bandwidth=bandwidth) for p in ports)
    )


def scale_memory_capacity(
    accelerator: Accelerator, memory_name: str, size_bits: int
) -> Accelerator:
    """Copy of ``accelerator`` with ``memory_name`` resized."""
    return accelerator.replace_memory(memory_name, size_bits=size_bits)


class SensitivityAnalyzer:
    """Sweep a single hardware parameter and track the latency response."""

    def __init__(
        self,
        accelerator: Accelerator,
        spatial_unrolling,
        mapper_config: Optional[MapperConfig] = None,
        options: Optional[ModelOptions] = None,
        remap_per_point: bool = True,
        engine: Optional[EvaluationEngine] = None,
    ) -> None:
        self.accelerator = accelerator
        self.spatial_unrolling = spatial_unrolling
        self.mapper_config = mapper_config or MapperConfig(
            max_enumerated=100, samples=80
        )
        self.options = options or ModelOptions()
        #: Re-run the mapper for every swept point (the fair comparison —
        #: the best mapping changes with the hardware); False keeps the
        #: baseline machine's mapping fixed.
        self.remap_per_point = remap_per_point
        #: Root of the engine lineage shared across every swept machine:
        #: the mapper derives each machine's engine from it, pooling the
        #: cache and stats for the whole sweep.
        self.engine = engine or EvaluationEngine(
            accelerator, self.mapper_config.model_options
        )

    # ------------------------------------------------------------------ #

    def bandwidth_sweep(
        self,
        layer: LayerSpec,
        memory_name: str,
        bandwidths: Sequence[float],
    ) -> SensitivityCurve:
        """Latency vs. one memory's port bandwidth."""
        return self._sweep(
            layer,
            "bandwidth",
            bandwidths,
            lambda value: scale_memory_bandwidth(
                self.accelerator, memory_name, value
            ),
        )

    def capacity_sweep(
        self,
        layer: LayerSpec,
        memory_name: str,
        sizes_bits: Sequence[int],
    ) -> SensitivityCurve:
        """Latency vs. one memory's capacity."""
        return self._sweep(
            layer,
            "size_bits",
            sizes_bits,
            lambda value: scale_memory_capacity(
                self.accelerator, memory_name, int(value)
            ),
        )

    def _sweep(
        self,
        layer: LayerSpec,
        parameter: str,
        values: Sequence[float],
        build: Callable[[float], Accelerator],
    ) -> SensitivityCurve:
        baseline_mapping: Optional[Mapping] = None
        points: List[SensitivityPoint] = []
        for value in values:
            machine = build(value)
            try:
                if self.remap_per_point or baseline_mapping is None:
                    mapper = TemporalMapper(
                        machine,
                        self.spatial_unrolling,
                        self.mapper_config,
                        engine=self.engine,
                    )
                    best = mapper.best_mapping(layer)
                    mapping = best.mapping
                    if baseline_mapping is None:
                        baseline_mapping = mapping
                else:
                    mapping = baseline_mapping
                # The reported curve uses the analyzer's own ModelOptions,
                # which may differ from the mapper's search options.
                report = self.engine.derive(
                    accelerator=machine, options=self.options
                ).evaluate(mapping, validate=False)
            except MappingError:
                continue
            points.append(
                SensitivityPoint(
                    value=float(value),
                    total_cycles=report.total_cycles,
                    ss_overall=report.ss_overall,
                    utilization=report.utilization,
                )
            )
        return SensitivityCurve(parameter=parameter, points=tuple(points))
