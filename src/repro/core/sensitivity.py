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
from repro.hardware.hierarchy import MemoryHierarchy, MemoryLevel
from repro.hardware.port import Port
from repro.mapping.mapping import Mapping, MappingError
from repro.workload.layer import LayerSpec
from repro.workload.operand import Operand


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


def _scale_memory_bandwidth(
    accelerator: Accelerator, memory_name: str, bandwidth: float
) -> Accelerator:
    """Copy of ``accelerator`` with every port of ``memory_name`` set to
    ``bandwidth`` bits/cycle."""
    old_level = accelerator.memory_by_name(memory_name)
    old_inst = old_level.instance
    new_ports = tuple(
        Port(p.name, p.direction, bandwidth) for p in old_inst.ports
    )
    new_inst = dataclasses.replace(old_inst, ports=new_ports)
    new_level = MemoryLevel(
        new_inst, old_level.serves, old_level.allocation, old_level.capacity_share
    )
    return _swap_level(accelerator, old_level, new_level)


def _scale_memory_capacity(
    accelerator: Accelerator, memory_name: str, size_bits: int
) -> Accelerator:
    """Copy of ``accelerator`` with ``memory_name`` resized."""
    old_level = accelerator.memory_by_name(memory_name)
    new_inst = dataclasses.replace(old_level.instance, size_bits=size_bits)
    new_level = MemoryLevel(
        new_inst, old_level.serves, old_level.allocation, old_level.capacity_share
    )
    return _swap_level(accelerator, old_level, new_level)


def _swap_level(
    accelerator: Accelerator, old: MemoryLevel, new: MemoryLevel
) -> Accelerator:
    chains = {}
    for op in Operand:
        chains[op] = tuple(
            new if lvl is old else lvl
            for lvl in accelerator.hierarchy.levels(op)
        )
    return dataclasses.replace(
        accelerator, hierarchy=MemoryHierarchy(chains)
    )


# Public aliases for the machine-variant builders (used by the advisor
# and by user scripts constructing what-if variants).
scale_memory_bandwidth = _scale_memory_bandwidth
scale_memory_capacity = _scale_memory_capacity
swap_level = _swap_level


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
        #: Engine lineage shared across every swept machine: per-machine
        #: engines are derived from it, pooling the cache, stats and
        #: executor for the whole sweep.
        self.engine = engine

    def _engine_for(self, machine: Accelerator) -> EvaluationEngine:
        if self.engine is None:
            self.engine = EvaluationEngine(
                machine, self.mapper_config.model_options
            )
        elif self.engine.accelerator is not machine:
            self.engine = self.engine.derive(accelerator=machine)
        return self.engine

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
            lambda value: _scale_memory_bandwidth(
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
            lambda value: _scale_memory_capacity(
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
            engine = self._engine_for(machine)
            try:
                if self.remap_per_point or baseline_mapping is None:
                    mapper = TemporalMapper(
                        machine,
                        self.spatial_unrolling,
                        self.mapper_config,
                        engine=engine,
                    )
                    best = mapper.best_mapping(layer)
                    mapping = best.mapping
                    if baseline_mapping is None:
                        baseline_mapping = mapping
                else:
                    mapping = baseline_mapping
                # The reported curve uses the analyzer's own ModelOptions,
                # which may differ from the mapper's search options.
                report = engine.derive(options=self.options).evaluate(
                    mapping, validate=False
                )
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
