"""Upgrade advisor: which hardware knob buys the most latency.

Section V-A's closing guidance ("match ReqBW with RealBW, or reduce the
frequent access of the low-BW link") made actionable: for a given (machine,
layer) pair the advisor tries every single-knob hardware upgrade — double
the bandwidth of one port set, double-buffer one memory, double one
memory's capacity — re-runs the mapper and model, and ranks the options by
latency saved. Each option is a *one-change* variant, so the ranking tells
a designer exactly where the next wire or SRAM bank should go.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional

from repro.core.sensitivity import scale_memory_bandwidth
from repro.dse.mapper import MapperConfig, TemporalMapper
from repro.engine import EvaluationEngine
from repro.hardware.accelerator import Accelerator
from repro.mapping.mapping import MappingError
from repro.workload.layer import LayerSpec


@dataclasses.dataclass(frozen=True)
class UpgradeOption:
    """One evaluated single-knob hardware change."""

    description: str
    memory: str
    kind: str                  # "bandwidth" | "double_buffer" | "capacity"
    baseline_cycles: float
    upgraded_cycles: float

    @property
    def saving(self) -> float:
        """Relative latency reduction (positive = faster)."""
        if self.baseline_cycles <= 0:
            return 0.0
        return 1.0 - self.upgraded_cycles / self.baseline_cycles

    def describe(self) -> str:
        """One-line summary."""
        return (
            f"{self.description}: {self.baseline_cycles:.0f} -> "
            f"{self.upgraded_cycles:.0f} cc ({self.saving:+.1%})"
        )


class UpgradeAdvisor:
    """Rank single-knob hardware upgrades for one layer."""

    def __init__(
        self,
        accelerator: Accelerator,
        spatial_unrolling,
        mapper_config: Optional[MapperConfig] = None,
        engine: Optional[EvaluationEngine] = None,
    ) -> None:
        self.accelerator = accelerator
        self.spatial_unrolling = spatial_unrolling
        self.mapper_config = mapper_config or MapperConfig(
            max_enumerated=80, samples=60
        )
        #: Root of the engine lineage shared by the baseline and every
        #: variant: the mapper derives each machine's engine from it.
        self.engine = engine or EvaluationEngine(
            accelerator, self.mapper_config.model_options
        )

    def _best_cycles(self, machine: Accelerator, layer: LayerSpec) -> Optional[float]:
        mapper = TemporalMapper(
            machine, self.spatial_unrolling, self.mapper_config, engine=self.engine
        )
        try:
            return mapper.best_mapping(layer).report.total_cycles
        except MappingError:
            return None

    def advise(self, layer: LayerSpec, min_saving: float = 0.01) -> List[UpgradeOption]:
        """Evaluate all single-knob upgrades; return those saving >= min_saving."""
        baseline = self._best_cycles(self.accelerator, layer)
        if baseline is None:
            raise MappingError(
                f"{layer.describe()} is unmappable on {self.accelerator.name}"
            )
        options: List[UpgradeOption] = []
        for level in self.accelerator.hierarchy.unique_levels():
            name = level.name
            inst = level.instance
            current_bw = max(p.bandwidth for p in inst.ports)

            candidates = [
                (
                    f"2x {name} port bandwidth ({current_bw:g} -> {2 * current_bw:g} b/cyc)",
                    "bandwidth",
                    scale_memory_bandwidth(self.accelerator, name, 2 * current_bw),
                ),
                (
                    f"2x {name} capacity",
                    "capacity",
                    self.accelerator.replace_memory(name, size_bits=inst.size_bits * 2),
                ),
            ]
            if not inst.double_buffered:
                candidates.append((
                    f"double-buffer {name}",
                    "double_buffer",
                    # The doubled size is the shadow copy.
                    self.accelerator.replace_memory(
                        name, double_buffered=True, size_bits=inst.size_bits * 2
                    ),
                ))
            for description, kind, machine in candidates:
                upgraded = self._best_cycles(machine, layer)
                if upgraded is None:
                    continue
                option = UpgradeOption(
                    description=description,
                    memory=name,
                    kind=kind,
                    baseline_cycles=baseline,
                    upgraded_cycles=min(upgraded, baseline),
                )
                if option.saving >= min_saving:
                    options.append(option)
        options.sort(key=lambda o: -o.saving)
        return options
