"""Whole-network evaluation: apply the intra-layer model layer by layer.

The paper's model is intra-layer by design ("builds a solid foundation for
future work of modeling and optimizing latency in cross-layer multi-core
DNN mapping scenarios" — Section VI). This module provides the natural
layer-by-layer composition a user needs today: lower each layer (Im2Col
when requested), search a mapping, evaluate latency and energy, and sum —
assuming layers run back to back with their (off)loading phases exposed,
which is an upper bound on a pipelined deployment.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Dict, List, Optional, Sequence

from repro.core.report import LatencyReport
from repro.dse.mapper import MapperConfig, TemporalMapper
from repro.energy.energy_model import EnergyReport
from repro.engine import EvaluationEngine
from repro.hardware.presets import Preset
from repro.mapping.mapping import Mapping, MappingError
from repro.observability.campaign import current_campaign
from repro.observability.ledger import checkpoint_interruption
from repro.observability.metrics import current_metrics
from repro.observability.progress import current_emitter
from repro.observability.tracer import current_tracer
from repro.workload.im2col import im2col
from repro.workload.layer import LayerSpec


@dataclasses.dataclass(frozen=True)
class LayerResult:
    """One layer's mapping, latency and (optional) energy."""

    layer: LayerSpec
    mapping: Mapping
    report: LatencyReport
    energy: Optional[EnergyReport]

    @property
    def cycles(self) -> float:
        """Layer latency in cycles."""
        return self.report.total_cycles


@dataclasses.dataclass(frozen=True)
class NetworkResult:
    """Aggregate of every layer of a network on one machine."""

    accelerator_name: str
    layers: Sequence[LayerResult]
    skipped: Sequence[str]

    @property
    def total_cycles(self) -> float:
        """Sum of layer latencies (back-to-back execution)."""
        return sum(r.cycles for r in self.layers)

    @property
    def total_macs(self) -> int:
        """Total MAC operations across the network."""
        return sum(r.layer.total_macs for r in self.layers)

    @property
    def utilization(self) -> float:
        """Network-level MAC utilization at the machine's peak rate."""
        if not self.layers:
            return 0.0
        peak = self.total_cycles * self._array_size()
        return self.total_macs / peak if peak else 0.0

    def _array_size(self) -> int:
        # All layer reports share one machine; recover its array size from
        # the per-layer ideal cycles.
        first = self.layers[0]
        return round(first.layer.total_macs / first.report.cc_ideal)

    @property
    def total_energy_pj(self) -> Optional[float]:
        """Total dynamic energy, when energy evaluation was requested."""
        if any(r.energy is None for r in self.layers):
            return None
        return sum(r.energy.total_pj for r in self.layers)

    def dominant_layers(self, top: int = 3) -> List[LayerResult]:
        """The layers that dominate the network latency."""
        return sorted(self.layers, key=lambda r: -r.cycles)[:top]

    def summary(self) -> str:
        """Multi-line human-readable report."""
        lines = [
            f"Network on {self.accelerator_name}: "
            f"{len(self.layers)} layers, {self.total_macs} MACs",
            f"  total latency : {self.total_cycles:12.0f} cc",
            f"  utilization   : {self.utilization:12.1%}",
        ]
        energy = self.total_energy_pj
        if energy is not None:
            lines.append(f"  total energy  : {energy / 1e6:12.3f} uJ")
        lines.append("  dominant layers:")
        for r in self.dominant_layers():
            lines.append(
                f"    {r.layer.name or '?':12s} {r.cycles:12.0f} cc "
                f"(U {r.report.utilization:6.1%})"
            )
        if self.skipped:
            lines.append(f"  skipped (unmappable): {', '.join(self.skipped)}")
        return "\n".join(lines)


class NetworkEvaluator:
    """Run every layer of a network through mapper + latency (+ energy).

    Evaluations route through one :class:`EvaluationEngine`, so networks
    with repeated layer shapes (residual stacks, repeated blocks) search
    and evaluate each distinct shape once — pass a shared ``engine`` to
    pool the cache across machines or enable the process executor.
    """

    def __init__(
        self,
        preset: Preset,
        mapper_config: Optional[MapperConfig] = None,
        apply_im2col: bool = True,
        with_energy: bool = False,
        engine: Optional[EvaluationEngine] = None,
    ) -> None:
        self.preset = preset
        self.mapper = TemporalMapper(
            preset.accelerator,
            preset.spatial_unrolling,
            mapper_config or MapperConfig(max_enumerated=150, samples=100),
            engine=engine,
        )
        self.engine = self.mapper.engine
        self.with_energy = with_energy
        self.apply_im2col = apply_im2col

    def evaluate(self, layers: Sequence[LayerSpec]) -> NetworkResult:
        """Evaluate ``layers`` back to back.

        With an ambient progress emitter the network is a
        ``unit="layers"`` run — one chunk event per layer (nested mapper
        runs handle per-evaluation granularity) — and a Ctrl-C between
        layers leaves a ``kind="interrupted"`` ledger row naming how
        many layers completed.
        """
        tracer = current_tracer()
        metrics = current_metrics()
        campaign = current_campaign()
        funnel = campaign.phase("network")
        with current_emitter().start_run(
            "network.evaluate",
            total_units=len(layers),
            unit="layers",
            accelerator=self.preset.accelerator.name,
        ) as run, tracer.span(
            "network.evaluate",
            accelerator=self.preset.accelerator.name,
            layers=len(layers),
        ) as span:
            results: List[LayerResult] = []
            skipped: List[str] = []
            try:
                for index, layer in enumerate(layers):
                    name = layer.name or str(layer.layer_type)
                    lowered = im2col(layer) if self.apply_im2col else layer
                    funnel.admit()
                    layer_t0 = time.perf_counter()
                    with tracer.span("network.layer", layer=name) as layer_span:
                        metrics.counter(
                            "repro_network_layers_total",
                            "Network layers submitted for evaluation.",
                        ).inc()
                        try:
                            best = self.mapper.best_mapping(lowered)
                        except MappingError:
                            skipped.append(name)
                            funnel.discard("unmappable-layer")
                            layer_span.set("mappable", False)
                            run.advance(
                                1, errors=1,
                                wall_s=time.perf_counter() - layer_t0,
                                index=index, note=name,
                            )
                            continue
                        energy = (
                            self.engine.evaluate_energy(best.mapping)
                            if self.with_energy
                            else None
                        )
                        if tracer.enabled:
                            layer_span.set_many(
                                mappable=True,
                                cycles=best.report.total_cycles,
                                utilization=best.report.utilization,
                            )
                        funnel.retain()
                        results.append(
                            LayerResult(
                                layer=lowered, mapping=best.mapping,
                                report=best.report, energy=energy,
                            )
                        )
                        run.advance(
                            1,
                            wall_s=time.perf_counter() - layer_t0,
                            index=index, note=name,
                        )
            except KeyboardInterrupt:
                checkpoint_interruption(
                    "network.evaluate",
                    done_units=len(results) + len(skipped),
                    total_units=len(layers),
                    unit="layers",
                    campaign=campaign,
                )
                raise
            result = NetworkResult(
                accelerator_name=self.preset.accelerator.name,
                layers=tuple(results),
                skipped=tuple(skipped),
            )
            if tracer.enabled:
                span.set("total_cycles", result.total_cycles)
                span.set("skipped", len(result.skipped))
        return result

    def layer_table(self, result: NetworkResult) -> List[Dict[str, float]]:
        """Flat per-layer rows for CSV export."""
        rows = []
        for r in result.layers:
            row: Dict[str, float] = {"layer": r.layer.name}  # type: ignore[dict-item]
            row["macs"] = float(r.layer.total_macs)
            row.update(r.report.as_dict())
            if r.energy is not None:
                row["energy_pj"] = r.energy.total_pj
            rows.append(row)
        return rows
