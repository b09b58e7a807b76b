"""Architecture design-space exploration (Case study 3).

Sweeps MAC-array sizes x memory-pool candidates x GB bandwidths, runs the
mapper ("for each design point, mapping optimization for lowest latency is
performed"), and records the latency-area coordinates of every design. The
same sweep can run under the BW-unaware baseline to regenerate Fig. 8(a).
"""

from __future__ import annotations

import dataclasses
import time
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.baseline import BwUnawareModel
from repro.dse.mapper import MapperConfig, TemporalMapper
from repro.dse.pareto import pareto_front
from repro.engine import EvaluationEngine
from repro.hardware.pool import MemoryCandidate, MemoryPool, searched_memory_names
from repro.hardware.presets import Preset
from repro.mapping.mapping import MappingError
from repro.observability.ledger import checkpoint_interruption
from repro.observability.telemetry import telemetry
from repro.workload.layer import LayerSpec


@dataclasses.dataclass(frozen=True)
class ArchSearchConfig:
    """What to sweep and how hard to search mappings per design."""

    array_scales: Dict[str, Tuple[int, int, int]]
    pool: MemoryPool
    gb_bandwidths: Sequence[float] = (128.0,)
    bw_aware: bool = True
    with_energy: bool = False
    mapper_config: MapperConfig = dataclasses.field(
        default_factory=lambda: MapperConfig(
            max_enumerated=400, samples=200, keep_top=1
        )
    )


@dataclasses.dataclass(frozen=True)
class ArchPoint:
    """One evaluated hardware design."""

    array_label: str
    candidate: MemoryCandidate
    gb_bandwidth: float
    area_mm2: float
    latency: float
    utilization: float
    accelerator_name: str
    energy_pj: Optional[float] = None

    def coords(self) -> Tuple[float, float]:
        """(area, latency) for Pareto extraction."""
        return (self.area_mm2, self.latency)

    def coords3(self) -> Tuple[float, float, float]:
        """(area, latency, energy) for the 3-objective front."""
        if self.energy_pj is None:
            raise ValueError("energy not evaluated; set with_energy=True")
        return (self.area_mm2, self.latency, self.energy_pj)

    @property
    def edp(self) -> Optional[float]:
        """Energy-delay product (pJ x cycles), when energy was evaluated."""
        if self.energy_pj is None:
            return None
        return self.energy_pj * self.latency


class ArchSearch:
    """Run the Case-study-3 sweep for one layer.

    All design points evaluate through one :class:`EvaluationEngine`
    lineage (per-machine engines derived from a shared cache and stats),
    so revisited (machine, mapping) pairs are free and
    ``search.engine.stats`` summarizes the whole sweep. Pass ``engine``
    to pool evaluations with an outer flow.
    """

    def __init__(
        self, config: ArchSearchConfig, engine: Optional[EvaluationEngine] = None
    ) -> None:
        self.config = config
        self.engine = engine

    def _engine_for(self, accelerator) -> EvaluationEngine:
        if self.engine is None:
            self.engine = EvaluationEngine(
                accelerator, self.config.mapper_config.model_options
            )
        elif self.engine.accelerator is not accelerator:
            self.engine = self.engine.derive(accelerator=accelerator)
        return self.engine

    def design_points(self) -> Iterator[Tuple[str, float, MemoryCandidate, Preset]]:
        """Every (array label, GB BW, candidate, preset) in the sweep."""
        for label, (k, b, c) in self.config.array_scales.items():
            for gb_bw in self.config.gb_bandwidths:
                for cand, preset in self.config.pool.build(k, b, c, gb_read_bw=gb_bw):
                    yield label, gb_bw, cand, preset

    def space_size(self) -> int:
        """Number of design points the sweep will visit."""
        return (
            len(self.config.array_scales)
            * len(self.config.gb_bandwidths)
            * len(self.config.pool)
        )

    def evaluate(self, layer: LayerSpec) -> List[ArchPoint]:
        """Evaluate the whole sweep on ``layer``; unmappable designs skipped.

        With an ambient progress emitter the sweep is one
        ``unit="points"`` run: each design point becomes a chunk event
        (with the point's wall time, measured here in the parent), every
        new lowest-latency design a :class:`BestSoFar`, and a Ctrl-C
        between points a :class:`RunInterrupted` plus a
        ``kind="interrupted"`` ledger row recording how many points were
        covered.
        """
        t = telemetry()
        tracer, campaign = t.tracer, t.campaign
        funnel = campaign.phase("arch_search")
        layer_name = layer.name or str(layer.layer_type)
        with t.progress.start_run(
            "arch_search.sweep",
            total_units=self.space_size(),
            unit="points",
            layer=layer_name,
        ) as run, tracer.span("arch_search.sweep", layer=layer_name) as span:
            points: List[ArchPoint] = []
            skipped = 0
            try:
                for index, (label, gb_bw, cand, preset) in enumerate(
                    self.design_points()
                ):
                    t0 = time.perf_counter()
                    funnel.admit()
                    point = self.evaluate_one(layer, label, gb_bw, cand, preset)
                    if point is not None:
                        points.append(point)
                        funnel.retain()
                        # Snapshot the front at power-of-two point counts:
                        # O(log n) snapshots over a sweep.
                        if campaign.enabled and len(points) & (len(points) - 1) == 0:
                            campaign.pareto_snapshot(
                                "arch_search",
                                [p.coords() for p in self.front(points)],
                                label=f"@{len(points)}",
                            )
                    else:
                        skipped += 1
                        funnel.discard("unmappable-design")
                    run.advance(
                        1,
                        errors=0 if point is not None else 1,
                        wall_s=time.perf_counter() - t0,
                        index=index,
                        note=preset.accelerator.name,
                    )
                    if point is not None:
                        run.best(
                            point.latency,
                            total_cycles=point.latency,
                            utilization=point.utilization,
                            label=point.accelerator_name,
                        )
            except KeyboardInterrupt:
                checkpoint_interruption(
                    "arch_search.sweep",
                    done_units=len(points) + skipped,
                    total_units=self.space_size(),
                    unit="points",
                    campaign=campaign,
                )
                raise
            if campaign.enabled and points:
                campaign.pareto_snapshot(
                    "arch_search",
                    [p.coords() for p in self.front(points)],
                    label="final",
                )
            if tracer.enabled:
                span.set("design_points", len(points) + skipped)
                span.set("mappable", len(points))
                span.set("unmappable", skipped)
        return points

    def evaluate_one(
        self,
        layer: LayerSpec,
        label: str,
        gb_bw: float,
        cand: MemoryCandidate,
        preset: Preset,
    ) -> Optional[ArchPoint]:
        """Best-mapping latency and area of one design point."""
        accelerator = preset.accelerator
        t = telemetry()
        tracer = t.tracer
        t.metrics.counter(
            "repro_arch_points_total", "Architecture design points evaluated."
        ).inc()
        with tracer.span(
            "arch_search.point",
            array=label,
            gb_bandwidth=gb_bw,
            accelerator=accelerator.name,
        ) as span:
            point = self._evaluate_point(layer, label, gb_bw, cand, preset)
            if tracer.enabled:
                span.set("mappable", point is not None)
                if point is not None:
                    span.set("latency", point.latency)
                    span.set("area_mm2", point.area_mm2)
        return point

    def _evaluate_point(
        self,
        layer: LayerSpec,
        label: str,
        gb_bw: float,
        cand: MemoryCandidate,
        preset: Preset,
    ) -> Optional[ArchPoint]:
        accelerator = preset.accelerator
        mapper = TemporalMapper(
            accelerator,
            preset.spatial_unrolling,
            self.config.mapper_config,
            engine=self._engine_for(accelerator),
        )
        energy_pj: Optional[float] = None
        try:
            if self.config.bw_aware:
                best = mapper.best_mapping(layer)
                latency = best.report.total_cycles
                utilization = best.report.utilization
                if self.config.with_energy:
                    energy_pj = mapper.engine.evaluate_energy(
                        best.mapping
                    ).total_pj
            else:
                # The Fig. 8(a) baseline: computation-phase latency only,
                # no temporal stalls and no memory-size-dependent loading —
                # which is why same-array designs collapse onto one latency.
                baseline = BwUnawareModel(accelerator, include_loading=False)
                campaign = telemetry().campaign
                latency = float("inf")
                utilization = 0.0
                scored = 0
                for mapping in mapper.mappings(layer):
                    report = baseline.evaluate(mapping)
                    scored += 1
                    campaign.observe(report.total_cycles)
                    if report.total_cycles < latency:
                        latency = report.total_cycles
                        utilization = report.utilization
                if scored:
                    # mappings() admitted these candidates into the
                    # mapper funnel; the baseline scored them outside the
                    # engine, so classify them here: one winner, the rest
                    # beaten by it.
                    mapper_funnel = campaign.phase("mapper")
                    mapper_funnel.retain()
                    mapper_funnel.discard("beaten-incumbent", scored - 1)
                if latency == float("inf"):
                    return None
        except MappingError:
            return None
        area = accelerator.area_mm2(include=searched_memory_names())
        return ArchPoint(
            array_label=label,
            candidate=cand,
            gb_bandwidth=gb_bw,
            area_mm2=area,
            latency=latency,
            utilization=utilization,
            accelerator_name=accelerator.name,
            energy_pj=energy_pj,
        )

    @staticmethod
    def front(points: Sequence[ArchPoint]) -> List[ArchPoint]:
        """Latency-area Pareto front (minimize both)."""
        return pareto_front(list(points), key=lambda p: p.coords())

    @staticmethod
    def front3(points: Sequence[ArchPoint]) -> List[ArchPoint]:
        """Latency-area-energy Pareto front (requires with_energy=True)."""
        return pareto_front(list(points), key=lambda p: p.coords3())

    @staticmethod
    def best_per_array(points: Sequence[ArchPoint]) -> Dict[str, ArchPoint]:
        """Lowest-latency design per MAC-array size (Fig. 8's highlights)."""
        best: Dict[str, ArchPoint] = {}
        for p in points:
            if p.array_label not in best or p.latency < best[p.array_label].latency:
                best[p.array_label] = p
        return best
