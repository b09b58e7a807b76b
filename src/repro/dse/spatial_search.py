"""Spatial-mapping search: which loops to unroll across the MAC array.

The paper fixes one spatial unrolling per machine (e.g. ``K16|B8|C2``) and
scales it by hand in Case study 3. A full AHM explorer must also search
this axis (Section II-A-3: "Ideal spatial mapping fully utilizes the MAC
array"), so this module enumerates candidate unrollings for an array size
and runs the temporal mapper under each.

Candidates are factorizations of (at most) the array size over the layer's
dimensions, pruned to those that keep spatial utilization above a floor.
The output-lane constraint of the register-file template is respected: the
product of output-relevant unrolls (K, B, OX, OY) must not exceed the
available accumulator lanes.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from typing import Dict, Iterator, List, Optional, Tuple

from repro.dse.factorize import prime_factors
from repro.dse.mapper import MapperConfig, MappingSearchResult, TemporalMapper
from repro.engine import EvaluationEngine
from repro.hardware.accelerator import Accelerator
from repro.mapping.mapping import MappingError
from repro.mapping.spatial import SpatialMapping
from repro.observability.telemetry import telemetry
from repro.workload.dims import LoopDim
from repro.workload.layer import LayerSpec
from repro.workload.operand import Operand


@dataclasses.dataclass(frozen=True)
class SpatialSearchConfig:
    """Budget and pruning knobs for the spatial search."""

    dims: Tuple[LoopDim, ...] = (LoopDim.K, LoopDim.B, LoopDim.C)
    min_spatial_utilization: float = 0.5
    max_candidates: int = 64
    require_full_array: bool = False
    mapper_config: MapperConfig = dataclasses.field(
        default_factory=lambda: MapperConfig(max_enumerated=100, samples=80)
    )


@dataclasses.dataclass(frozen=True)
class SpatialSearchResult:
    """Best mapping found under one spatial unrolling."""

    spatial: SpatialMapping
    result: MappingSearchResult

    @property
    def total_cycles(self) -> float:
        """Latency of the best temporal mapping under this unrolling."""
        return self.result.report.total_cycles


def enumerate_unrollings(
    layer: LayerSpec,
    array_size: int,
    config: Optional[SpatialSearchConfig] = None,
) -> Iterator[SpatialMapping]:
    """Candidate spatial unrollings for ``layer`` on ``array_size`` MACs.

    Splits the array size's prime factors over the configured dimensions in
    every distinct way, clamps factors to the layer bounds, and prunes
    duplicates and low-utilization candidates.
    """
    config = config or SpatialSearchConfig()
    primes = prime_factors(array_size)
    dims = config.dims
    seen: set = set()
    emitted = 0
    # Assign each prime factor to one of the dims (or drop it -> smaller array use).
    choices = list(range(len(dims))) + [-1]
    for assignment in itertools.product(choices, repeat=len(primes)):
        factors: Dict[LoopDim, int] = {d: 1 for d in dims}
        for prime, slot in zip(primes, assignment):
            if slot >= 0:
                factors[dims[slot]] *= prime
        if config.require_full_array and -1 in assignment:
            continue
        # Clamp to layer bounds: unrolling beyond the bound idles MACs for
        # nothing — fold the excess away instead.
        clamped = {
            d: min(f, layer.size(d)) for d, f in factors.items() if f > 1
        }
        mapping = SpatialMapping(clamped)
        key = tuple(sorted((d.value, f) for d, f in mapping.unrolling.items()))
        if key in seen:
            continue
        seen.add(key)
        if mapping.total_unrolling > array_size:
            continue
        if mapping.spatial_utilization(layer, array_size) < config.min_spatial_utilization:
            continue
        yield mapping
        emitted += 1
        if emitted >= config.max_candidates:
            return


def output_lanes_needed(spatial: SpatialMapping) -> int:
    """Accumulator lanes a spatial unrolling demands (O-relevant product)."""
    lanes = 1
    for dim, factor in spatial.unrolling.items():
        if dim in (LoopDim.K, LoopDim.B, LoopDim.OX, LoopDim.OY):
            lanes *= factor
    return lanes


class SpatialSearch:
    """Joint spatial + temporal mapping search on one accelerator.

    Every candidate unrolling's temporal search runs through one shared
    :class:`EvaluationEngine`, so the latency of a (mapping) revisited
    under two unrollings is evaluated once and ``search.engine.stats``
    covers the whole joint search.
    """

    def __init__(
        self,
        accelerator: Accelerator,
        config: Optional[SpatialSearchConfig] = None,
        engine: Optional[EvaluationEngine] = None,
    ) -> None:
        self.accelerator = accelerator
        self.config = config or SpatialSearchConfig()
        self.engine = engine or EvaluationEngine(
            accelerator, self.config.mapper_config.model_options
        )

    def candidates(self, layer: LayerSpec) -> List[SpatialMapping]:
        """Feasible unrollings (array size + accumulator lanes respected)."""
        array = self.accelerator.mac_array.size
        o_reg = self.accelerator.hierarchy.innermost(Operand.O).instance
        lanes = o_reg.instances
        funnel = telemetry().campaign.phase("spatial_search")
        out = []
        for spatial in enumerate_unrollings(layer, array, self.config):
            funnel.admit()
            if output_lanes_needed(spatial) <= max(lanes, 1):
                out.append(spatial)
            else:
                funnel.discard("lane-overflow")
        return out

    def search(self, layer: LayerSpec) -> List[SpatialSearchResult]:
        """Best temporal mapping per candidate unrolling, best first."""
        funnel = telemetry().campaign.phase("spatial_search")
        results: List[SpatialSearchResult] = []
        for spatial in self.candidates(layer):
            mapper = TemporalMapper(
                self.accelerator,
                spatial,
                self.config.mapper_config,
                engine=self.engine,
            )
            try:
                best = mapper.best_mapping(layer)
            except MappingError:
                funnel.discard("unmappable-spatial")
                continue
            funnel.retain()
            results.append(SpatialSearchResult(spatial, best))
        results.sort(key=lambda r: r.total_cycles)
        return results

    def best(self, layer: LayerSpec) -> SpatialSearchResult:
        """The jointly-optimal (spatial, temporal) mapping."""
        results = self.search(layer)
        if not results:
            raise MappingError(
                f"no feasible spatial mapping of {layer.describe()} on "
                f"{self.accelerator.name}"
            )
        return results[0]


def utilization_ceiling(layer: LayerSpec, array_size: int) -> float:
    """Best achievable spatial utilization over all candidate unrollings."""
    best = 0.0
    for spatial in enumerate_unrollings(
        layer, array_size, SpatialSearchConfig(min_spatial_utilization=0.0)
    ):
        best = max(best, spatial.spatial_utilization(layer, array_size))
        if math.isclose(best, 1.0):
            break
    return best
