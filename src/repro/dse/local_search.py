"""Local search over loop orders: polish what sampling finds.

The sampled mapper covers the space broadly but coarsely; this module adds
a hill climber that takes the best sampled orders and repeatedly applies
adjacent transpositions and random pair swaps, keeping improvements. Loop
orders are a natural neighborhood space for this: most of the latency
structure (residencies, keep-out windows, psum round trips) changes
smoothly under adjacent swaps, so short climbs recover most of what
exhaustive enumeration would find at a tiny fraction of the cost.

Evaluations route through the wrapped mapper's
:class:`~repro.engine.EvaluationEngine`, so orders revisited across
restarts (different climbs converging on the same neighborhood) hit the
engine cache instead of re-running the model. Each climb round evaluates
its whole neighborhood as one engine batch — the vectorized batch core
plus the MUW partial-result memo make re-scoring a perturbed order cheap
(neighbors share almost all of their window unions with the incumbent) —
and then accepts the first improving neighbor in generation order, i.e.
the same move a neighbor-at-a-time first-improvement climb would take.
"""

from __future__ import annotations

import dataclasses
import random
import time
from typing import Iterator, List, Optional, Tuple

from repro.dse.mapper import MapperConfig, MappingSearchResult, TemporalMapper
from repro.mapping.mapping import Mapping, MappingError
from repro.observability.campaign import current_campaign
from repro.observability.progress import current_emitter
from repro.workload.dims import LoopDim
from repro.workload.layer import LayerSpec

Order = Tuple[Tuple[LoopDim, int], ...]


@dataclasses.dataclass(frozen=True)
class LocalSearchConfig:
    """Climb budget."""

    restarts: int = 4          # how many sampled seeds to polish
    max_steps: int = 200       # accepted+rejected moves per climb
    random_swaps: int = 2      # random non-adjacent swaps tried per round
    seed: int = 0


@dataclasses.dataclass(frozen=True)
class LocalSearchOutcome:
    """Result of one polishing run."""

    best: MappingSearchResult
    start_objective: float
    evaluations: int

    @property
    def improvement(self) -> float:
        """Relative objective improvement over the starting point."""
        if self.start_objective <= 0:
            return 0.0
        return 1.0 - self.best.objective / self.start_objective


class LocalSearchMapper:
    """Sampled search + hill climbing on the loop-order neighborhood."""

    def __init__(
        self,
        mapper: TemporalMapper,
        config: Optional[LocalSearchConfig] = None,
    ) -> None:
        self.mapper = mapper
        self.config = config or LocalSearchConfig()

    # ------------------------------------------------------------------ #

    def _evaluate_order(
        self, layer: LayerSpec, order: Order
    ) -> Optional[MappingSearchResult]:
        funnel = current_campaign().phase("local_search")
        funnel.admit()
        temporal = self.mapper.allocate(layer, order)
        try:
            mapping = Mapping(layer, self.mapper.spatial, temporal)
            return self.mapper.evaluate(mapping)
        except MappingError:
            funnel.discard("mapping-error")
            return None

    def _evaluate_orders(
        self, layer: LayerSpec, orders: List[Order]
    ) -> List[Optional[MappingSearchResult]]:
        """Score many orders in one engine batch; ``None`` per bad order."""
        funnel = current_campaign().phase("local_search")
        mappings: List[Optional[Mapping]] = []
        for order in orders:
            funnel.admit()
            temporal = self.mapper.allocate(layer, order)
            try:
                mappings.append(Mapping(layer, self.mapper.spatial, temporal))
            except MappingError:
                funnel.discard("mapping-error")
                mappings.append(None)
        feasible = [m for m in mappings if m is not None]
        outcomes = iter(
            self.mapper.engine.evaluate_many(
                feasible, validate=False, with_energy=self.mapper._wants_energy
            )
            if feasible
            else ()
        )
        results: List[Optional[MappingSearchResult]] = []
        for mapping in mappings:
            if mapping is None:
                results.append(None)
                continue
            outcome = next(outcomes)
            if outcome is None:
                funnel.discard("engine-infeasible")
                results.append(None)
                continue
            results.append(MappingSearchResult(
                outcome.mapping,
                outcome.report,
                outcome.energy,
                self.mapper._objective(outcome.report, outcome.energy),
                cache_hit=outcome.cache_hit,
            ))
        return results

    @staticmethod
    def _neighbors(order: Order, rng: random.Random, random_swaps: int) -> Iterator[Order]:
        n = len(order)
        for i in range(n - 1):
            if order[i] != order[i + 1]:
                swapped = list(order)
                swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
                yield tuple(swapped)
        for __ in range(random_swaps):
            i, j = rng.randrange(n), rng.randrange(n)
            if i != j and order[i] != order[j]:
                swapped = list(order)
                swapped[i], swapped[j] = swapped[j], swapped[i]
                yield tuple(swapped)

    def climb(
        self, layer: LayerSpec, start: Order
    ) -> Optional[LocalSearchOutcome]:
        """Hill-climb from one order; None if the start is not a valid mapping.

        Per round the whole neighborhood is evaluated as one engine batch
        and the first improving neighbor *in generation order* is
        accepted — the move a neighbor-at-a-time climb would make. The
        step budget counts generated neighbors either way; the extra
        scored neighbors land in the engine cache, so later rounds and
        restarts revisiting them are free.
        """
        campaign = current_campaign()
        rng = random.Random(self.config.seed)
        current = self._evaluate_order(layer, start)
        if current is None:
            return None
        campaign.observe(current.objective)
        start_objective = current.objective
        current_order = start
        evaluations = 1
        scored = 1
        steps = 0
        improved = True
        while improved and steps < self.config.max_steps:
            improved = False
            round_orders: List[Order] = []
            for neighbor in self._neighbors(
                current_order, rng, self.config.random_swaps
            ):
                steps += 1
                if steps >= self.config.max_steps:
                    break
                round_orders.append(neighbor)
            candidates = self._evaluate_orders(layer, round_orders)
            evaluations += len(round_orders)
            for candidate in candidates:
                if candidate is not None:
                    scored += 1
                    campaign.observe(candidate.objective)
            for neighbor, candidate in zip(round_orders, candidates):
                if candidate is not None and candidate.objective < current.objective:
                    current, current_order = candidate, neighbor
                    improved = True
                    break
        # The climb's final incumbent is its result; every other scored
        # candidate lost to it along the way.
        funnel = campaign.phase("local_search")
        funnel.retain(cache_hit=current.cache_hit)
        funnel.discard("worse-neighbor", scored - 1)
        return LocalSearchOutcome(
            best=current, start_objective=start_objective, evaluations=evaluations
        )

    def search(self, layer: LayerSpec) -> LocalSearchOutcome:
        """Sample seeds with the base mapper, polish the best few."""
        if not self.mapper.spatial.fits(self.mapper.accelerator.mac_array.size):
            raise MappingError(
                f"spatial mapping {self.mapper.spatial} does not fit "
                f"{self.mapper.accelerator.name}"
            )
        campaign = current_campaign()
        seeds: List[Tuple[float, Order]] = []
        for order in self.mapper.orders(layer):
            result = self._evaluate_order(layer, order)
            if result is not None:
                campaign.observe(result.objective)
                seeds.append((result.objective, order))
        if not seeds:
            raise MappingError(
                f"no valid mapping order for {layer.describe()} on "
                f"{self.mapper.accelerator.name}"
            )
        seeds.sort(key=lambda s: s[0])
        restarts = seeds[: self.config.restarts]
        # Seeds selected for polishing survive this stage; the rest are
        # truncated out exactly like the mapper's keep-top cut.
        funnel = campaign.phase("local_search")
        funnel.retain(len(restarts))
        funnel.discard("keep-top", len(seeds) - len(restarts))
        best_outcome: Optional[LocalSearchOutcome] = None
        with current_emitter().start_run(
            "local_search",
            total_units=len(restarts),
            unit="climbs",
            accelerator=self.mapper.accelerator.name,
            layer=layer.name or str(layer.layer_type),
        ) as run:
            for index, (objective, order) in enumerate(restarts):
                t0 = time.perf_counter()
                outcome = self.climb(layer, order)
                run.advance(
                    1,
                    errors=0 if outcome is not None else 1,
                    wall_s=time.perf_counter() - t0,
                    index=index,
                )
                if outcome is None:
                    continue
                if best_outcome is None or outcome.best.objective < best_outcome.best.objective:
                    best_outcome = dataclasses.replace(
                        outcome, start_objective=seeds[0][0]
                    )
                    run.best(
                        best_outcome.best.objective,
                        total_cycles=best_outcome.best.report.total_cycles,
                        utilization=best_outcome.best.report.utilization,
                        label=layer.name or str(layer.layer_type),
                    )
        assert best_outcome is not None
        return best_outcome
