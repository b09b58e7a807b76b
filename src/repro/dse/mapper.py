"""LOMA-style temporal-mapping search (the ZigZag-mapper stand-in).

For a layer and a fixed spatial unrolling the mapper:

1. splits every remaining temporal loop bound into prime factors, giving a
   multiset of (dimension, factor) loops;
2. enumerates distinct loop orders — exhaustively when the multinomial
   count is small, otherwise a deterministic enumeration prefix plus
   uniform random samples;
3. allocates the orders, ``batch_size`` at a time as int columns, onto
   every operand's memory chain bottom-up and greedily (push each loop to
   the lowest level whose mapper-visible capacity still holds the grown
   tile — maximizing low-level reuse, which is how ZigZag's allocator
   behaves);
4. evaluates the requested objective (latency via the uniform model,
   energy, or EDP) and returns the ranked results.

Case study 1's Mapping A and B are two points of this space; Case study 3
runs :meth:`TemporalMapper.best_mapping` for every architecture candidate
("for each design point, mapping optimization for lowest latency is
performed").
"""

from __future__ import annotations

import dataclasses
import itertools
import random
from typing import (
    Dict, Iterator, List, Mapping as TMapping, Optional, Sequence, Tuple, Union,
)

import numpy as np

from repro.core.report import LatencyReport
from repro.core.step1 import ModelOptions
from repro.dse.factorize import (
    count_permutations,
    multiset_permutations,
    prime_factors,
    sample_permutations,
)
from repro.energy.energy_model import EnergyReport
from repro.engine import EvaluationEngine
from repro.hardware.accelerator import Accelerator
from repro.mapping.footprint import extent_elements, spatial_replication
from repro.mapping.loop import Loop
from repro.mapping.mapping import Mapping, MappingError
from repro.mapping.spatial import SpatialMapping
from repro.mapping.temporal import TemporalMapping
from repro.observability.campaign import current_campaign
from repro.observability.metrics import current_metrics
from repro.observability.progress import current_emitter
from repro.observability.tracer import current_tracer
from repro.workload.dims import ALL_DIMS, LoopDim
from repro.workload.layer import LayerSpec
from repro.workload.operand import Operand


#: Column code of each loop dimension in :func:`order_columns`.
_DIM_CODE = {dim: code for code, dim in enumerate(ALL_DIMS)}
_DIM_CODES = np.arange(len(ALL_DIMS))


def order_columns(
    orders: Sequence[Sequence[Tuple[LoopDim, int]]],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A block of loop orders as int64 ``(dims, sizes, lengths)`` columns.

    ``dims[i, j]`` is the position of loop ``j`` of order ``i``'s dimension
    in ``ALL_DIMS`` and ``sizes[i, j]`` its size. Shorter orders are padded
    to the longest with dimension ``-1`` and size ``1``, which grow no
    extent; ``lengths`` holds each order's own length.
    """
    lengths = np.fromiter(map(len, orders), dtype=np.int64, count=len(orders))
    width = int(lengths.max(initial=0))
    dims = np.full((len(orders), width), -1, dtype=np.int64)
    sizes = np.ones((len(orders), width), dtype=np.int64)
    real = np.arange(width) < lengths[:, None]
    dims[real] = [_DIM_CODE[dim] for order in orders for dim, __ in order]
    sizes[real] = [size for order in orders for __, size in order]
    return dims, sizes, lengths


def _canonical_columns(dims: Tuple, sizes: Tuple, cuts: Tuple) -> Tuple:
    """``(dims, sizes, cuts)`` with the sizes of every maximal run of
    equal dimensions that no cut splits sorted (see
    :meth:`TemporalMapper._canonical_key`)."""
    boundaries = {c for cut in cuts for c in cut}
    canon: List[int] = []
    i, n = 0, len(dims)
    while i < n:
        j = i + 1
        while j < n and dims[j] == dims[i] and j not in boundaries:
            j += 1
        canon.extend(sorted(sizes[i:j]))
        i = j
    return dims, tuple(canon), cuts


@dataclasses.dataclass(frozen=True)
class MapperConfig:
    """Search-budget and objective knobs of the mapper."""

    objective: str = "latency"      # "latency" | "energy" | "edp"
    max_enumerated: int = 20_000    # exhaustive enumeration cap
    samples: int = 2_000            # sampled orders when above the cap
    seed: int = 0
    keep_top: int = 50              # results retained by search()
    batch_size: int = 256           # orders per allocation block, mappings per engine batch
    sample_chunk: int = 64          # samples per RNG stream (determinism unit)
    lpf_limit: Optional[int] = None  # cap loop prime factors per dim (LOMA)
    model_options: ModelOptions = dataclasses.field(default_factory=ModelOptions)

    def __post_init__(self) -> None:
        if self.objective not in ("latency", "energy", "edp"):
            raise ValueError(f"unknown objective {self.objective!r}")
        if self.batch_size < 1 or self.sample_chunk < 1:
            raise ValueError("batch_size and sample_chunk must be >= 1")
        if self.lpf_limit is not None and self.lpf_limit < 1:
            raise ValueError(f"lpf_limit must be >= 1, got {self.lpf_limit}")


@dataclasses.dataclass(frozen=True)
class MappingSearchResult:
    """One evaluated mapping with its reports and objective value.

    ``cache_hit`` carries the engine's score provenance (persistent-cache
    probe vs. fresh kernel) through to campaign funnel accounting.
    """

    mapping: Mapping
    report: LatencyReport
    energy: Optional[EnergyReport]
    objective: float
    cache_hit: bool = False

    def describe(self) -> str:
        """One-line summary for ranking printouts."""
        energy = f", {self.energy.total_pj / 1e6:.2f} uJ" if self.energy else ""
        return (
            f"{self.report.total_cycles:.0f} cc (U={self.report.utilization:.1%}{energy}) "
            f"| {self.mapping.temporal.describe(Operand.O)}"
        )


class TemporalMapper:
    """Temporal-mapping generator and optimizer for one accelerator."""

    def __init__(
        self,
        accelerator: Accelerator,
        spatial: Union[SpatialMapping, TMapping[LoopDim, int]],
        config: Optional[MapperConfig] = None,
        engine: Optional[EvaluationEngine] = None,
    ) -> None:
        self.accelerator = accelerator
        self.spatial = (
            spatial if isinstance(spatial, SpatialMapping) else SpatialMapping(spatial)
        )
        self.config = config or MapperConfig()
        if engine is None:
            engine = EvaluationEngine(accelerator, self.config.model_options)
        elif (
            engine.accelerator is not accelerator
            or engine.options != self.config.model_options
        ):
            # Share the caller's cache/stats/executor but evaluate on this
            # mapper's machine under this mapper's model options.
            engine = engine.derive(
                accelerator=accelerator, options=self.config.model_options
            )
        self.engine = engine
        self._plan = None

    # ------------------------------------------------------------------ #
    # Loop-order space
    # ------------------------------------------------------------------ #

    def loop_multiset(self, layer: LayerSpec) -> List[Tuple[LoopDim, int]]:
        """The (dim, factor) loop atoms left for temporal mapping.

        With ``config.lpf_limit`` set, each dimension contributes at most
        that many (possibly composite) factors — the LOMA pruning knob.
        """
        atoms: List[Tuple[LoopDim, int]] = []
        for dim in ALL_DIMS:
            bound = self.spatial.temporal_bound(dim, layer)
            atoms.extend(
                (dim, f) for f in prime_factors(bound, self.config.lpf_limit)
            )
        return atoms

    def space_size(self, layer: LayerSpec) -> int:
        """Number of distinct temporal loop orders for ``layer``."""
        return count_permutations(self.loop_multiset(layer))

    def orders(self, layer: LayerSpec) -> Iterator[Tuple[Tuple[LoopDim, int], ...]]:
        """Loop orders: exhaustive when small, seeds+prefix+samples otherwise.

        Above the enumeration cap the stream starts with *seed orders* —
        block orders placing each dimension's factors contiguously in every
        dimension permutation (the classic stationarity corners: all C
        innermost is output-stationary, all B innermost weight-stationary,
        ...) — so the well-known dataflows are always candidates, followed
        by a deterministic enumeration prefix and uniform random samples.
        """
        atoms = self.loop_multiset(layer)
        size = count_permutations(atoms)
        if size <= self.config.max_enumerated:
            yield from multiset_permutations(atoms)
            return
        budget = self.config.samples
        seeds = list(self._seed_orders(layer, atoms))
        yield from seeds
        remaining = max(budget - len(seeds), 16)
        prefix = remaining // 2
        yield from itertools.islice(multiset_permutations(atoms), prefix)
        # Random samples come from fixed-size chunks, each with its own RNG
        # stream derived from (seed, chunk index) — not from one shared
        # stream — so the sampled set is a pure function of the config
        # (duplicates across chunks are deduplicated by mappings()).
        to_sample = remaining - prefix
        chunk = self.config.sample_chunk
        for index, start in enumerate(range(0, to_sample, chunk)):
            rng = random.Random(self.config.seed + index)
            yield from sample_permutations(
                atoms, min(chunk, to_sample - start), rng
            )

    def _seed_orders(
        self, layer: LayerSpec, atoms: List[Tuple[LoopDim, int]]
    ) -> Iterator[Tuple[Tuple[LoopDim, int], ...]]:
        """Block orders: contiguous per-dim factor runs, all dim permutations.

        For every permutation of the active dimensions and both in-block
        factor directions (ascending / descending) one order is produced;
        capped at 256 seeds for high-rank layers.
        """
        by_dim: Dict[LoopDim, List[int]] = {}
        for dim, factor in atoms:
            by_dim.setdefault(dim, []).append(factor)
        dims = sorted(by_dim, key=str)
        emitted = 0
        for perm in itertools.permutations(dims):
            for ascending in (True, False):
                order: List[Tuple[LoopDim, int]] = []
                for dim in perm:
                    factors = sorted(by_dim[dim], reverse=not ascending)
                    order.extend((dim, f) for f in factors)
                yield tuple(order)
                emitted += 1
                if emitted >= 256:
                    return

    # ------------------------------------------------------------------ #
    # Allocation
    # ------------------------------------------------------------------ #

    def allocate(
        self, layer: LayerSpec, order: Tuple[Tuple[LoopDim, int], ...]
    ) -> TemporalMapping:
        """Greedy bottom-up level allocation of one loop order.

        The one-order call of :meth:`allocate_block`: each operand climbs
        its memory chain innermost first, placing a cut before the first
        loop whose grown tile overflows the current level, i.e.
        ``cut_l = max(cut_{l-1}, first j with elements_j > limit_l)``.
        That block rule is exact because a tile never shrinks as the
        prefix grows. The outermost level is the operand's data home
        (backed by off-chip memory) and accepts any footprint, so every
        order allocates.
        """
        loops = tuple(Loop(dim, size) for dim, size in order)
        cuts = self.allocate_block(layer, *order_columns([order]))
        return TemporalMapping(
            loops, {op: tuple(cut[0].tolist()) for op, cut in cuts.items()}
        )

    def allocate_block(
        self, layer: LayerSpec, dims: np.ndarray, sizes: np.ndarray,
        lengths: np.ndarray,
    ) -> Dict[Operand, np.ndarray]:
        """Greedy level allocation of a block of orders, as cut columns.

        ``dims``/``sizes``/``lengths`` are the block's columns from
        :func:`order_columns`. Returns, per operand, an int64 array of one
        row per order and one column per level boundary (``depth - 1``).

        For every prefix ``0..j`` of an order, each dimension's extent is
        its clamped product ``min(temporal x spatial, bound)``; the
        operand's tile ``elements_j`` follows from :func:`extent_elements`.
        The greedy walk places cut ``l`` at the first loop at or after cut
        ``l-1`` whose tile overflows level ``l``. Extents only grow along a
        prefix and every tile formula is monotone in them, so ``elements_j``
        never shrinks; the first overflowing loop at or after a position
        is therefore ``max(cut_{l-1}, first j with elements_j > limit_l)``
        — the rule computed here as a running maximum over the levels,
        exact also when a lane-split register level holds fewer elements
        than the level below it. A level that never overflows cuts at the
        order's end.
        """
        factors, bounds, limits = self._allocation_plan(layer)
        # Per loop and dimension: the size when the loop iterates that
        # dimension, else 1; prefix products give the temporal extents.
        runs = np.where(dims[:, :, None] == _DIM_CODES, sizes[:, :, None], 1)
        ext = np.minimum(np.cumprod(runs, axis=1) * factors, bounds)
        extents = {dim: ext[:, :, code] for code, dim in enumerate(ALL_DIMS)}
        cuts: Dict[Operand, np.ndarray] = {}
        for operand in Operand:
            elements = extent_elements(layer, operand, extents)
            # Prefixes whose tile fits each level; padding repeats a row's
            # last tile, so the count is capped at the order's length.
            fitting = (elements[:, :, None] <= limits[operand]).sum(axis=1)
            first = np.minimum(fitting, lengths[:, None])
            cuts[operand] = np.maximum.accumulate(first, axis=1)
        return cuts

    def _allocation_plan(self, layer: LayerSpec):
        """Per-layer constants of :meth:`allocate_block`, cached for the last layer.

        Per dimension (in ``ALL_DIMS`` order) its spatial factor and layer
        bound; per operand, the most elements each level below the
        outermost holds (the outermost, the data home, holds any tile).
        Outputs count at accumulator width (conservative for in-flight
        partial sums); a level split into per-lane instances stores one
        copy per broadcast lane.
        """
        cached = self._plan
        if cached is not None and cached[0] is layer:
            return cached[1]
        factors = np.array([self.spatial.factor(dim) for dim in ALL_DIMS])
        bounds = np.array([layer.size(dim) for dim in ALL_DIMS])
        limits: Dict[Operand, np.ndarray] = {}
        for operand in Operand:
            bits = layer.precision.of(operand, partial=operand is Operand.O)
            replicated = bits * spatial_replication(layer, operand, self.spatial)
            chain = self.accelerator.hierarchy.levels(operand)
            limits[operand] = np.array([
                level.capacity_for(operand)
                // (replicated if level.instance.instances > 1 else bits)
                for level in chain[:-1]
            ], dtype=np.int64)
        plan = (factors, bounds, limits)
        self._plan = (layer, plan)
        return plan

    # ------------------------------------------------------------------ #
    # Search
    # ------------------------------------------------------------------ #

    def mappings(self, layer: LayerSpec) -> Iterator[Mapping]:
        """All valid mappings of ``layer`` (within the search budget).

        Orders are allocated ``config.batch_size`` at a time by
        :meth:`allocate_block` and deduplicated on plain int tuples;
        ``Loop``/``TemporalMapping``/``Mapping`` objects are built only for
        the orders that survive. Beyond exact duplicates, model-equivalent
        allocations are emitted once: two mappings whose loop orders differ
        only by permuting same-dimension loops with no memory-level
        boundary between them produce identical reports (see
        :meth:`_canonical_key`), so only the canonical representative
        reaches the engine. Skips are counted in
        ``engine.stats.dedup_skipped``.
        """
        if not self.spatial.fits(self.accelerator.mac_array.size):
            return  # spatial unrolling alone exceeds the array: no mappings
        funnel = current_campaign().phase("mapper")
        seen = set()
        canonical_seen = set()
        # Every order permutes the same atoms, so blocks carry no padding
        # and one Loop object per atom serves every order.
        loop_of = {atom: Loop(*atom) for atom in self.loop_multiset(layer)}
        orders = self.orders(layer)
        while True:
            block = list(itertools.islice(orders, self.config.batch_size))
            if not block:
                return
            dims, sizes, lengths = order_columns(block)
            cuts = self.allocate_block(layer, dims, sizes, lengths)
            rows = zip(
                block, map(tuple, dims.tolist()), map(tuple, sizes.tolist()),
                zip(*(map(tuple, cuts[op].tolist()) for op in Operand)),
            )
            for order, dim_row, size_row, cut in rows:
                funnel.admit()
                key = (dim_row, size_row, cut)
                if key in seen:
                    funnel.discard("duplicate")
                    continue
                seen.add(key)
                canonical = _canonical_columns(dim_row, size_row, cut)
                if canonical in canonical_seen:
                    self.engine.stats.dedup_skipped += 1
                    funnel.discard("canonical-equivalent")
                    continue
                canonical_seen.add(canonical)
                loops = tuple(map(loop_of.__getitem__, order))
                try:
                    mapping = Mapping(
                        layer, self.spatial,
                        TemporalMapping(loops, dict(zip(Operand, cut))),
                    )
                except MappingError:
                    funnel.discard("mapping-error")
                    continue
                yield mapping

    @staticmethod
    def _canonical_key(temporal: TemporalMapping):
        """A key equal for model-equivalent allocations.

        The 3-step model only ever reads loop-size *products* between
        memory-level boundaries (cut positions) and first/last positions
        of each dimension run — never the individual factor order inside
        a maximal run of equal-dimension loops that no operand's cut
        crosses. Sorting the sizes within each such run therefore maps
        every member of an equivalence class to the same key; e.g.
        ``K2 K3 | ...`` and ``K3 K2 | ...`` (same cuts) are one design
        point, not two. :meth:`mappings` applies the same rule to its int
        columns (:func:`_canonical_columns`).
        """
        loops = temporal.loops
        return _canonical_columns(
            tuple(loop.dim for loop in loops),
            tuple(loop.size for loop in loops),
            tuple(temporal.cuts[op] for op in Operand),
        )

    @property
    def _wants_energy(self) -> bool:
        return self.config.objective in ("energy", "edp")

    def _objective(
        self, report: LatencyReport, energy: Optional[EnergyReport]
    ) -> float:
        if self.config.objective == "latency":
            return report.total_cycles
        assert energy is not None
        if self.config.objective == "energy":
            return energy.total_pj
        return energy.total_pj * report.total_cycles

    def evaluate(self, mapping: Mapping) -> MappingSearchResult:
        """Score one mapping under the configured objective."""
        report = self.engine.evaluate(mapping, validate=False)
        energy: Optional[EnergyReport] = None
        if self._wants_energy:
            energy = self.engine.evaluate_energy(mapping)
        return MappingSearchResult(
            mapping, report, energy, self._objective(report, energy)
        )

    def _evaluated(self, layer: LayerSpec) -> Iterator[MappingSearchResult]:
        """Stream scored mappings, batch-evaluating through the engine.

        Infeasible mappings (``None`` outcomes from the engine) are
        skipped, matching the old per-mapping try/except behavior.
        """
        funnel = current_campaign().phase("mapper")
        batch: List[Mapping] = []

        def flush() -> Iterator[MappingSearchResult]:
            outcomes = self.engine.evaluate_many(
                batch, validate=False, with_energy=self._wants_energy
            )
            batch.clear()
            for outcome in outcomes:
                if outcome is None:
                    funnel.discard("engine-infeasible")
                    continue
                yield MappingSearchResult(
                    outcome.mapping,
                    outcome.report,
                    outcome.energy,
                    self._objective(outcome.report, outcome.energy),
                    cache_hit=outcome.cache_hit,
                )

        for mapping in self.mappings(layer):
            batch.append(mapping)
            if len(batch) >= self.config.batch_size:
                yield from flush()
        if batch:
            yield from flush()

    def _search_key(self, kind: str, layer: LayerSpec):
        """Engine-cache key for a whole search outcome on ``layer``.

        The search is deterministic in (machine, model options, spatial
        unrolling, layer, search config), so its result can be memoized in
        the engine cache alongside per-mapping reports — a repeated layer
        shape skips candidate *generation* as well as evaluation.
        """
        from repro.fingerprint import memoized_fingerprint, stable_fingerprint

        return (
            kind,
            self.engine.accelerator_fingerprint,
            self.engine.options_fingerprint,
            stable_fingerprint(
                memoized_fingerprint(self.spatial),
                memoized_fingerprint(layer),
                self.config,
            ),
        )

    def _note_campaign_context(self, campaign) -> None:
        """Record the replayability context on the mapper's funnel phase.

        Together with the config fingerprint these scalars make a
        campaign exactly replayable from its ledger row alone: chunk
        ``i`` of the sampled stream draws from
        ``random.Random(seed + i)`` (see :meth:`orders`), so the whole
        candidate set is a pure function of the recorded values.
        """
        from repro.fingerprint import stable_fingerprint

        cfg = self.config
        campaign.note_context(
            "mapper",
            config_fp=stable_fingerprint(cfg),
            seed=cfg.seed,
            samples=cfg.samples,
            max_enumerated=cfg.max_enumerated,
            sample_chunk=cfg.sample_chunk,
            keep_top=cfg.keep_top,
            batch_size=cfg.batch_size,
            lpf_limit=0 if cfg.lpf_limit is None else cfg.lpf_limit,
            objective=cfg.objective,
        )

    def _progress_run(self, flow: str, layer: LayerSpec):
        """Open a ``unit="evals"`` progress run sized to this search.

        The engine's ``evaluate_many`` attaches its per-chunk events to
        this run instead of opening one run per batch, so a whole search
        accrues into a single progress bar. The total is the loop-order
        count when the space will be enumerated exhaustively; unknown
        (no ETA) when the mapper samples, since dedup and allocation
        failures make the evaluated count unpredictable.
        """
        size = self.space_size(layer)
        return current_emitter().start_run(
            flow,
            total_units=size if size <= self.config.max_enumerated else None,
            unit="evals",
            accelerator=self.accelerator.name,
            layer=layer.name or str(layer.layer_type),
        )

    def search(self, layer: LayerSpec) -> List[MappingSearchResult]:
        """Evaluate the mapping space; return the top results, best first."""
        tracer = current_tracer()
        metrics = current_metrics()
        with tracer.span(
            "mapper.search",
            layer=layer.name or str(layer.layer_type),
            objective=self.config.objective,
        ) as span:
            metrics.counter(
                "repro_mapper_searches_total", "Mapper search() calls."
            ).inc()
            campaign = current_campaign()
            if campaign.enabled:
                self._note_campaign_context(campaign)
            key = self._search_key("search", layer)
            if self.engine.use_cache:
                cached = self.engine.cache.get(key)
                if cached is not None:
                    self.engine.stats.cache_hits += 1
                    span.set("cache_hit", True)
                    campaign.note_memoized_search()
                    if cached:
                        campaign.observe(cached[0].objective)
                    return list(cached)
            with self._progress_run("mapper.search", layer) as run:
                results = list(self._evaluated(layer))
                metrics.counter(
                    "repro_mapper_candidates_total",
                    "Feasible mapping candidates scored by the mapper.",
                ).inc(len(results))
                for result in results:
                    campaign.observe(result.objective)
                scored = len(results)
                results.sort(key=lambda r: r.objective)
                results = results[: self.config.keep_top]
                funnel = campaign.phase("mapper")
                for result in results:
                    funnel.retain(cache_hit=result.cache_hit)
                funnel.discard("keep-top", scored - len(results))
                if results:
                    best = results[0]
                    run.best(
                        best.objective,
                        total_cycles=best.report.total_cycles,
                        utilization=best.report.utilization,
                        label=layer.name or str(layer.layer_type),
                    )
            if tracer.enabled:
                span.set("cache_hit", False)
                span.set("candidates", len(results))
                if results:
                    span.set("best_objective", results[0].objective)
            if self.engine.use_cache:
                self.engine.cache.put(key, tuple(results))
            return results

    def best_mapping_verified(
        self, layer: LayerSpec, shortlist: int = 5
    ) -> Tuple[MappingSearchResult, float]:
        """Model-guided search with a simulator-verified shortlist.

        The analytical model ranks the space; the top ``shortlist``
        candidates are re-ranked by the cycle-level simulator, which
        removes the optimizer-bias corner where the model's optimum sits
        in a regime it slightly under-predicts (see EXPERIMENTS.md E10).
        Returns the winning result and its *simulated* cycle count.
        """
        from repro.simulator.engine import CycleSimulator

        candidates = self.search(layer)[:shortlist]
        if not candidates:
            raise MappingError(
                f"no valid temporal mapping of {layer.describe()} on "
                f"{self.accelerator.name} with spatial {self.spatial}"
            )
        best: Optional[Tuple[MappingSearchResult, float]] = None
        for candidate in candidates:
            simulated = CycleSimulator(
                self.accelerator, candidate.mapping
            ).run().total_cycles
            if best is None or simulated < best[1]:
                best = (candidate, simulated)
        assert best is not None
        return best

    def best_mapping(self, layer: LayerSpec) -> MappingSearchResult:
        """The best mapping found (raises if none fits)."""
        tracer = current_tracer()
        metrics = current_metrics()
        with tracer.span(
            "mapper.best_mapping",
            layer=layer.name or str(layer.layer_type),
            objective=self.config.objective,
        ) as span:
            metrics.counter(
                "repro_mapper_searches_total", "Mapper search() calls."
            ).inc()
            campaign = current_campaign()
            if campaign.enabled:
                self._note_campaign_context(campaign)
            key = self._search_key("best_mapping", layer)
            if self.engine.use_cache:
                cached = self.engine.cache.get(key)
                if cached is not None:
                    self.engine.stats.cache_hits += 1
                    span.set("cache_hit", True)
                    campaign.note_memoized_search()
                    campaign.observe(cached.objective)
                    return cached
            best: Optional[MappingSearchResult] = None
            candidates = 0
            with self._progress_run("mapper.best_mapping", layer) as run:
                for result in self._evaluated(layer):
                    candidates += 1
                    campaign.observe(result.objective)
                    if best is None or result.objective < best.objective:
                        best = result
                        run.best(
                            best.objective,
                            total_cycles=best.report.total_cycles,
                            utilization=best.report.utilization,
                            label=layer.name or str(layer.layer_type),
                        )
            metrics.counter(
                "repro_mapper_candidates_total",
                "Feasible mapping candidates scored by the mapper.",
            ).inc(candidates)
            if best is None:
                raise MappingError(
                    f"no valid temporal mapping of {layer.describe()} on "
                    f"{self.accelerator.name} with spatial {self.spatial}"
                )
            funnel = campaign.phase("mapper")
            funnel.retain(cache_hit=best.cache_hit)
            funnel.discard("beaten-incumbent", candidates - 1)
            if tracer.enabled:
                span.set("cache_hit", False)
                span.set("candidates", candidates)
                span.set("best_objective", best.objective)
            if self.engine.use_cache:
                self.engine.cache.put(key, best)
            return best
