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
   behaves), drops duplicate and model-equivalent rows, checks the rest
   as columns, and keeps the survivors as column candidate blocks
   (:class:`~repro.mapping.block.MappingBlock`, :meth:`TemporalMapper.blocks`);
4. evaluates the requested objective (latency via the uniform model,
   energy, or EDP) and returns the ranked results; :meth:`best_mapping`
   under the latency objective asks the engine per block for the first
   mapping below the incumbent (``Evaluator.best_of``), which scores only
   the mappings whose latency bound can still win. The in-process engine
   lowers, keys and bounds a block from its columns, so only each block's
   winner is built as a :class:`Mapping` (plus the rows that get a
   ledger row, which needs the mapping's fingerprint); a remote engine
   builds every row for the wire.

Case study 1's Mapping A and B are two points of this space; Case study 3
runs :meth:`TemporalMapper.best_mapping` for every architecture candidate
("for each design point, mapping optimization for lowest latency is
performed").
"""

from __future__ import annotations

import dataclasses
import itertools
import math
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
from repro.engine.evaluation import for_layer
from repro.hardware.accelerator import Accelerator
from repro.mapping.footprint import extent_elements, spatial_replication
from repro.mapping.block import MappingBlock, build_row
from repro.mapping.loop import Loop
from repro.mapping.mapping import Mapping, MappingError
from repro.mapping.spatial import SpatialMapping
from repro.mapping.temporal import TemporalMapping
from repro.observability.telemetry import telemetry
from repro.workload.dims import ALL_DIMS, DIM_CODE, LoopDim
from repro.workload.layer import LayerSpec
from repro.workload.operand import Operand


_DIM_CODES = np.arange(len(ALL_DIMS))


def order_columns(
    orders: Sequence[Sequence[Tuple[LoopDim, int]]],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A block of loop orders as int64 ``(dims, sizes, lengths)`` columns.

    ``dims[i, j]`` is the :data:`~repro.workload.dims.DIM_CODE` of loop
    ``j`` of order ``i`` and ``sizes[i, j]`` its size. Shorter orders are padded
    to the longest with dimension ``-1`` and size ``1``, which grow no
    extent; ``lengths`` holds each order's own length.
    """
    lengths = np.fromiter(map(len, orders), dtype=np.int64, count=len(orders))
    width = int(lengths.max(initial=0))
    dims = np.full((len(orders), width), -1, dtype=np.int64)
    sizes = np.ones((len(orders), width), dtype=np.int64)
    real = np.arange(width) < lengths[:, None]
    dims[real] = [DIM_CODE[dim] for order in orders for dim, __ in order]
    sizes[real] = [size for order in orders for __, size in order]
    return dims, sizes, lengths


def _canonical_sizes(
    dims: np.ndarray, sizes: np.ndarray, cuts: Dict[Operand, np.ndarray]
) -> np.ndarray:
    """``sizes`` of a block of orders with the sizes of every maximal run
    of equal dimensions that no cut splits sorted (see
    :meth:`TemporalMapper._canonical_key`).

    A run starts where the dimension changes or at a cut position; runs
    are numbered along each row, so sorting ``run * M + size`` (``M``
    above every size) sorts the sizes within each run and keeps the runs
    in place.
    """
    n, width = dims.shape
    start = np.ones((n, width), dtype=bool)
    start[:, 1:] = dims[:, 1:] != dims[:, :-1]
    for cut in cuts.values():
        rows = np.repeat(np.arange(n), cut.shape[1])
        at = cut.ravel()
        inside = at < width
        start[rows[inside], at[inside]] = True
    span = int(sizes.max(initial=0)) + 1
    keyed = np.cumsum(start, axis=1) * span + sizes
    keyed.sort(axis=1)
    return keyed % span


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

    def for_layer(self, layer: LayerSpec) -> "MappingSearchResult":
        """This result as the answer for ``layer``, a layer of the same
        shape: a memoized search is keyed by the layer's fingerprint,
        which leaves its name out, so the mapping and reports are
        re-bound to ``layer`` when the names differ."""
        if self.mapping.layer.name == layer.name:
            return self
        return dataclasses.replace(
            self,
            mapping=dataclasses.replace(self.mapping, layer=layer),
            report=for_layer(self.report, layer),
            energy=for_layer(self.energy, layer),
        )

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
            # Share the caller's cache and stats but evaluate on this
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

    def blocks(self, layer: LayerSpec) -> Iterator[MappingBlock]:
        """All valid mappings of ``layer`` (within the search budget), as
        column blocks of ``config.batch_size`` rows (the last may be
        shorter).

        The rows of :meth:`_rows` stay int columns in a
        :class:`~repro.mapping.block.MappingBlock`, which builds a
        :class:`Mapping` only for a row that is indexed. A block is
        yielded as soon as its last row is found, so the campaign funnel
        counts only the orders the search has reached.
        """
        rows = self._rows(layer)
        loops = self._loops(layer)
        while True:
            chunk = list(itertools.islice(rows, self.config.batch_size))
            if not chunk:
                return
            picked: Dict[int, Tuple[Tuple, List[int]]] = {}
            for columns, row, __ in chunk:
                picked.setdefault(id(columns), (columns, []))[1].append(row)
            dims, sizes, *cuts = (
                np.concatenate([columns[k][kept] for columns, kept in picked.values()])
                for k in range(2 + len(Operand))
            )
            yield MappingBlock.from_columns(
                layer, self.spatial, dims, sizes, dict(zip(Operand, cuts)),
                [key for __, __, key in chunk], loops,
            )

    def mappings(self, layer: LayerSpec) -> Iterator[Mapping]:
        """All valid mappings of ``layer``: the rows of :meth:`blocks`,
        each built as a :class:`Mapping` as it is found. For callers that
        consume mapping objects (the BW-unaware baseline of the
        architecture search, verify case generation); a search passes the
        blocks to its engine instead."""
        loops = self._loops(layer)
        for __, __, key in self._rows(layer):
            yield build_row(layer, self.spatial, loops, key)

    def _loops(self, layer: LayerSpec) -> Dict[Tuple[int, int], Loop]:
        """One :class:`Loop` per ``(dim code, size)`` atom of ``layer``:
        every order permutes the same atoms, so these serve every row."""
        return {
            (DIM_CODE[dim], factor): Loop(dim, factor)
            for dim, factor in self.loop_multiset(layer)
        }

    def _rows(self, layer: LayerSpec) -> Iterator[Tuple[Tuple, int, Tuple]]:
        """Every valid row: ``(columns, row, cache key)``, where
        ``columns`` is its order block's ``(dims, sizes, *cuts)`` (cuts
        in :class:`Operand` order) and ``row`` its index there.

        Orders are allocated ``config.batch_size`` at a time by
        :meth:`allocate_block` (all orders permute the same atoms, so the
        columns carry no padding) and deduplicated on plain int tuples.
        Beyond exact duplicates, model-equivalent allocations are emitted
        once: two mappings whose loop orders differ only by permuting
        same-dimension loops with no memory-level boundary between them
        produce identical reports (see :meth:`_canonical_key`), so only
        the canonical representative reaches the engine. Skips are counted
        in ``engine.stats.dedup_skipped``. Each order block is checked as
        columns (:meth:`_valid_rows`) for what the ``Mapping`` and
        ``TemporalMapping`` constructors would refuse; a refused row is
        discarded as ``mapping-error``. The cache key is the row's
        :attr:`Mapping.cache_key`, built from the dedup key.
        """
        if not self.spatial.fits(self.accelerator.mac_array.size):
            return  # spatial unrolling alone exceeds the array: no mappings
        from repro.fingerprint import memoized_fingerprint

        funnel = telemetry().campaign.phase("mapper")
        seen = set()
        canonical_seen = set()
        bounds = np.array([self.spatial.temporal_bound(dim, layer) for dim in ALL_DIMS])
        prefix = (memoized_fingerprint(layer), memoized_fingerprint(self.spatial))
        orders = self.orders(layer)
        while True:
            block = list(itertools.islice(orders, self.config.batch_size))
            if not block:
                return
            dims, sizes, lengths = order_columns(block)
            cuts = self.allocate_block(layer, dims, sizes, lengths)
            valid = self._valid_rows(dims, sizes, lengths, cuts, bounds)
            columns = (dims, sizes, *(cuts[op] for op in Operand))
            rows = zip(
                map(tuple, dims.tolist()), map(tuple, sizes.tolist()),
                zip(*(map(tuple, cuts[op].tolist()) for op in Operand)),
                map(tuple, _canonical_sizes(dims, sizes, cuts).tolist()),
                valid.tolist(),
            )
            for row, (dim_row, size_row, cut, canon_row, ok) in enumerate(rows):
                funnel.admit()
                key = (dim_row, size_row, cut)
                if key in seen:
                    funnel.discard("duplicate")
                    continue
                seen.add(key)
                canonical = (dim_row, canon_row, cut)
                if canonical in canonical_seen:
                    self.engine.stats.dedup_skipped += 1
                    funnel.discard("canonical-equivalent")
                    continue
                canonical_seen.add(canonical)
                if not ok:
                    funnel.discard("mapping-error")
                    continue
                yield columns, row, prefix + key

    @staticmethod
    def _valid_rows(
        dims: np.ndarray, sizes: np.ndarray, lengths: np.ndarray,
        cuts: Dict[Operand, np.ndarray], bounds: np.ndarray,
    ) -> np.ndarray:
        """Bool mask of the rows the ``Mapping`` and ``TemporalMapping``
        constructors accept: per dimension the loop sizes multiply to its
        temporal bound (``bounds``, in ``ALL_DIMS`` order), and every cut
        lies in ``[0, length]`` and never decreases. (Atoms are prime
        factors, never 1, so no loop is dropped when a row is built.)"""
        runs = np.where(dims[:, :, None] == _DIM_CODES, sizes[:, :, None], 1)
        ok = np.all(runs.prod(axis=1) == bounds, axis=1)
        for cut in cuts.values():
            ok &= np.all((cut >= 0) & (cut <= lengths[:, None]), axis=1)
            ok &= np.all(np.diff(cut, axis=1) >= 0, axis=1)
        return ok

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
        point, not two. :meth:`_rows` applies the same rule to a block's
        columns (:func:`_canonical_sizes`).
        """
        dims, sizes, __ = order_columns([[(l.dim, l.size) for l in temporal.loops]])
        cuts = {
            op: np.array(temporal.cuts[op], dtype=np.int64).reshape(1, -1)
            for op in Operand
        }
        return (
            tuple(dims[0].tolist()),
            tuple(_canonical_sizes(dims, sizes, cuts)[0].tolist()),
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

    def _score(self, block: MappingBlock) -> Iterator[MappingSearchResult]:
        """Score one block through ``evaluate_many``.

        Infeasible mappings (``None`` outcomes from the engine) are
        skipped, matching the old per-mapping try/except behavior.
        """
        funnel = telemetry().campaign.phase("mapper")
        for outcome in self.engine.evaluate_many(
            block, validate=False, with_energy=self._wants_energy
        ):
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

    def _block_best(
        self, block: MappingBlock, incumbent: float
    ) -> Tuple[Optional[MappingSearchResult], int, int]:
        """The first mapping of ``block`` with an objective below
        ``incumbent``: ``(winner or None, scored, bound-pruned)``.

        Latency asks the engine's :meth:`~repro.engine.Evaluator.best_of`,
        which scores only the mappings whose latency bound can still win.
        The campaign still counts every candidate in stream order: the
        winner is observed at its place and the others, which have no
        exact objective, are skipped, so only block winners improve it.
        Energy and EDP score every mapping through ``evaluate_many``.
        """
        campaign = telemetry().campaign
        if self.config.objective == "latency":
            found = self.engine.best_of(block, incumbent)
            campaign.phase("mapper").discard("engine-infeasible", found.infeasible)
            campaign.skip(found.ahead)
            if found.best is None:
                return None, found.scored, found.pruned
            best = found.best
            campaign.observe(best.report.total_cycles)
            campaign.skip(found.scored + found.pruned - found.ahead - 1)
            return MappingSearchResult(
                best.mapping, best.report, None, best.report.total_cycles,
                cache_hit=best.cache_hit,
            ), found.scored, found.pruned
        winner: Optional[MappingSearchResult] = None
        scored = 0
        for result in self._score(block):
            scored += 1
            campaign.observe(result.objective)
            if result.objective < (incumbent if winner is None else winner.objective):
                winner = result
        return winner, scored, 0

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
        return telemetry().progress.start_run(
            flow,
            total_units=size if size <= self.config.max_enumerated else None,
            unit="evals",
            accelerator=self.accelerator.name,
            layer=layer.name or str(layer.layer_type),
        )

    def _memoized_search(self, kind: str, layer: LayerSpec, body):
        """The ``mapper.<kind>`` span, progress run and memo around
        ``body(layer, run)``, which returns ``(outcome, best or None,
        candidates)``; ``outcome`` is None when no mapping fits.
        ``(outcome, best)`` is memoized, so a hit observes ``best`` on the
        campaign as the search did; ``outcome`` is returned."""
        t = telemetry()
        label = layer.name or str(layer.layer_type)
        with t.tracer.span(
            f"mapper.{kind}", layer=label, objective=self.config.objective
        ) as span:
            t.metrics.counter(
                "repro_mapper_searches_total", "Mapper search() calls."
            ).inc()
            campaign = t.campaign
            if campaign.enabled:
                self._note_campaign_context(campaign)
            key = self._search_key(kind, layer)
            cached = self.engine.cache.get(key)
            if cached is not None:
                self.engine.stats.cache_hits += 1
                span.set("cache_hit", True)
                campaign.note_memoized_search()
                outcome, best = cached
                if best is not None:
                    campaign.observe(best.objective)
                if isinstance(outcome, tuple):  # search(): ranked results
                    return tuple(result.for_layer(layer) for result in outcome)
                return outcome.for_layer(layer)
            with self._progress_run(f"mapper.{kind}", layer) as run:
                outcome, best, candidates = body(layer, run)
                if best is not None:
                    run.best(
                        best.objective,
                        total_cycles=best.report.total_cycles,
                        utilization=best.report.utilization,
                        label=label,
                    )
            if outcome is None:  # nothing fits: no memo, no span report
                return None
            if t.tracer.enabled:
                span.set("cache_hit", False)
                span.set("candidates", candidates)
                if best is not None:
                    span.set("best_objective", best.objective)
            self.engine.cache.put(key, (outcome, best))
            return outcome

    def search(self, layer: LayerSpec) -> List[MappingSearchResult]:
        """Evaluate the mapping space; return the top results, best first."""
        return list(self._memoized_search("search", layer, self._rank))

    def _rank(self, layer: LayerSpec, run):
        """:meth:`search` body: score every mapping, keep the best."""
        t = telemetry()
        results = [
            result for block in self.blocks(layer) for result in self._score(block)
        ]
        t.metrics.counter(
            "repro_mapper_candidates_total",
            "Feasible mapping candidates scored by the mapper.",
        ).inc(len(results))
        campaign = t.campaign
        for result in results:
            campaign.observe(result.objective)
        scored = len(results)
        results.sort(key=lambda r: r.objective)
        kept = tuple(results[: self.config.keep_top])
        funnel = campaign.phase("mapper")
        for result in kept:
            funnel.retain(cache_hit=result.cache_hit)
        funnel.discard("keep-top", scored - len(kept))
        return kept, (kept[0] if kept else None), len(kept)

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
            raise self._unmappable(layer)
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
        best = self._memoized_search("best_mapping", layer, self._descend)
        if best is None:
            raise self._unmappable(layer)
        return best

    def _unmappable(self, layer: LayerSpec) -> MappingError:
        return MappingError(
            f"no valid temporal mapping of {layer.describe()} on "
            f"{self.accelerator.name} with spatial {self.spatial}"
        )

    def _descend(self, layer: LayerSpec, run):
        """:meth:`best_mapping` body: each block against the best so far."""
        t = telemetry()
        best: Optional[MappingSearchResult] = None
        candidates = pruned = 0
        for block in self.blocks(layer):
            winner, scored, bounded = self._block_best(
                block, math.inf if best is None else best.objective
            )
            candidates += scored + bounded
            pruned += bounded
            if winner is not None:
                best = winner
                run.best(
                    best.objective,
                    total_cycles=best.report.total_cycles,
                    utilization=best.report.utilization,
                    label=layer.name or str(layer.layer_type),
                )
        t.metrics.counter(
            "repro_mapper_candidates_total",
            "Feasible mapping candidates scored by the mapper.",
        ).inc(candidates)
        if best is not None:
            funnel = t.campaign.phase("mapper")
            funnel.retain(cache_hit=best.cache_hit)
            funnel.discard("beaten-incumbent", candidates - pruned - 1)
            funnel.discard("bound-pruned", pruned)
        return best, best, candidates
