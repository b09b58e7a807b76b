"""The full mapping: layer + spatial + temporal, with validity checks."""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Dict, List, Tuple

from repro.mapping.footprint import (
    operand_footprint_bits,
    outputs_are_partial_above,
    spatial_replication,
)
from repro.mapping.loop import dim_product
from repro.mapping.spatial import SpatialMapping
from repro.mapping.temporal import TemporalMapping
from repro.workload.dims import ALL_DIMS, DIM_CODE
from repro.workload.layer import LayerSpec
from repro.workload.operand import Operand

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.hardware.accelerator import Accelerator


class MappingError(ValueError):
    """An inconsistent or hardware-infeasible mapping."""


@dataclasses.dataclass(frozen=True)
class Mapping:
    """A complete algorithm-to-hardware mapping of one layer.

    Invariant: for every loop dimension, (product of its temporal loop
    sizes) equals ``ceil(layer bound / spatial unroll)`` — the temporal
    mapping covers exactly the iterations the spatial mapping leaves over.
    """

    layer: LayerSpec
    spatial: SpatialMapping
    temporal: TemporalMapping

    def __post_init__(self) -> None:
        for dim in ALL_DIMS:
            need = self.spatial.temporal_bound(dim, self.layer)
            have = dim_product(self.temporal.loops, dim)
            if need != have:
                raise MappingError(
                    f"temporal loops of {dim} multiply to {have}, expected "
                    f"ceil({self.layer.size(dim)}/{self.spatial.factor(dim)}) = {need}"
                )

    # ------------------------------------------------------------------ #
    # Fig. 1(b) quantities
    # ------------------------------------------------------------------ #

    def ideal_cycles(self, array_size: int) -> float:
        """``CC_ideal = total MAC ops / MAC array size`` (Fig. 1b)."""
        return self.layer.total_macs / array_size

    @property
    def spatial_cycles(self) -> int:
        """``CC_spatial``: cycles with a fully temporally-mapped array."""
        return self.temporal.total_cycles

    def spatial_stall(self, array_size: int) -> float:
        """``CC_spatial - CC_ideal`` (Fig. 1b note)."""
        return self.spatial_cycles - self.ideal_cycles(array_size)

    def spatial_utilization(self, array_size: int) -> float:
        """``U_spatial = CC_ideal / CC_spatial``."""
        return self.ideal_cycles(array_size) / self.spatial_cycles

    # ------------------------------------------------------------------ #

    def footprint_bits(self, operand: Operand, level: int) -> int:
        """``Mem_DATA`` in bits for ``operand`` at ``level``.

        Output tiles in flight below the accumulation loops are stored at
        partial-sum precision.
        """
        partial = operand is Operand.O and outputs_are_partial_above(
            self.layer, self.temporal, level
        )
        return operand_footprint_bits(
            self.layer, operand, self.temporal, self.spatial, level,
            partial_outputs=partial,
        )

    def describe(self) -> str:
        """Multi-line summary: spatial line plus one line per operand."""
        lines = [f"spatial: {self.spatial}"]
        for operand in Operand:
            lines.append(f"{operand}: {self.temporal.describe(operand)}")
        return "\n".join(lines)

    @property
    def cache_key(self) -> Tuple:
        """Hashable structural identity of (layer, spatial, temporal).

        The plain-int row ``(layer fp, spatial fp, dim codes, sizes,
        cuts)``: the layer and spatial unrolling by their memoized
        fingerprints (shared by every mapping of one search, so hashed
        once), the loops innermost first by their :data:`DIM_CODE` and
        size, and the cuts in :class:`Operand` order. A row of a
        :class:`~repro.mapping.block.MappingBlock` has the same key
        without being built as a mapping, so an engine caches a search's
        candidates and the mapping it returns under one key. Two mappings
        share this key exactly when they share :meth:`fingerprint`, but
        building it costs no canonical encoding and no SHA-256: the
        in-process and client evaluation caches key on it. Memoized (the
        dataclass is frozen).
        """
        cached = getattr(self, "_cache_key", None)
        if cached is None:
            from repro.fingerprint import memoized_fingerprint

            loops = self.temporal.loops
            cached = (
                memoized_fingerprint(self.layer),
                memoized_fingerprint(self.spatial),
                tuple(DIM_CODE[loop.dim] for loop in loops),
                tuple(loop.size for loop in loops),
                tuple(self.temporal.cuts[op] for op in Operand),
            )
            object.__setattr__(self, "_cache_key", cached)
        return cached

    def fingerprint(self) -> str:
        """Stable content hash of (layer, spatial, temporal).

        Equal mappings fingerprint identically regardless of how they were
        built. This SHA-256 digest is the identity that leaves the process
        — ledger rows, the verify corpus, the daemon's result store and
        wire labels; in-memory caches key on the cheaper
        :attr:`cache_key`. Memoized (the dataclass is frozen).
        """
        cached = getattr(self, "_fingerprint", None)
        if cached is None:
            from repro.fingerprint import memoized_fingerprint, stable_fingerprint

            # Composed hierarchically: the layer and spatial unrolling
            # recur (as the same objects) across every mapping of one
            # search, so their fingerprints are computed once and only
            # the temporal part is canonicalized per mapping.
            cached = stable_fingerprint(
                memoized_fingerprint(self.layer),
                memoized_fingerprint(self.spatial),
                self.temporal,
            )
            object.__setattr__(self, "_fingerprint", cached)
        return cached


def depth_violations(mapping: Mapping, accelerator: "Accelerator") -> List[str]:
    """Operands whose level count in ``mapping`` differs from the machine's."""
    hierarchy = accelerator.hierarchy
    return [
        f"{operand}: mapping assumes {mapping.temporal.num_levels(operand)} "
        f"levels but {accelerator.name} has {hierarchy.depth(operand)}"
        for operand in Operand
        if mapping.temporal.num_levels(operand) != hierarchy.depth(operand)
    ]


def check_depth(mapping: Mapping, accelerator: "Accelerator") -> None:
    """Raise :class:`MappingError` if ``mapping`` is shallower than the machine.

    The model reads a mapping's levels with
    :meth:`~repro.mapping.temporal.TemporalMapping.level_bounds`
    semantics: a deeper mapping's extra cuts are never asked for, but a
    shallower one lacks levels the machine has.
    """
    cuts = mapping.temporal.cuts
    for operand, chain in accelerator.hierarchy.chains.items():
        if len(cuts[operand]) + 1 < len(chain):
            raise MappingError("; ".join(depth_violations(mapping, accelerator)))


def check_capacity(mapping: Mapping, accelerator: "Accelerator") -> List[str]:
    """Capacity violations of ``mapping`` on ``accelerator`` (empty = fits).

    Checks, per memory level, that the summed footprints of the operands it
    serves fit in the mapper-visible capacity (half of physical for
    double-buffered memories, Table I), honoring per-operand capacity
    shares when the level defines them.
    """
    violations = depth_violations(mapping, accelerator)
    if violations:
        return violations

    hierarchy = accelerator.hierarchy
    demand: Dict[str, int] = {}
    for level_obj in hierarchy.unique_levels():
        total = 0
        for operand in hierarchy.operands_of(level_obj):
            idx = hierarchy.level_index(operand, level_obj)
            if idx == hierarchy.depth(operand) - 1:
                # The outermost level is the operand's data home, backed by
                # off-chip memory — exempt from the on-chip capacity check.
                continue
            bits = mapping.footprint_bits(operand, idx)
            if level_obj.instance.instances > 1:
                bits *= spatial_replication(mapping.layer, operand, mapping.spatial)
            share = level_obj.capacity_share
            if share is not None and operand in share:
                cap = level_obj.capacity_for(operand)
                if bits > cap:
                    violations.append(
                        f"{level_obj.name}/{operand}: needs {bits} b > share {cap} b"
                    )
            total += bits
        demand[level_obj.name] = total
        cap = level_obj.instance.mapper_visible_bits
        if total > cap:
            violations.append(
                f"{level_obj.name}: operands need {total} b > capacity {cap} b"
            )
    return violations


def is_valid(mapping: Mapping, accelerator: "Accelerator") -> bool:
    """True when ``mapping`` fits ``accelerator``'s array and memories."""
    if not mapping.spatial.fits(accelerator.mac_array.size):
        return False
    return not check_capacity(mapping, accelerator)


def utilization_scenario(mapping: Mapping, array_size: int, temporal_stall: float) -> int:
    """Classify into the four Fig. 1(b) scenarios (1-4)."""
    from repro.core.kernels import scenario_code

    return int(
        scenario_code(
            mapping.ideal_cycles(array_size),
            float(mapping.spatial_cycles),
            temporal_stall,
        )
    )
