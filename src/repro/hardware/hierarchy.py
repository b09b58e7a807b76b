"""Memory levels and per-operand memory hierarchies.

A physical memory may be shared by several operands (e.g. a global buffer
holding W, I and O). Step 1 of the latency model *virtually divides* such a
memory into unit memories — one per operand — which is why a
:class:`MemoryLevel` records the set of operands it serves and a per-operand
port allocation, while the same level object can appear in several operands'
chains inside a :class:`MemoryHierarchy`.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro.hardware.memory import MemoryInstance
from repro.hardware.port import EndpointKind, Port
from repro.workload.operand import Operand


@dataclasses.dataclass(frozen=True)
class MemoryLevel:
    """One level of the memory system, possibly shared by operands.

    Parameters
    ----------
    instance:
        The physical memory.
    serves:
        Operands stored in this memory.
    allocation:
        Physical port assignment per (operand, endpoint-kind) pair. Entries
        may be omitted for endpoints that can never carry traffic (e.g. a
        weight flush to a higher level); :meth:`port_for` raises a clear
        error if the latency model ends up needing a missing one.
    capacity_share:
        Optional hard split of the capacity between operands (bits). When
        omitted, operands share the whole (mapper-visible) capacity and only
        the *sum* of footprints is checked.
    """

    instance: MemoryInstance
    serves: frozenset
    allocation: Mapping[Tuple[Operand, EndpointKind], str]
    capacity_share: Optional[Mapping[Operand, int]] = None

    def __post_init__(self) -> None:
        serves = frozenset(self.serves)
        object.__setattr__(self, "serves", serves)
        if not serves:
            raise ValueError(f"level {self.name}: must serve at least one operand")
        allocation = dict(self.allocation)
        object.__setattr__(self, "allocation", allocation)
        for (operand, kind), port_name in allocation.items():
            if operand not in serves:
                raise ValueError(
                    f"level {self.name}: allocation for {operand} but it is not served"
                )
            port = self.instance.port(port_name)
            if not port.supports(kind):
                raise ValueError(
                    f"level {self.name}: port {port_name!r} cannot carry {kind.value} "
                    f"({port.direction.value} port, {kind.value} is "
                    f"{'write' if kind.is_write else 'read'})"
                )
        if self.capacity_share is not None:
            share = dict(self.capacity_share)
            object.__setattr__(self, "capacity_share", share)
            total = sum(share.values())
            if total > self.instance.mapper_visible_bits:
                raise ValueError(
                    f"level {self.name}: capacity shares ({total} b) exceed "
                    f"mapper-visible capacity ({self.instance.mapper_visible_bits} b)"
                )

    # ------------------------------------------------------------------ #

    @property
    def name(self) -> str:
        """The underlying memory's name."""
        return self.instance.name

    def port_for(self, operand: Operand, kind: EndpointKind) -> Port:
        """The physical port carrying ``operand``'s ``kind`` endpoint."""
        try:
            port_name = self.allocation[(operand, kind)]
        except KeyError:
            raise KeyError(
                f"memory level {self.name!r} has no port allocated for "
                f"({operand}, {kind.value}); add it to the level's allocation"
            ) from None
        return self.instance.port(port_name)

    def has_endpoint(self, operand: Operand, kind: EndpointKind) -> bool:
        """Whether an allocation entry exists for (operand, kind)."""
        return (operand, kind) in self.allocation

    def capacity_for(self, operand: Operand) -> int:
        """Mapper-visible bits available to ``operand`` at this level."""
        if operand not in self.serves:
            raise KeyError(f"level {self.name} does not serve {operand}")
        if self.capacity_share is not None and operand in self.capacity_share:
            cap = self.capacity_share[operand]
            if self.instance.double_buffered:
                return cap // 2 if cap == self.instance.total_size_bits else cap
            return cap
        return self.instance.mapper_visible_bits


def auto_allocate(
    instance: MemoryInstance,
    serves: Iterable[Operand],
    capacity_share: Optional[Mapping[Operand, int]] = None,
) -> MemoryLevel:
    """Build a :class:`MemoryLevel` with every endpoint on the first fitting port.

    Reads (TL/TH) land on the first read-capable port, writes (FH/FL) on the
    first write-capable port — the common dual-port or single-RW layout.
    """
    serves = frozenset(serves)
    allocation: Dict[Tuple[Operand, EndpointKind], str] = {}
    for operand in serves:
        for kind in EndpointKind:
            for port in instance.ports:
                if port.supports(kind):
                    allocation[(operand, kind)] = port.name
                    break
    return MemoryLevel(instance, serves, allocation, capacity_share)


@dataclasses.dataclass(frozen=True)
class MemoryHierarchy:
    """Per-operand chains of memory levels, innermost (index 0) first.

    The same :class:`MemoryLevel` object may appear in several chains —
    that is what "physically shared, virtually divided" means. The chain
    order is the data-flow order: W/I flow from the last (outermost) level
    down to level 0 next to the MACs; O flows from level 0 upwards.
    """

    chains: Mapping[Operand, Tuple[MemoryLevel, ...]]

    def __post_init__(self) -> None:
        chains = {op: tuple(levels) for op, levels in dict(self.chains).items()}
        object.__setattr__(self, "chains", chains)
        for operand in Operand:
            if operand not in chains or not chains[operand]:
                raise ValueError(f"hierarchy must give {operand} at least one level")
            for level in chains[operand]:
                if operand not in level.serves:
                    raise ValueError(
                        f"level {level.name} appears in {operand}'s chain but does "
                        f"not serve {operand}"
                    )
        names = [lvl.name for lvl in self.unique_levels()]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate memory names across distinct levels: {names}")

    # ------------------------------------------------------------------ #

    def levels(self, operand: Operand) -> Tuple[MemoryLevel, ...]:
        """``operand``'s chain, innermost first."""
        return self.chains[operand]

    def depth(self, operand: Operand) -> int:
        """Number of levels in ``operand``'s chain."""
        return len(self.chains[operand])

    def innermost(self, operand: Operand) -> MemoryLevel:
        """The level closest to the MAC array."""
        return self.chains[operand][0]

    def outermost(self, operand: Operand) -> MemoryLevel:
        """The level furthest from the MAC array (data source / sink)."""
        return self.chains[operand][-1]

    def unique_levels(self) -> List[MemoryLevel]:
        """All distinct level objects, deduplicated across chains."""
        seen: List[MemoryLevel] = []
        for operand in Operand:
            for level in self.chains[operand]:
                if not any(level is s for s in seen):
                    seen.append(level)
        return seen

    def level_index(self, operand: Operand, level: MemoryLevel) -> int:
        """Index of ``level`` within ``operand``'s chain."""
        for i, lvl in enumerate(self.chains[operand]):
            if lvl is level:
                return i
        raise ValueError(f"level {level.name} not in {operand}'s chain")

    def operands_of(self, level: MemoryLevel) -> List[Operand]:
        """Operands whose chains contain ``level``."""
        return [op for op in Operand if any(level is l for l in self.chains[op])]
