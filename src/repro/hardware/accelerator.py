"""The full accelerator: MAC array + hierarchy + stall-overlap config."""

from __future__ import annotations

import dataclasses
from typing import FrozenSet, Iterable, Optional, Tuple

from repro.hardware.area import accelerator_area_mm2
from repro.hardware.hierarchy import MemoryHierarchy, MemoryLevel
from repro.hardware.mac_array import MacArray
from repro.workload.operand import Operand


@dataclasses.dataclass(frozen=True)
class StallOverlapConfig:
    """Which memories' stalls can hide under each other (Step 3).

    The paper (Section III-D): "For the memory operations that can be
    overlapped, SS_overall takes the maximum of SS_comb [...]; otherwise,
    SS_overall is the sum of all stalls [...]. Users can customize this
    memory parallel operation constraint based on the design."

    ``concurrent_groups`` is a partition (by memory name) of the memory
    system: stalls of memories inside one group combine with ``max``
    (their operation overlaps), and the per-group results are *summed*
    across groups (groups operate sequentially). Memories not named in any
    group fall into one implicit final group together. The common default —
    everything overlaps — is an empty config.
    """

    concurrent_groups: Tuple[FrozenSet[str], ...] = ()

    def __post_init__(self) -> None:
        groups = tuple(frozenset(g) for g in self.concurrent_groups)
        object.__setattr__(self, "concurrent_groups", groups)
        seen: set = set()
        for group in groups:
            if not group:
                raise ValueError("empty concurrent group")
            overlap = seen & group
            if overlap:
                raise ValueError(f"memory {sorted(overlap)} in more than one group")
            seen |= group

    def group_of(self, memory_name: str) -> int:
        """Index of the group containing ``memory_name``.

        Memories not explicitly listed share the implicit last group
        (index ``len(concurrent_groups)``).
        """
        for i, group in enumerate(self.concurrent_groups):
            if memory_name in group:
                return i
        return len(self.concurrent_groups)

    @staticmethod
    def all_concurrent() -> "StallOverlapConfig":
        """Every memory's operation overlaps (single implicit group)."""
        return StallOverlapConfig(())

    @staticmethod
    def all_sequential(names: Iterable[str]) -> "StallOverlapConfig":
        """No overlap at all: every memory is its own group (stalls add up)."""
        return StallOverlapConfig(tuple(frozenset({n}) for n in names))


@dataclasses.dataclass(frozen=True)
class Accelerator:
    """A complete accelerator design point.

    Parameters
    ----------
    name:
        Identifier for reports.
    mac_array:
        The PE/MAC array.
    hierarchy:
        Per-operand memory chains.
    stall_overlap:
        Step-3 integration policy (default: all memories overlap).
    offchip_bandwidth:
        Bits/cycle available for filling the outermost level during the
        data pre-loading phase (Section III intro). ``None`` means the
        outermost level already holds the layer's data (the validation
        chip's 1 MB GB case) and preload only fills the on-chip levels.
    """

    name: str
    mac_array: MacArray
    hierarchy: MemoryHierarchy
    stall_overlap: StallOverlapConfig = StallOverlapConfig.all_concurrent()
    offchip_bandwidth: Optional[float] = None

    def memory_by_name(self, name: str) -> MemoryLevel:
        """Look up a memory level by its memory name."""
        for level in self.hierarchy.unique_levels():
            if level.name == name:
                return level
        raise KeyError(f"accelerator {self.name} has no memory {name!r}")

    @property
    def peak_macs_per_cycle(self) -> int:
        """Theoretical peak throughput (MAC array size)."""
        return self.mac_array.size

    def area_mm2(self, include: Optional[Iterable[str]] = None) -> float:
        """Total area of the design (see :mod:`repro.hardware.area`).

        ``include`` restricts the accounted memories by name — Case study 3
        excludes the (constant) global buffer from the comparison.
        """
        return accelerator_area_mm2(self, include=include)

    def describe(self) -> str:
        """Multi-line human-readable architecture summary."""
        lines = [f"Accelerator {self.name}: {self.mac_array.describe()}"]
        for level in self.hierarchy.unique_levels():
            inst = level.instance
            ops = "/".join(str(op) for op in sorted(level.serves, key=str))
            ports = ", ".join(
                f"{p.name}:{p.direction.value}@{p.bandwidth:g}b/cyc" for p in inst.ports
            )
            db = " DB" if inst.double_buffered else ""
            extra = f" x{inst.instances}" if inst.instances > 1 else ""
            lines.append(
                f"  {inst.name}[{ops}] {inst.size_bits}b{extra}{db} ({ports})"
            )
        return "\n".join(lines)

    def memory_names(self) -> Tuple[str, ...]:
        """Names of all distinct memories."""
        return tuple(level.name for level in self.hierarchy.unique_levels())

    def replace_stall_overlap(self, config: StallOverlapConfig) -> "Accelerator":
        """Copy of this accelerator with a different Step-3 policy."""
        return dataclasses.replace(self, stall_overlap=config)

    def replace_level(self, name: str, level: MemoryLevel) -> "Accelerator":
        """Copy with memory ``name``'s level swapped for ``level``.

        The old level is replaced by identity in every operand chain that
        holds it, so a shared level stays shared.
        """
        old = self.memory_by_name(name)
        chains = {
            op: tuple(level if lvl is old else lvl for lvl in self.hierarchy.levels(op))
            for op in Operand
        }
        return dataclasses.replace(self, hierarchy=MemoryHierarchy(chains))

    def replace_memory(self, name: str, **instance_changes) -> "Accelerator":
        """Copy with fields of memory ``name``'s instance changed.

        The what-if step of design-space exploration: raise one memory's
        bandwidth, resize or double-buffer it. The level keeps its
        ``serves``, ``allocation`` and ``capacity_share``; a change that
        renames ports needs a new allocation, so build the level and use
        :meth:`replace_level` instead.
        """
        level = self.memory_by_name(name)
        instance = dataclasses.replace(level.instance, **instance_changes)
        return self.replace_level(name, dataclasses.replace(level, instance=instance))

    def fingerprint(self) -> str:
        """Stable content hash of this design point.

        Equal-by-value accelerators — whatever their construction path
        (preset builder, serde round trip, ``dataclasses.replace``) —
        fingerprint identically; any field change changes the digest. The
        evaluation engine keys its cache on this, so one cache can serve a
        whole architecture sweep. Memoized (the dataclass is frozen).
        """
        cached = getattr(self, "_fingerprint", None)
        if cached is None:
            from repro.fingerprint import stable_fingerprint

            cached = stable_fingerprint(self)
            object.__setattr__(self, "_fingerprint", cached)
        return cached
