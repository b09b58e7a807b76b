"""Greedy minimisation of a failing verification case.

Given a case that violates some properties, the shrinker tries a fixed
sequence of simplifying mutations — halving layer bounds, dropping whole
memory levels, disabling double buffering, collapsing dual ports into one,
removing spatial unrolling, flattening the stall-overlap partition — and
keeps any mutant that (a) still violates at least one of the *same*
properties and (b) is strictly smaller under :func:`case_size`. Mutated
machines are re-mapped through the real mapper (tiny budget), so every
accepted mutant is still a well-formed case; the loop repeats until a full
pass accepts nothing.

Everything is deterministic: mutation order is fixed and the mapper is
seeded, so the same failing case always shrinks to the same minimal
counterexample.
"""

from __future__ import annotations

import dataclasses
from typing import Iterator, List, Optional, Sequence, Tuple

from repro.hardware.accelerator import Accelerator, StallOverlapConfig
from repro.hardware.hierarchy import MemoryHierarchy, auto_allocate
from repro.hardware.memory import single_rw_port
from repro.verify.generators import Case, GeneratorConfig, case_mappings
from repro.verify.properties import Tolerance, check_case
from repro.workload.layer import LayerSpec
from repro.workload.operand import Operand

Mutant = Tuple[Accelerator, dict, LayerSpec]


def case_size(case: Case) -> Tuple[int, int, int, int]:
    """Lexicographic size of a case (smaller = simpler to hand-check).

    Ordered by what dominates human effort: distinct memory levels, then
    temporal loops, then total layer work, then machine clutter (ports,
    instances, double buffering, overlap groups, spatial factors).
    """
    unique = case.accelerator.hierarchy.unique_levels()
    clutter = (
        sum(len(lvl.instance.ports) for lvl in unique)
        + sum(lvl.instance.instances for lvl in unique)
        + sum(1 for lvl in unique if lvl.instance.double_buffered)
        + len(case.accelerator.stall_overlap.concurrent_groups)
        + sum(case.spatial_dict.values())
    )
    return (
        len(unique),
        len(case.mapping.temporal.loops),
        sum(case.layer.dims.values()),
        clutter,
    )


# --------------------------------------------------------------------------- #
# Mutations


def _drop_level(accelerator: Accelerator, name: str) -> Optional[Accelerator]:
    """Remove memory ``name`` from every chain (None if a chain would empty)."""
    chains = {}
    for op in Operand:
        kept = tuple(
            lvl for lvl in accelerator.hierarchy.levels(op) if lvl.name != name
        )
        if not kept:
            return None
        chains[op] = kept
    # Drop the memory from the overlap partition too.
    groups = tuple(
        g for g in (
            frozenset(n for n in group if n != name)
            for group in accelerator.stall_overlap.concurrent_groups
        ) if g
    )
    return dataclasses.replace(
        accelerator,
        hierarchy=MemoryHierarchy(chains),
        stall_overlap=StallOverlapConfig(groups),
    )


def _mutants(case: Case) -> Iterator[Mutant]:
    """All one-step simplifications, in fixed (deterministic) order."""
    acc = case.accelerator
    spatial = case.spatial_dict
    layer = case.layer

    # 1. Layer bounds: straight to 1, then halved.
    for dim in sorted(layer.dims, key=str):
        size = layer.dims[dim]
        if size > 1:
            yield acc, spatial, layer.with_dims(**{dim.value: 1})
            if size > 3:
                yield acc, spatial, layer.with_dims(**{dim.value: size // 2})

    # 2. Drop whole memory levels (innermost-last so outer levels go first).
    for name in sorted(acc.memory_names()):
        dropped = _drop_level(acc, name)
        if dropped is not None:
            yield dropped, spatial, layer

    # 3. Remove spatial unrolling (and shrink the array to match).
    if spatial:
        flat = dataclasses.replace(
            acc, mac_array=dataclasses.replace(acc.mac_array, rows=1, cols=1)
        )
        yield flat, {}, layer

    # 4. Per-memory simplifications.
    for name in sorted(acc.memory_names()):
        level = acc.memory_by_name(name)
        inst = level.instance
        if inst.double_buffered:
            yield acc.replace_memory(name, double_buffered=False), spatial, layer
        if inst.instances > 1:
            yield acc.replace_memory(name, instances=1), spatial, layer
        if len(inst.ports) > 1:
            bw = max(p.bandwidth for p in inst.ports)
            # The endpoint allocation names ports; re-derive it for the new set.
            single = dataclasses.replace(inst, ports=single_rw_port(bw))
            yield (
                acc.replace_level(
                    name, auto_allocate(single, level.serves, level.capacity_share)
                ),
                spatial,
                layer,
            )

    # 5. Flatten the stall-overlap partition.
    if acc.stall_overlap.concurrent_groups:
        yield acc.replace_stall_overlap(StallOverlapConfig.all_concurrent()), spatial, layer


# --------------------------------------------------------------------------- #
# The greedy loop


def _rebuild(
    mutant: Mutant,
    base: Case,
    failing: Sequence[str],
    config: GeneratorConfig,
    tolerance: Tolerance,
    backend: str = "event",
) -> Optional[Case]:
    """Re-map a mutant and return it as a still-failing case, if any."""
    acc, spatial, layer = mutant
    try:
        mappings = case_mappings(
            acc, spatial, layer, config,
            limit=config.mappings_per_machine, seed=0,
        )
    except Exception:
        return None
    for mapping in mappings:
        candidate = Case(
            accelerator=acc,
            spatial=tuple(sorted(spatial.items())),
            layer=layer,
            mapping=mapping,
            case_id=f"{base.case_id.split('~')[0]}~shrunk",
        )
        if check_case(
            candidate, properties=failing, tolerance=tolerance,
            backend=backend,
        ):
            return candidate
    return None


def shrink_case(
    case: Case,
    failing: Sequence[str],
    config: GeneratorConfig = GeneratorConfig(),
    tolerance: Tolerance = Tolerance(),
    max_accepted: int = 64,
    backend: str = "event",
) -> Case:
    """Greedily minimise ``case`` while it keeps violating ``failing``.

    Returns the smallest still-failing case found (possibly ``case``
    itself when nothing simpler fails). Deterministic for a given input —
    ``backend`` is part of that input: shrinking a three-way failure
    re-checks mutants under the same backend that found it.
    """
    if not failing:
        return case
    current = case
    current_size = case_size(current)
    accepted = 0
    improved = True
    while improved and accepted < max_accepted:
        improved = False
        for mutant in _mutants(current):
            candidate = _rebuild(
                mutant, current, failing, config, tolerance, backend
            )
            if candidate is None:
                continue
            size = case_size(candidate)
            if size < current_size:
                current, current_size = candidate, size
                accepted += 1
                improved = True
                break  # restart the pass from the smaller case
    return current


def shrink_report(original: Case, shrunk: Case, failing: List[str]) -> str:
    """Human-readable before/after summary for reports and artifacts."""
    return (
        f"violated: {', '.join(failing)}\n"
        f"original: {original.describe()}\n"
        f"shrunk:   {shrunk.describe()}\n"
        f"machine:\n{shrunk.accelerator.describe()}\n"
        f"mapping:\n{shrunk.mapping.describe()}"
    )
