"""Step 3 — Integrate per-memory stalls into the overall temporal stall.

"SS_overall accounts for the parallel memory operation as well as multiple
stall sources across all memory levels. For the memory operations that can
be overlapped, SS_overall takes the maximum of SS_comb [...]; otherwise,
SS_overall is the sum of all stalls [...]. Users can customize this memory
parallel operation constraint based on the design." (Section III-D)

The :class:`~repro.hardware.accelerator.StallOverlapConfig` partitions the
memory modules into concurrent groups: inside a group stalls hide under
each other (max); the groups themselves serialize (sum). Each group's
contribution is clamped at zero before summing so that one group's slack
never cancels another group's stall — the same no-cancellation philosophy
as Eq. (2) — and the final ``SS_overall`` is clamped at zero per the paper
("if calculated SS_overall <= 0, we take zero").

One refinement on top of the printed rule: the cross-group sum never
charges the same *physical port* twice. A port shared by several unit
memories (a single-ported global buffer serving W, I and O) produces one
``SS_comb`` that Step 2 hands to every served memory; if the overlap
config then places those memories in different groups, summing the copies
would bill one port's busy time once per group. The cycle-level simulator
confirms the stall is paid once (the port can only be busy once), so each
group only contributes a port's stall *in excess* of what earlier groups
already charged to that port. Groups limited by disjoint ports are
unaffected.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Hashable, List, Sequence, Tuple

from repro.core.step2 import ServedMemoryStall
from repro.hardware.accelerator import StallOverlapConfig


@dataclasses.dataclass(frozen=True)
class StallIntegration:
    """The Step-3 result: overall stall plus its per-group breakdown."""

    ss_overall: float
    group_stalls: Tuple[Tuple[int, float], ...]
    dominant: Tuple[ServedMemoryStall, ...]

    def describe(self) -> str:
        """One-line summary for reports."""
        groups = ", ".join(f"g{gid}={ss:.1f}" for gid, ss in self.group_stalls)
        return f"SS_overall={self.ss_overall:.1f} cc ({groups or 'no stall sources'})"


def integrate_stall_entries(
    entries: Sequence[Tuple[int, float, Hashable]],
) -> Tuple[float, List[Tuple[int, float, int]]]:
    """The Step-3 integration over plain ``(group, ss, port)`` entries.

    This is the single source of truth for the overlap-group/port-charge
    arithmetic; :func:`integrate_stalls` wraps it over
    :class:`~repro.core.step2.ServedMemoryStall` objects and the batch
    evaluator calls it directly on array-extracted tuples. Returns
    ``(ss_overall, per_group)`` with one ``(gid, contribution, worst_index)``
    triple per overlap group in ascending group order; ``worst_index``
    points into ``entries``.
    """
    groups: Dict[int, List[int]] = {}
    for idx, (gid, __, ___) in enumerate(entries):
        groups.setdefault(gid, []).append(idx)

    per_group: List[Tuple[int, float, int]] = []
    charged: Dict[Hashable, float] = {}
    total = 0.0
    for gid in sorted(groups):
        members = groups[gid]
        # A member's effective stall discounts what earlier groups
        # already billed to its limiting physical port.
        worst = max(
            members,
            key=lambda i: entries[i][1] - charged.get(entries[i][2], 0.0),
        )
        __, ss, port = entries[worst]
        contribution = max(0.0, ss - charged.get(port, 0.0))
        if contribution > 0:
            charged[port] = charged.get(port, 0.0) + contribution
        per_group.append((gid, contribution, worst))
        total += contribution
    return max(0.0, total), per_group


def integrate_stalls(
    served: Sequence[ServedMemoryStall],
    overlap: StallOverlapConfig = StallOverlapConfig.all_concurrent(),
) -> StallIntegration:
    """Combine unit-memory stalls into ``SS_overall``.

    Returns the integration together with the *dominant* stall source of
    every group — the bottleneck list that Section V's case studies read
    off to decide what to fix (raise RealBW or reduce the traffic).
    """
    entries = [
        (overlap.group_of(stall.memory), stall.ss, stall.limiting_port)
        for stall in served
    ]
    ss_overall, per_group = integrate_stall_entries(entries)
    group_stalls: List[Tuple[int, float]] = []
    dominant: List[ServedMemoryStall] = []
    for gid, contribution, worst_idx in per_group:
        group_stalls.append((gid, contribution))
        if contribution > 0:
            dominant.append(served[worst_idx])
    return StallIntegration(
        ss_overall=ss_overall,
        group_stalls=tuple(group_stalls),
        dominant=tuple(sorted(dominant, key=lambda s: -s.ss)),
    )
