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

import numpy as np

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
    gids: Sequence[int],
    ss: Sequence[np.ndarray],
    ports: Sequence[np.ndarray],
    present: Sequence[np.ndarray],
    n_ports: int,
) -> Tuple[np.ndarray, List[Tuple[int, np.ndarray, np.ndarray, np.ndarray]]]:
    """The Step-3 integration over lane columns: the one copy of the
    overlap-group/port-charge arithmetic.

    Entry ``e`` belongs to overlap group ``gids[e]`` in every lane; per
    lane it has stall ``ss[e]``, limiting port index ``ports[e]`` (below
    ``n_ports``) and is there where ``present[e]`` is set. Groups are
    integrated in ascending order; a group's worst member is the first
    present one with the largest effective stall, as Python's ``max``
    picks it (stalls are finite). Returns ``(ss_overall, per_group)``
    with one ``(gid, contribution, worst, has)`` per group:
    ``contribution`` is 0.0 and ``has`` unset in a lane without a present
    member, ``worst`` indexes the entries. :func:`integrate_lane` runs it
    on one lane.
    """
    n = present[0].shape[0] if present else 0
    rows = np.arange(n)
    members: Dict[int, List[int]] = {}
    for e, gid in enumerate(gids):
        members.setdefault(gid, []).append(e)
    charged = np.zeros((n_ports, n))
    total = np.zeros(n)
    per_group = []
    order = sorted(members)
    for position, gid in enumerate(order):
        entries = np.array(members[gid])
        stall = np.array([ss[e] for e in entries], dtype=np.float64)
        port = np.array([ports[e] for e in entries])
        there = np.array([present[e] for e in entries], dtype=bool)
        # A member's effective stall discounts what earlier groups already
        # billed to its limiting physical port (nothing before the first).
        if position:
            stall = stall - charged[port, rows]
        # argmax takes the first of equal maxima, as ``max`` does.
        pick = np.where(there, stall, -np.inf).argmax(axis=0)
        eff = stall[pick, rows]
        has = there.any(axis=0)
        contribution = np.where(has & (eff > 0), eff, 0.0)
        if position < len(order) - 1:
            charged[port[pick, rows], rows] += contribution
        total = total + contribution
        per_group.append((gid, contribution, entries[pick], has))
    return np.where(total > 0, total, 0.0), per_group


def integrate_lane(
    entries: Sequence[Tuple[int, float, Hashable]],
) -> Tuple[float, List[Tuple[int, float, int]]]:
    """:func:`integrate_stall_entries` on one lane of ``(group, ss, port)``
    entries: ``(ss_overall, per_group)`` with one ``(gid, contribution,
    worst_index)`` per overlap group that has an entry."""
    port_index: Dict[Hashable, int] = {}
    for __, ___, port in entries:
        port_index.setdefault(port, len(port_index))
    total, per_group = integrate_stall_entries(
        [gid for gid, __, ___ in entries],
        [np.array([ss]) for __, ss, ___ in entries],
        [np.array([port_index[port]]) for __, ___, port in entries],
        [np.ones(1, dtype=bool)] * len(entries),
        len(port_index),
    )
    return float(total[0]) if entries else 0.0, [
        (gid, float(contribution[0]), int(worst[0]))
        for gid, contribution, worst, __ in per_group
    ]


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
    ss_overall, per_group = integrate_lane(entries)
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
