"""Step 2 — Combine DTLs sharing physical ports and serving the same memory.

Two combinations happen here (Section III-C):

1. **Shared-port combination.** All DTL endpoints landing on one physical
   memory port contend for its bandwidth. ``ReqBW_comb`` is the sum of the
   endpoints' ``ReqBW_u``; ``MUW_comb`` is the length of the *union* of
   their periodic allowed windows; and ``SS_comb`` follows Eq. (1)/(2):

   * Eq. (1), all ``SS_u <= 0``:
     ``SS_comb = sum(MUW_u + SS_u) - MUW_comb``
     (note ``MUW_u + SS_u = X_REAL * Z`` — the port busy time the DTL
     needs; the port stalls when total demand exceeds the combined window).
   * Eq. (2), some ``SS_u > 0``: positive stalls pass through undiminished
     and only the non-positive rest may (partially) absorb into the window:
     ``SS_comb = sum(SS_u > 0) + max(0, sum_nonpos(MUW_u + SS_u) - MUW_comb)``.
     A DTL's own stall is never cancelled by another DTL's slack.

2. **Same-served-memory combination.** The two endpoints of a logical
   transfer (source read port, destination write port) serve the same unit
   memory; the stall the unit memory experiences is the max of the two
   ports' ``SS_comb``.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Sequence, Tuple

from repro.core import kernels
from repro.core.dtl import DTL
from repro.core.windows import union_length
from repro.workload.operand import Operand


@dataclasses.dataclass(frozen=True)
class PortCombination:
    """Combined Step-2 attributes of one physical memory port."""

    memory: str
    port: str
    dtls: Tuple[DTL, ...]
    req_bw_comb: float
    muw_comb: float
    ss_comb: float

    def describe(self) -> str:
        """One-line summary for reports."""
        return (
            f"{self.memory}.{self.port}: {len(self.dtls)} DTL(s), "
            f"ReqBW_comb={self.req_bw_comb:.2f} b/cyc, SS_comb={self.ss_comb:.1f} cc"
        )


@dataclasses.dataclass(frozen=True)
class ServedMemoryStall:
    """Final Step-2 stall of one unit memory (operand at one level)."""

    operand: Operand
    level: int
    memory: str
    ss: float
    limiting_port: Tuple[str, str]

    def describe(self) -> str:
        """One-line summary for reports."""
        lim = f"{self.limiting_port[0]}.{self.limiting_port[1]}"
        return f"{self.operand}@{self.memory}(L{self.level}): SS={self.ss:.1f} cc (limited by {lim})"


def combine_port(
    memory: str,
    port: str,
    dtls: Sequence[DTL],
    horizon: float,
    rule: str = "refined",
) -> PortCombination:
    """Combine the DTLs sharing one physical port (Eq. (1)/(2)).

    With ``rule="paper"`` the equations are applied exactly as printed.
    ``rule="refined"`` additionally enforces the port's aggregate busy
    deficit: the port must move ``sum(X_REAL * Z)`` bits-worth of cycles
    but only ``MUW_comb`` window cycles exist, so
    ``SS_comb >= sum(busy) - MUW_comb`` — a bound the printed Eq. (2)
    misses when an already-stalling DTL shares the port with a DTL that
    exactly saturates the window.
    """
    dtls = tuple(dtls)
    req_bw_comb = sum(d.req_bw for d in dtls)
    muw_comb = union_length([d.window() for d in dtls], horizon)

    positives = [d for d in dtls if d.ss_u > 0]
    nonpos = [d for d in dtls if d.ss_u <= 0]
    nonpos_demand = sum(d.muw_u + d.ss_u for d in nonpos)
    total_busy = sum(d.muw_u + d.ss_u for d in dtls)  # = sum X_REAL * Z
    ss_comb = float(
        kernels.combine_ss(
            sum(d.ss_u for d in positives),
            nonpos_demand,
            bool(positives),
            muw_comb,
            total_busy,
            rule == "refined",
        )
    )
    return PortCombination(memory, port, dtls, req_bw_comb, muw_comb, ss_comb)


def combine_all_ports(
    dtls: Sequence[DTL], horizon: float, rule: str = "refined"
) -> Dict[Tuple[str, str], PortCombination]:
    """Group DTL endpoints by physical port and combine each group."""
    groups: Dict[Tuple[str, str], List[DTL]] = {}
    for dtl in dtls:
        groups.setdefault(dtl.port_key, []).append(dtl)
    return {
        key: combine_port(key[0], key[1], group, horizon, rule)
        for key, group in groups.items()
    }


def served_memory_stalls(
    dtls: Sequence[DTL],
    port_combinations: Dict[Tuple[str, str], PortCombination],
    rule: str = "chained",
) -> List[ServedMemoryStall]:
    """Per-unit-memory stall from the endpoint ports' ``SS_comb``.

    Within one logical traffic stream the two endpoints (source read port,
    destination write port) carry the same data, so the stream experiences
    the *max* of the two ports' combined stalls ("the final SS_comb is the
    maximal value ... e.g. max(SS_comb 1-6, SS_comb 2-7)").

    Across *distinct* streams serving the same unit memory:

    * ``"paper"`` takes the max, as printed in Fig. 2(b);
    * ``"sum"`` adds them — a pessimistic fully-serialized bound kept for
      the ablation study;
    * ``"chained"`` (default) takes the paper max but additionally bounds
      the result from below by the *dependency-chain* cost of an output
      drain followed by its partial-sum reload. The two transfers cannot
      overlap at one period boundary (the reload waits for the drain), and
      the chain restarts every period whenever the allowed window is
      strictly shorter than the period (``X_REQ < P`` — compute separates
      the deadlines, draining any pipelining); its cost is then the *sum*
      of the streams' own per-DTL stalls. When ``X_REQ == P`` consecutive
      boundaries abut and the streams pipeline on their two ports, so no
      chain term applies. Both regimes are confirmed by the cycle-level
      simulator (ablation bench).
    """
    per_stream: Dict[
        Tuple[Operand, int, str, str], Tuple[float, Tuple[str, str]]
    ] = {}
    for dtl in dtls:
        transfer = dtl.transfer
        key = (
            transfer.operand,
            transfer.served_level,
            transfer.served_memory,
            transfer.kind.value,
        )
        port_ss = port_combinations[dtl.port_key].ss_comb
        if key not in per_stream or port_ss > per_stream[key][0]:
            per_stream[key] = (port_ss, dtl.port_key)

    served: Dict[Tuple[Operand, int, str], Tuple[float, Tuple[str, str]]] = {}
    for (operand, level, memory, __), (ss, port) in per_stream.items():
        key = (operand, level, memory)
        if key not in served:
            served[key] = (ss, port)
        elif rule == "sum":
            prev_ss, prev_port = served[key]
            # Sum distinct streams; only positive stalls accumulate.
            total = max(prev_ss, 0.0) + max(ss, 0.0)
            if total == 0.0:
                total = max(prev_ss, ss)
            served[key] = (total, port if ss > prev_ss else prev_port)
        else:  # "paper" and the base of "chained": the per-port max
            if ss > served[key][0]:
                served[key] = (ss, port)

    if rule == "chained":
        _apply_chain_bounds(dtls, per_stream, served)

    out = [
        ServedMemoryStall(operand, level, memory, ss, port)
        for (operand, level, memory), (ss, port) in sorted(
            served.items(), key=lambda kv: (str(kv[0][0]), kv[0][1])
        )
    ]
    return out


def _apply_chain_bounds(
    dtls: Sequence[DTL],
    per_stream: Dict[Tuple[Operand, int, str, str], Tuple[float, Tuple[str, str]]],
    served: Dict[Tuple[Operand, int, str], Tuple[float, Tuple[str, str]]],
) -> None:
    """Lower-bound served stalls by the drain->reload dependency chain.

    For every unit memory with both a FLUSH and a PSUM_READBACK stream
    whose allowed window is strictly shorter than the period (separated
    boundaries — the chain restarts every period instead of pipelining),
    the unit memory's stall is at least the sum of the two streams'
    port-level stalls: the drain's write-side port time and the reload's
    read-side port time cannot overlap at the boundary.
    """
    from repro.core.dtl import TrafficKind

    chained_kinds = (TrafficKind.FLUSH.value, TrafficKind.PSUM_READBACK.value)
    separated: Dict[Tuple[Operand, int, str], Dict[str, bool]] = {}
    for dtl in dtls:
        transfer = dtl.transfer
        if transfer.kind.value not in chained_kinds:
            continue
        key = (transfer.operand, transfer.served_level, transfer.served_memory)
        separated.setdefault(key, {})[transfer.kind.value] = (
            transfer.x_req < transfer.period - 1e-9
        )
    for key, kinds in separated.items():
        if len(kinds) < 2 or not all(kinds.values()):
            continue  # need both streams, both with keep-out-separated windows
        chain = 0.0
        port = served[key][1] if key in served else None
        for kind in chained_kinds:
            entry = per_stream.get((*key, kind))
            if entry is None:
                chain = -1.0
                break
            chain += max(0.0, entry[0])
            port = port or entry[1]
        if chain > 0 and port is not None and chain > served.get(key, (0.0, port))[0]:
            served[key] = (chain, port)
