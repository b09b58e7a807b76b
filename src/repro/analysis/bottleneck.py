"""Bottleneck diagnosis: where stalls come from and what would fix them.

Section V-A closes with the design guidance the model enables: minimize
``SS_overall`` by "1) matching ReqBW (mapping-dependent) with RealBW
(HW-dependent), or 2) if RealBW is too low to match, reducing the frequent
access of the low-BW link". :func:`diagnose` turns a
:class:`~repro.core.report.LatencyReport` into that advice.
"""

from __future__ import annotations

import dataclasses
from typing import List

from repro.core.report import LatencyReport


@dataclasses.dataclass(frozen=True)
class BottleneckFinding:
    """One ranked stall source with quantified remedies."""

    rank: int
    memory: str
    port: str
    stall_cycles: float
    stall_share: float
    req_bw: float
    real_bw: float
    advice: str

    def describe(self) -> str:
        """One-line summary."""
        return (
            f"#{self.rank} {self.memory}.{self.port}: {self.stall_cycles:.0f} cc "
            f"({self.stall_share:.0%} of temporal stall) — ReqBW {self.req_bw:.0f} "
            f"vs RealBW {self.real_bw:.0f} b/cyc. {self.advice}"
        )


def diagnose(report: LatencyReport, top: int = 5) -> List[BottleneckFinding]:
    """Rank the stalling ports of ``report`` and attach remedies.

    Needs a full report: the slim ones a search or a remote engine
    returns carry no per-port anatomy, so a stalling slim report raises
    ``ValueError`` rather than reading as stall-free.
    """
    if report.ss_overall <= 0:
        return []
    if not report.port_combinations:
        raise ValueError(
            "diagnose needs a full report with per-port anatomy, got a slim "
            "one (as a search returns); re-evaluate the mapping with a local "
            "engine: engine.evaluate(mapping, validate=False)"
        )
    stalling = [
        combo for combo in report.port_combinations.values() if combo.ss_comb > 0
    ]
    stalling.sort(key=lambda c: -c.ss_comb)
    findings: List[BottleneckFinding] = []
    for rank, combo in enumerate(stalling[:top], start=1):
        real_bw = max(d.real_bw for d in combo.dtls)
        ratio = combo.req_bw_comb / real_bw if real_bw else float("inf")
        if ratio > 4:
            advice = (
                f"ReqBW exceeds RealBW {ratio:.1f}x; raising bandwidth alone is "
                "unlikely to close the gap — reduce traffic on this link "
                "(more reuse below it, e.g. fewer partial-sum round trips)."
            )
        elif ratio > 1:
            advice = (
                f"Raising this port's bandwidth {ratio:.1f}x (or double-buffering "
                "the served memory) removes the stall."
            )
        else:
            advice = (
                "Aggregate window contention: the port bandwidth matches each "
                "stream alone but not their union — stagger the mappings' "
                "periods or split the port."
            )
        findings.append(
            BottleneckFinding(
                rank=rank,
                memory=combo.memory,
                port=combo.port,
                stall_cycles=combo.ss_comb,
                stall_share=min(1.0, combo.ss_comb / report.ss_overall),
                req_bw=combo.req_bw_comb,
                real_bw=real_bw,
                advice=advice,
            )
        )
    return findings
