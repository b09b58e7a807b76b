"""Campaign-scoped search observability: funnel, convergence, provenance.

A *campaign* is one design-space-exploration run — a mapper search, a
local-search refinement, an architecture sweep, a network evaluation, or
any composition of those.  The campaign plane answers the questions the
per-evaluation tracer and ledger cannot:

* **Coverage** — how many candidates did the search actually consider,
  and what happened to each one?
* **Provenance** — *why* was a candidate discarded (duplicate?
  infeasible? dominated by a better one?), with an exact tag per
  discard.
* **Convergence** — how did the incumbent objective evolve, at what
  rate did improvements arrive, and has the search stagnated?

The campaign is ambient like the other sinks
(:mod:`repro.observability.telemetry`)::

    campaign = CampaignRecorder("nightly-sweep")
    with use_telemetry(campaign=campaign):
        search.evaluate(layer)
    campaign.finish()
    campaign.flush_to(ledger)

Instrumentation sites read ``telemetry().campaign`` and call its hooks
(``phase(...)`` funnels, ``observe``) unconditionally; with no campaign
installed the NULL singleton and its inert funnel make every hook a
no-op. Only work done solely for the campaign (computing a Pareto front
to snapshot) guards on ``campaign.enabled``.

Funnel semantics
----------------

Each search loop owns one :class:`PhaseFunnel` (keyed by flow name, e.g.
``"mapper"`` or ``"arch_search"``).  Every enumerated candidate lands in
exactly **one** terminal bucket, so the conservation identity

``enumerated == deduped + cache_hits + evaluated + invalid + dominated``

holds exactly for completed campaigns:

* ``deduped`` — recognized as equivalent to an earlier candidate and
  never scored (tags ``duplicate``, ``canonical-equivalent``).
* ``invalid`` — could not be scored at all (allocation overflow,
  mapping construction error, engine infeasibility, unmappable
  design/layer/spatial, lane overflow).
* ``cache_hits`` / ``evaluated`` — scored **and retained** in the
  phase's final result set, split by score provenance (persistent-cache
  probe vs. fresh kernel evaluation).
* ``dominated`` — scored but discarded by selection (truncated out of
  the top-K, beaten by the incumbent, a worse neighbor, or
  Pareto-dominated); the provenance tag records which.

Interrupted (SIGINT) campaigns flush a best-effort partial row flagged
``partial=1``; conservation is only guaranteed for completed campaigns.
"""

from __future__ import annotations

import dataclasses
import time
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

from .ledger import RunRecord, git_sha
from .progress import (
    ConvergenceUpdate,
    FunnelSnapshot,
    ParetoFrontSnapshot,
)

__all__ = [
    "FUNNEL_BUCKETS",
    "PROVENANCE_BUCKETS",
    "PhaseFunnel",
    "CampaignRecorder",
    "NullCampaign",
    "NULL_CAMPAIGN",
    "CampaignGateResult",
    "campaign_records",
    "select_campaign",
    "phase_records",
    "compare_campaigns",
    "gate_campaigns",
]

#: Terminal funnel buckets, in waterfall order.
FUNNEL_BUCKETS: Tuple[str, ...] = (
    "deduped", "cache_hits", "evaluated", "invalid", "dominated",
)


def _telemetry() -> Any:
    """The ambient telemetry, read at call time: the channel imports this module."""
    from repro.observability.telemetry import telemetry

    return telemetry()


#: Every discard provenance tag and the funnel bucket it drains into.
#: ``cache_hits``/``evaluated`` are retention buckets and have no tags.
PROVENANCE_BUCKETS: Dict[str, str] = {
    # Never scored: recognized as equivalent to an earlier candidate.
    "duplicate": "deduped",
    "canonical-equivalent": "deduped",
    # Never scored: could not be evaluated at all.
    "allocation-overflow": "invalid",
    "mapping-error": "invalid",
    "engine-infeasible": "invalid",
    "unmappable-design": "invalid",
    "unmappable-layer": "invalid",
    "unmappable-spatial": "invalid",
    "lane-overflow": "invalid",
    # Scored, then discarded by selection.
    "keep-top": "dominated",
    "beaten-incumbent": "dominated",
    "worse-neighbor": "dominated",
    "pareto-dominated": "dominated",
    # Bounded, then discarded: its latency floor cannot beat the incumbent.
    "bound-pruned": "dominated",
}


class PhaseFunnel:
    """Candidate accounting for one search loop of a campaign.

    Call :meth:`admit` when a candidate enters the loop,
    :meth:`discard` with a provenance tag when it is dropped, and
    :meth:`retain` when it survives into the loop's result set.
    """

    __slots__ = (
        "flow", "enumerated", "deduped", "cache_hits", "evaluated",
        "invalid", "dominated", "provenance", "context",
    )

    def __init__(self, flow: str) -> None:
        self.flow = flow
        self.enumerated = 0
        self.deduped = 0
        self.cache_hits = 0
        self.evaluated = 0
        self.invalid = 0
        self.dominated = 0
        #: tag -> count, one entry per discard provenance seen.
        self.provenance: Dict[str, int] = {}
        #: replayability scalars (sampling seed, config fingerprint, ...).
        self.context: Dict[str, Any] = {}

    # -- accounting ------------------------------------------------------ #

    def admit(self, n: int = 1) -> None:
        """Count ``n`` candidates entering the funnel."""
        self.enumerated += n

    def discard(self, tag: str, n: int = 1) -> None:
        """Drop ``n`` candidates with provenance ``tag``."""
        if n <= 0:
            return
        bucket = PROVENANCE_BUCKETS.get(tag)
        if bucket is None:
            raise ValueError(f"unknown discard provenance tag: {tag!r}")
        setattr(self, bucket, getattr(self, bucket) + n)
        self.provenance[tag] = self.provenance.get(tag, 0) + n

    def retain(self, n: int = 1, cache_hit: bool = False) -> None:
        """Count ``n`` scored candidates kept in the phase result set."""
        if cache_hit:
            self.cache_hits += n
        else:
            self.evaluated += n

    # -- views ----------------------------------------------------------- #

    @property
    def classified(self) -> int:
        """Candidates that reached a terminal bucket."""
        return (
            self.deduped + self.cache_hits + self.evaluated
            + self.invalid + self.dominated
        )

    @property
    def scored(self) -> int:
        """Candidates that received an objective value."""
        return self.cache_hits + self.evaluated + self.dominated

    @property
    def conserved(self) -> bool:
        """The funnel identity: every admitted candidate classified."""
        return self.enumerated == self.classified

    def counts(self) -> Dict[str, int]:
        """The six funnel counters as a plain dict."""
        return {
            "enumerated": self.enumerated,
            "deduped": self.deduped,
            "cache_hits": self.cache_hits,
            "evaluated": self.evaluated,
            "invalid": self.invalid,
            "dominated": self.dominated,
        }

    def as_extra(self) -> Dict[str, Any]:
        """Ledger ``extra`` payload: counts, tags, and replay context."""
        extra: Dict[str, Any] = dict(self.counts())
        extra["scored"] = self.scored
        extra["conserved"] = 1.0 if self.conserved else 0.0
        for tag in sorted(self.provenance):
            extra[f"tag.{tag}"] = self.provenance[tag]
        for key, value in self.context.items():
            extra[f"ctx.{key}"] = value
        return extra


class _NullFunnel(PhaseFunnel):
    """Inert funnel returned by the NULL campaign: swallows everything."""

    def __init__(self) -> None:
        super().__init__("null")

    def admit(self, n: int = 1) -> None:
        pass

    def discard(self, tag: str, n: int = 1) -> None:
        pass

    def retain(self, n: int = 1, cache_hit: bool = False) -> None:
        pass


class CampaignRecorder:
    """Accumulates funnel, convergence, and Pareto telemetry for one campaign.

    The recorder is cheap enough to leave threaded through hot search
    loops: funnel updates are plain integer bumps, convergence updates
    emit a progress event only on improvement, and metrics gauges are
    synchronized at checkpoints (improvements, snapshots, finish) rather
    than per candidate.
    """

    enabled = True

    def __init__(
        self,
        name: str = "campaign",
        *,
        stagnation_after: int = 500,
        clock: Callable[[], float] = time.time,
    ) -> None:
        self.name = name
        self.stagnation_after = stagnation_after
        self._clock = clock
        self.started_ts = clock()
        self.phases: Dict[str, PhaseFunnel] = {}
        self.best: Optional[float] = None
        self.observed = 0
        self.improvements = 0
        self.last_improvement_at = 0
        #: (observed index, incumbent objective) appended per improvement.
        self.trajectory: List[Tuple[int, float]] = []
        #: Pareto-front evolution: dicts with flow/label/at/points.
        self.snapshots: List[Dict[str, Any]] = []
        self.memoized_searches = 0
        self.partial = False
        self._finished = False
        self._flushed = False
        self._stagnation_reported = False

    # -- funnel ---------------------------------------------------------- #

    def phase(self, flow: str) -> PhaseFunnel:
        """Get-or-create the funnel for one search loop, by flow name."""
        funnel = self.phases.get(flow)
        if funnel is None:
            funnel = self.phases[flow] = PhaseFunnel(flow)
        return funnel

    def note_memoized_search(self) -> None:
        """A whole-search result was served from the engine cache."""
        self.memoized_searches += 1

    def note_context(self, flow: str, **scalars: Any) -> None:
        """Attach replayability context (seeds, fingerprints) to a phase."""
        self.phase(flow).context.update(scalars)

    def funnel_totals(self) -> Dict[str, int]:
        """Funnel counters summed across all phases."""
        totals = {
            "enumerated": 0, "deduped": 0, "cache_hits": 0,
            "evaluated": 0, "invalid": 0, "dominated": 0,
        }
        for funnel in self.phases.values():
            for key, value in funnel.counts().items():
                totals[key] += value
        return totals

    @property
    def conserved(self) -> bool:
        """True when every phase funnel satisfies the conservation identity."""
        return all(f.conserved for f in self.phases.values())

    @property
    def scored(self) -> int:
        """Scored candidates across all phases (the coverage measure)."""
        return sum(f.scored for f in self.phases.values())

    # -- convergence ----------------------------------------------------- #

    def observe(self, objective: float) -> bool:
        """Record one scored candidate; returns True on a new incumbent."""
        self.observed += 1
        improved = self.best is None or objective < self.best
        if improved:
            self.best = objective
            self.improvements += 1
            self.last_improvement_at = self.observed
            self.trajectory.append((self.observed, objective))
            self._stagnation_reported = False
            self._emit_convergence()
            self._sync_metrics()
        elif self.stagnated and not self._stagnation_reported:
            self._stagnation_reported = True
            self._emit_convergence()
            self._sync_metrics()
        return improved

    def skip(self, n: int) -> None:
        """Record ``n`` candidates that are known not to improve the
        incumbent, though their objective was never computed (a
        bound-pruned lane, or a lane a block's winner beats). They count
        as observed, so ``since_improvement`` and the stagnation report
        stay in candidates; the report fires at the candidate that
        reaches ``stagnation_after``, as :meth:`observe` would fire it.
        """
        if n <= 0:
            return
        end = self.observed + n
        stall_at = max(self.last_improvement_at + self.stagnation_after,
                       self.observed + 1)
        if not self._stagnation_reported and stall_at <= end:
            self.observed = stall_at
            self._stagnation_reported = True
            self._emit_convergence()
            self._sync_metrics()
        self.observed = end

    @property
    def improvement_rate(self) -> float:
        """Improvements per observed candidate (0 when nothing observed)."""
        return self.improvements / self.observed if self.observed else 0.0

    @property
    def since_improvement(self) -> int:
        """Candidates observed since the incumbent last improved."""
        return self.observed - self.last_improvement_at

    @property
    def stagnated(self) -> bool:
        """True once ``stagnation_after`` candidates pass with no improvement."""
        return self.observed > 0 and self.since_improvement >= self.stagnation_after

    # -- Pareto evolution ------------------------------------------------ #

    def pareto_snapshot(
        self,
        flow: str,
        points: Sequence[Sequence[float]],
        label: str = "",
    ) -> None:
        """Record the current Pareto front of ``flow`` as (x, y) pairs."""
        snap = {
            "flow": flow,
            "label": label,
            "at": self.observed,
            "points": [[float(x), float(y)] for x, y in points],
        }
        self.snapshots.append(snap)
        emitter = _telemetry().progress
        if emitter.enabled:
            emitter.emit(ParetoFrontSnapshot(
                run_id=self._run_id(), flow=flow, label=label,
                size=len(snap["points"]), points=snap["points"],
            ))
        self._sync_metrics()

    # -- event / metrics bridges ----------------------------------------- #

    def _run_id(self) -> str:
        return f"campaign:{self.name}"

    def _emit_convergence(self) -> None:
        emitter = _telemetry().progress
        if not emitter.enabled:
            return
        emitter.emit(ConvergenceUpdate(
            run_id=self._run_id(),
            objective=self.best if self.best is not None else 0.0,
            observed=self.observed,
            improvements=self.improvements,
            improvement_rate=self.improvement_rate,
            since_improvement=self.since_improvement,
            stagnated=self.stagnated,
        ))

    def _emit_funnels(self) -> None:
        emitter = _telemetry().progress
        if not emitter.enabled:
            return
        for funnel in self.phases.values():
            emitter.emit(FunnelSnapshot(
                run_id=self._run_id(), flow=funnel.flow, **funnel.counts(),
            ))

    def _sync_metrics(self) -> None:
        registry = _telemetry().metrics
        if not registry.enabled:
            return
        if self.best is not None:
            registry.gauge(
                "repro_campaign_best_objective",
                "Best objective found by the active search campaign.",
            ).set(self.best)
        registry.gauge(
            "repro_campaign_observed",
            "Scored candidates observed by the active campaign.",
        ).set(float(self.observed))
        registry.gauge(
            "repro_campaign_improvements",
            "Incumbent improvements in the active campaign.",
        ).set(float(self.improvements))
        registry.gauge(
            "repro_campaign_stagnation",
            "Candidates since the incumbent last improved.",
        ).set(float(self.since_improvement))
        registry.gauge(
            "repro_campaign_memoized_searches",
            "Whole-search results served from the engine cache.",
        ).set(float(self.memoized_searches))
        if self.snapshots:
            registry.gauge(
                "repro_campaign_pareto_size",
                "Size of the latest recorded Pareto front.",
            ).set(float(len(self.snapshots[-1]["points"])))
        for bucket, value in self.funnel_totals().items():
            registry.gauge(
                "repro_campaign_funnel",
                "Campaign candidate funnel, by terminal bucket.",
                labels={"bucket": bucket},
            ).set(float(value))

    # -- lifecycle ------------------------------------------------------- #

    def finish(self, partial: bool = False) -> None:
        """Seal the campaign: emit final telemetry. Idempotent."""
        if self._finished:
            return
        self._finished = True
        self.partial = bool(partial)
        self._emit_convergence()
        self._emit_funnels()
        self._sync_metrics()

    def to_records(self) -> List[RunRecord]:
        """The campaign as ledger rows: one summary + one row per phase."""
        now = self._clock()
        sha = git_sha()
        totals = self.funnel_totals()
        extra: Dict[str, Any] = dict(totals)
        extra.update({
            "scored": self.scored,
            "conserved": 1.0 if self.conserved else 0.0,
            "partial": 1.0 if self.partial else 0.0,
            "observed": self.observed,
            "improvements": self.improvements,
            "improvement_rate": self.improvement_rate,
            "since_improvement": self.since_improvement,
            "stagnated": 1.0 if self.stagnated else 0.0,
            "memoized_searches": self.memoized_searches,
            "phases": len(self.phases),
        })
        if self.best is not None:
            extra["best_objective"] = self.best
        # Downsample the trajectory so the summary row stays bounded even
        # for campaigns with thousands of improvements.
        trajectory = list(self.trajectory)
        if len(trajectory) > 256:
            step = len(trajectory) / 255.0
            sampled = [trajectory[int(i * step)] for i in range(255)]
            sampled.append(trajectory[-1])
            trajectory = sampled
        extra["trajectory"] = [[at, obj] for at, obj in trajectory]
        extra["pareto"] = self.snapshots[-8:]
        records = [RunRecord(
            kind="campaign",
            label=self.name,
            campaign=self.name,
            ts=now,
            git_sha=sha,
            total_cycles=self.best if self.best is not None else 0.0,
            wall_time_s=max(0.0, now - self.started_ts),
            extra=extra,
        )]
        for funnel in self.phases.values():
            phase_extra = funnel.as_extra()
            phase_extra["partial"] = 1.0 if self.partial else 0.0
            records.append(RunRecord(
                kind="campaign_phase",
                label=funnel.flow,
                campaign=self.name,
                ts=now,
                git_sha=sha,
                options_fp=str(funnel.context.get("config_fp", "")),
                extra=phase_extra,
            ))
        return records

    def flush_to(self, ledger: Any, partial: bool = False) -> int:
        """Persist the campaign rows to ``ledger``. Idempotent: the second
        and later calls (e.g. the CLI epilogue after a search loop's own
        SIGINT handler already flushed) write nothing and return 0."""
        if self._flushed or not getattr(ledger, "enabled", False):
            return 0
        self.finish(partial=partial)
        self._flushed = True
        records = self.to_records()
        ledger.append_many(records)
        return len(records)

    def summary_line(self) -> str:
        """One human line for CLI epilogues."""
        totals = self.funnel_totals()
        best = f"{self.best:.6g}" if self.best is not None else "n/a"
        state = "partial" if self.partial else "complete"
        return (
            f"campaign '{self.name}' ({state}): best={best} "
            f"enumerated={totals['enumerated']} scored={self.scored} "
            f"improvements={self.improvements}"
        )


class NullCampaign:
    """No-op campaign: the ambient default when none is installed."""

    enabled = False
    name = ""
    partial = False

    _NULL_FUNNEL = _NullFunnel()

    def phase(self, flow: str) -> PhaseFunnel:
        return self._NULL_FUNNEL

    def note_memoized_search(self) -> None:
        pass

    def note_context(self, flow: str, **scalars: Any) -> None:
        pass

    def observe(self, objective: float) -> bool:
        return False

    def skip(self, n: int) -> None:
        pass

    def pareto_snapshot(
        self, flow: str, points: Sequence[Sequence[float]], label: str = "",
    ) -> None:
        pass

    def finish(self, partial: bool = False) -> None:
        pass

    def flush_to(self, ledger: Any, partial: bool = False) -> int:
        return 0


NULL_CAMPAIGN = NullCampaign()


# --------------------------------------------------------------------------- #
# Campaign rows: selection, comparison, and the search-quality gate.
# --------------------------------------------------------------------------- #


def campaign_records(records: Sequence[RunRecord]) -> List[RunRecord]:
    """All ``kind="campaign"`` summary rows, in ledger order."""
    return [r for r in records if r.kind == "campaign"]


def select_campaign(
    records: Sequence[RunRecord], name: Optional[str] = None,
) -> Optional[RunRecord]:
    """The latest campaign summary row (optionally filtered by name)."""
    rows = [
        r for r in campaign_records(records)
        if name is None or r.label == name
    ]
    return rows[-1] if rows else None


def phase_records(
    records: Sequence[RunRecord], name: str,
) -> List[RunRecord]:
    """The per-phase funnel rows belonging to campaign ``name``."""
    return [
        r for r in records
        if r.kind == "campaign_phase" and r.campaign == name
    ]


def _best_of(record: RunRecord) -> Optional[float]:
    value = record.extra.get("best_objective")
    return float(value) if isinstance(value, (int, float)) else None


def _scored_of(record: RunRecord) -> float:
    value = record.extra.get("scored", 0.0)
    return float(value) if isinstance(value, (int, float)) else 0.0


def compare_campaigns(
    baseline: RunRecord, candidate: RunRecord,
) -> List[str]:
    """Human-readable deltas between two campaign summary rows."""
    lines = [
        f"baseline:  {baseline.label!r} ts={baseline.ts:.0f} "
        f"git={baseline.git_sha}",
        f"candidate: {candidate.label!r} ts={candidate.ts:.0f} "
        f"git={candidate.git_sha}",
    ]
    base_best, cand_best = _best_of(baseline), _best_of(candidate)
    if base_best is not None and cand_best is not None:
        rel = (cand_best - base_best) / base_best if base_best else 0.0
        lines.append(
            f"best_objective: {base_best:.6g} -> {cand_best:.6g} "
            f"({rel:+.2%})"
        )
    else:
        lines.append(
            f"best_objective: {base_best} -> {cand_best}"
        )
    for key in (
        "scored", "enumerated", "deduped", "cache_hits", "evaluated",
        "invalid", "dominated", "observed", "improvements",
    ):
        b = baseline.extra.get(key, 0.0)
        c = candidate.extra.get(key, 0.0)
        if isinstance(b, (int, float)) and isinstance(c, (int, float)):
            lines.append(f"{key}: {b:g} -> {c:g} ({c - b:+g})")
    return lines


@dataclasses.dataclass(frozen=True)
class CampaignGateResult:
    """Outcome of the search-quality gate.

    ``code`` follows the ``diff`` convention: 0 clean (or improved),
    1 regression (best objective or coverage), 2 missing campaign row.
    """

    code: int
    lines: Tuple[str, ...]

    @property
    def ok(self) -> bool:
        return self.code == 0


def gate_campaigns(
    baseline_records: Sequence[RunRecord],
    candidate_records: Sequence[RunRecord],
    *,
    name: Optional[str] = None,
    rel_tol: float = 0.01,
    coverage_floor: float = 0.5,
) -> CampaignGateResult:
    """Search-quality regression gate between two ledgers.

    Fails (code 1) when the candidate campaign's best-found objective
    regresses more than ``rel_tol`` relative to the baseline campaign,
    or when its scored coverage collapses below ``coverage_floor``
    times the baseline's.  Missing campaign rows on either side are
    code 2 (bad usage / infrastructure drift, not a search regression).
    """
    baseline = select_campaign(baseline_records, name)
    if baseline is None:
        return CampaignGateResult(2, (
            "gate: no baseline campaign row"
            + (f" named {name!r}" if name else ""),
        ))
    candidate = select_campaign(candidate_records, name)
    if candidate is None:
        return CampaignGateResult(2, (
            "gate: no candidate campaign row"
            + (f" named {name!r}" if name else ""),
        ))
    lines = compare_campaigns(baseline, candidate)
    failures = []
    base_best, cand_best = _best_of(baseline), _best_of(candidate)
    if base_best is not None:
        if cand_best is None:
            failures.append("FAIL best_objective: candidate found no incumbent")
        elif cand_best > base_best * (1.0 + rel_tol):
            rel = (cand_best - base_best) / base_best if base_best else 0.0
            failures.append(
                f"FAIL best_objective: {base_best:.6g} -> {cand_best:.6g} "
                f"({rel:+.2%} > +{rel_tol:.2%})"
            )
        elif cand_best < base_best:
            lines.append(
                f"improved: best_objective {base_best:.6g} -> {cand_best:.6g}"
            )
    base_scored, cand_scored = _scored_of(baseline), _scored_of(candidate)
    if base_scored > 0 and cand_scored < coverage_floor * base_scored:
        failures.append(
            f"FAIL coverage: scored {cand_scored:g} < "
            f"{coverage_floor:g} x baseline {base_scored:g}"
        )
    lines.extend(failures)
    if failures:
        return CampaignGateResult(1, tuple(lines))
    lines.append("gate: ok")
    return CampaignGateResult(0, tuple(lines))
