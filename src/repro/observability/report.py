"""Self-contained HTML run reports: stall attribution + ledger trajectory.

:func:`render_report` turns one run's span records plus the run ledger
into a single dependency-free HTML file (inline CSS bars and inline SVG
sparklines — nothing to fetch, nothing to install):

* **stall waterfall** — per-unit-memory ``SS_comb`` bars grouped by
  Step-3 overlap group, read from the *last* ``model.step3`` span by the
  same span-tree walk as :func:`~repro.observability.export.
  reconcile_ss_overall`, so the waterfall total always reconciles with
  the printed ``SS_overall``;
* **CC breakdown** — the Fig. 7(b)-style preload / ideal / spatial /
  temporal / offload stack;
* **utilization table** — ``U``, ``U_spatial``, ``U_temp``;
* **bench trajectory** — sparklines of ``total_cycles`` / ``ss_overall``
  (and bench ``extra`` metrics) across ledger entries, the perf
  trajectory per commit;
* **simulator cross-check** — shown when the trace holds
  ``simulator.run`` spans (the simulator subsystem is instrumented too).

The numeric payload is embedded as ``<script type="application/json"
id="repro-report-data">`` so tests (and downstream tooling) can read the
exact numbers back out of the HTML without scraping markup.
"""

from __future__ import annotations

import dataclasses
import html
import json
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.observability.export import (
    _last_step3,
    _step3_groups,
    find_spans,
    reconcile_ss_overall,
)
from repro.observability.ledger import RunRecord
from repro.observability.span import SpanRecord

#: The HTML id of the embedded JSON payload.
DATA_ELEMENT_ID = "repro-report-data"


@dataclasses.dataclass(frozen=True)
class WaterfallRow:
    """One unit memory's Step-2 stall, placed in its Step-3 group."""

    group: int
    operand: str
    memory: str
    level: int
    ss: float
    dominant: bool

    @property
    def label(self) -> str:
        return f"{self.operand}@{self.memory}/L{self.level}"


@dataclasses.dataclass(frozen=True)
class Waterfall:
    """The per-level stall waterfall of one evaluation.

    ``group_contributions`` are the clamped Step-3 per-group stalls; by
    Step 3's construction their sum equals ``ss_overall`` — the same
    identity :func:`~repro.observability.export.reconcile_ss_overall`
    replays, which is what makes the rendered waterfall checkable
    against the trace it came from.
    """

    rows: Tuple[WaterfallRow, ...]
    group_contributions: Tuple[Tuple[int, float], ...]
    ss_overall: float

    @property
    def total(self) -> float:
        return sum(ss for _, ss in self.group_contributions)


def stall_waterfall(records: Sequence[SpanRecord]) -> Optional[Waterfall]:
    """Build the waterfall from the last ``model.step3`` span's groups and
    the ``step2.served`` spans of its ``model.evaluate`` subtree.

    The span is found by :func:`~repro.observability.export._last_step3`,
    the walk ``reconcile_ss_overall`` reads too, so the two agree by
    construction. A ``model.step3`` outside any ``model.evaluate`` takes
    every ``step2.served`` span of the trace.
    """
    step3, evaluate = _last_step3(records)
    if step3 is None:
        return None
    groups: List[Tuple[int, float]] = []
    dominant_of: Dict[int, str] = {}
    group_of_memory: Dict[str, int] = {}
    for record in _step3_groups(step3):
        gid = int(record.attributes["group"])
        groups.append((gid, float(record.attributes["ss_group"])))
        dominant_of[gid] = str(record.attributes.get("dominant_memory", ""))
        for memory in str(record.attributes.get("member_memories", "")).split(","):
            if memory:
                group_of_memory[memory] = gid
        group_of_memory.setdefault(dominant_of[gid], gid)
    served = (
        [node.record for node in evaluate.find("step2.served")] if evaluate
        else find_spans(records, "step2.served")
    )
    rows: List[WaterfallRow] = []
    for record in served:
        memory = str(record.attributes["memory"])
        gid = group_of_memory.get(memory, -1)
        rows.append(
            WaterfallRow(
                group=gid,
                operand=str(record.attributes["operand"]),
                memory=memory,
                level=int(record.attributes["level"]),
                ss=float(record.attributes["ss"]),
                dominant=(dominant_of.get(gid) == memory),
            )
        )
    ss_overall = float(step3.attributes.get("ss_overall", sum(s for _, s in groups)))
    return Waterfall(tuple(rows), tuple(groups), ss_overall)


# --------------------------------------------------------------------- #
# Rendering
# --------------------------------------------------------------------- #

_CSS = """
body { font: 14px/1.45 -apple-system, 'Segoe UI', sans-serif; margin: 2rem auto;
       max-width: 60rem; color: #1a1a2e; }
h1 { font-size: 1.4rem; } h2 { font-size: 1.1rem; margin-top: 2rem; }
table { border-collapse: collapse; margin: .5rem 0; }
td, th { padding: .25rem .7rem; border-bottom: 1px solid #e0e0ea;
         text-align: right; }
td:first-child, th:first-child { text-align: left; }
.bar { height: .85rem; background: #5b8dd9; display: inline-block;
       border-radius: 2px; vertical-align: middle; }
.bar.dominant { background: #d97b5b; }
.bar.zero { background: #c9cfdd; }
.seg { height: 1.1rem; display: inline-block; }
.muted { color: #777f92; font-size: .85rem; }
.mono { font-family: ui-monospace, monospace; font-size: .85rem; }
svg.spark { vertical-align: middle; }
"""

_CC_SEGMENTS = (
    ("preload", "#8fa8c9"),
    ("ideal", "#5b8dd9"),
    ("spatial_stall", "#e0b25b"),
    ("temporal_stall", "#d97b5b"),
    ("offload", "#9b8fc9"),
)


def _esc(value: Any) -> str:
    return html.escape(str(value))


def _sparkline(values: Sequence[float], width: int = 220, height: int = 36) -> str:
    """An inline SVG polyline over ``values`` (min-max normalized)."""
    if not values:
        return "<span class='muted'>no entries</span>"
    if len(values) == 1:
        values = list(values) * 2
    lo, hi = min(values), max(values)
    span = (hi - lo) or 1.0
    step = width / (len(values) - 1)
    points = " ".join(
        f"{i * step:.1f},{height - 4 - (v - lo) / span * (height - 8):.1f}"
        for i, v in enumerate(values)
    )
    last = values[-1]
    return (
        f"<svg class='spark' width='{width}' height='{height}' "
        f"viewBox='0 0 {width} {height}'>"
        f"<polyline fill='none' stroke='#5b8dd9' stroke-width='1.5' "
        f"points='{points}'/></svg> "
        f"<span class='mono'>{last:g}</span>"
    )


def _waterfall_html(waterfall: Waterfall) -> str:
    peak = max((abs(r.ss) for r in waterfall.rows), default=0.0) or 1.0
    rows: List[str] = []
    for row in sorted(waterfall.rows, key=lambda r: (r.group, -r.ss)):
        width = max(2, int(abs(max(row.ss, 0.0)) / peak * 260))
        cls = "bar dominant" if row.dominant else ("bar" if row.ss > 0 else "bar zero")
        rows.append(
            f"<tr><td>{_esc(row.label)}</td><td>g{row.group}</td>"
            f"<td>{row.ss:,.1f}</td>"
            f"<td style='text-align:left'><span class='{cls}' "
            f"style='width:{width}px'></span></td></tr>"
        )
    groups = ", ".join(
        f"g{gid}: {ss:,.1f}" for gid, ss in waterfall.group_contributions
    )
    return (
        "<table><tr><th>unit memory</th><th>group</th><th>SS_comb (cc)</th>"
        "<th style='text-align:left'>stall</th></tr>"
        + "".join(rows)
        + "</table>"
        + f"<p class='muted'>group contributions (clamped): {groups or '—'} "
        f"&nbsp;→&nbsp; SS_overall = {waterfall.ss_overall:,.1f} cc</p>"
    )


def _cc_breakdown_html(summary: Dict[str, float]) -> str:
    total = sum(max(0.0, summary.get(name, 0.0)) for name, _ in _CC_SEGMENTS) or 1.0
    segments, legend = [], []
    for name, color in _CC_SEGMENTS:
        value = max(0.0, summary.get(name, 0.0))
        width = value / total * 560
        if width >= 0.5:
            segments.append(
                f"<span class='seg' title='{_esc(name)}: {value:,.1f}' "
                f"style='width:{width:.1f}px;background:{color}'></span>"
            )
        legend.append(
            f"<td>{_esc(name)}</td><td>{value:,.1f}</td>"
            f"<td>{value / total:.1%}</td>"
        )
    rows = "".join(f"<tr>{cells}</tr>" for cells in legend)
    return (
        f"<div>{''.join(segments)}</div>"
        f"<table><tr><th>component</th><th>cycles</th><th>share</th></tr>"
        f"{rows}</table>"
    )


def _evaluation_summary(records: Sequence[SpanRecord]) -> Dict[str, float]:
    """Model-domain numbers of the last ``model.evaluate`` span."""
    evaluates = find_spans(records, "model.evaluate")
    if not evaluates:
        return {}
    attrs = dict(evaluates[-1].attributes)
    out: Dict[str, Any] = {}
    for key, value in attrs.items():
        out[key] = value
    if "cc_spatial" in out and "cc_ideal" in out:
        out["spatial_stall"] = float(out["cc_spatial"]) - float(out["cc_ideal"])
    if "ss_overall" in out:
        out["temporal_stall"] = float(out["ss_overall"])
    if "cc_ideal" in out:
        out["ideal"] = float(out["cc_ideal"])
    return out


def _simulator_html(records: Sequence[SpanRecord]) -> str:
    runs = find_spans(records, "simulator.run")
    if not runs:
        return ""
    rows = []
    for run in runs:
        a = run.attributes
        rows.append(
            "<tr>"
            + "".join(
                f"<td>{_esc(a.get(k, '—'))}</td>"
                for k in (
                    "total_cycles",
                    "compute_cycles",
                    "preload_cycles",
                    "stall_cycles",
                    "drain_tail_cycles",
                    "jobs_completed",
                    "events",
                )
            )
            + "</tr>"
        )
    return (
        "<h2>Simulator cross-check</h2>"
        "<table><tr><th>total</th><th>compute</th><th>preload</th>"
        "<th>stall</th><th>drain tail</th><th>jobs</th><th>events</th></tr>"
        + "".join(rows)
        + "</table>"
    )


def _trajectory_html(entries: Sequence[RunRecord]) -> str:
    if not entries:
        return "<p class='muted'>ledger empty — run with --ledger to accumulate history</p>"
    blocks: List[str] = []
    evaluations = [e for e in entries if e.kind == "evaluation"]
    if evaluations:
        for metric in ("total_cycles", "ss_overall", "utilization"):
            values = [float(getattr(e, metric)) for e in evaluations]
            blocks.append(
                f"<tr><td>{metric}</td><td style='text-align:left'>"
                f"{_sparkline(values)}</td><td>{len(values)}</td></tr>"
            )
    benches = [e for e in entries if e.kind == "bench"]
    series: Dict[str, List[float]] = {}
    for bench in benches:
        for key, value in bench.extra.items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                series.setdefault(f"{bench.label}:{key}", []).append(float(value))
    for name in sorted(series):
        blocks.append(
            f"<tr><td>{_esc(name)}</td><td style='text-align:left'>"
            f"{_sparkline(series[name])}</td><td>{len(series[name])}</td></tr>"
        )
    return (
        "<table><tr><th>metric</th><th style='text-align:left'>trajectory"
        "</th><th>entries</th></tr>" + "".join(blocks) + "</table>"
    )


def render_report(
    records: Sequence[SpanRecord],
    ledger_entries: Sequence[RunRecord] = (),
    *,
    title: str = "repro run report",
) -> str:
    """One self-contained HTML document for a traced run + its ledger.

    ``records`` is a span list (live tracer records or a re-read Chrome
    trace); ``ledger_entries`` the history to chart. The embedded JSON
    payload (id ``repro-report-data``) carries the waterfall rows, group
    contributions, the reconciled ``ss_overall`` and the CC summary.
    """
    waterfall = stall_waterfall(records)
    summary = _evaluation_summary(records)
    reconciled = reconcile_ss_overall(records)
    payload: Dict[str, Any] = {
        "title": title,
        "summary": summary,
        "reconciled_ss_overall": reconciled,
        "ledger_entries": len(ledger_entries),
        "waterfall": None,
    }
    if waterfall is not None:
        payload["waterfall"] = {
            "rows": [dataclasses.asdict(r) for r in waterfall.rows],
            "group_contributions": list(waterfall.group_contributions),
            "ss_overall": waterfall.ss_overall,
            "total": waterfall.total,
        }

    parts: List[str] = [
        "<!doctype html><html><head><meta charset='utf-8'>",
        f"<title>{_esc(title)}</title><style>{_CSS}</style></head><body>",
        f"<h1>{_esc(title)}</h1>",
    ]
    if summary:
        parts.append(
            "<p class='muted'>layer "
            f"<span class='mono'>{_esc(summary.get('layer', '?'))}</span> on "
            f"<span class='mono'>{_esc(summary.get('accelerator', '?'))}</span>"
            f", scenario {_esc(summary.get('scenario', '?'))}</p>"
        )
        parts.append("<h2>CC breakdown</h2>")
        parts.append(_cc_breakdown_html(summary))
        parts.append("<h2>Utilization</h2><table>")
        parts.append("<tr><th>U</th><th>U_spatial</th><th>U_temporal</th></tr>")
        u = float(summary.get("utilization", 0.0))
        cc_ideal = float(summary.get("cc_ideal", 0.0))
        cc_spatial = float(summary.get("cc_spatial", 0.0)) or 1.0
        ss = float(summary.get("ss_overall", 0.0))
        u_spatial = cc_ideal / cc_spatial
        u_temporal = cc_spatial / (cc_spatial + ss)
        parts.append(
            f"<tr><td>{u:.1%}</td><td>{u_spatial:.1%}</td>"
            f"<td>{u_temporal:.1%}</td></tr></table>"
        )
    if waterfall is not None:
        parts.append("<h2>Stall waterfall (per unit memory)</h2>")
        parts.append(_waterfall_html(waterfall))
        if reconciled is not None:
            ok = abs(waterfall.total - reconciled) < 1e-6
            parts.append(
                f"<p class='muted'>reconcile_ss_overall(trace) = "
                f"{reconciled:,.1f} cc — "
                f"{'matches the waterfall total' if ok else 'MISMATCH'}</p>"
            )
    parts.append(_simulator_html(records))
    parts.append("<h2>Ledger trajectory</h2>")
    parts.append(_trajectory_html(ledger_entries))
    parts.append(
        f"<script type='application/json' id='{DATA_ELEMENT_ID}'>"
        + json.dumps(payload)
        + "</script>"
    )
    parts.append("</body></html>")
    return "".join(parts)


def write_report(
    path: str,
    records: Sequence[SpanRecord],
    ledger_entries: Sequence[RunRecord] = (),
    *,
    title: str = "repro run report",
) -> None:
    """Write :func:`render_report` output to ``path``."""
    with open(path, "w") as handle:
        handle.write(render_report(records, ledger_entries, title=title))


def read_report_data(path: str) -> Dict[str, Any]:
    """Read the embedded JSON payload back out of a written report.

    The round-trip tests (and any downstream tooling) use this instead
    of scraping markup.
    """
    with open(path) as handle:
        text = handle.read()
    marker = f"id='{DATA_ELEMENT_ID}'>"
    start = text.index(marker) + len(marker)
    end = text.index("</script>", start)
    return json.loads(text[start:end])


# --------------------------------------------------------------------- #
# Campaign reports
# --------------------------------------------------------------------- #

#: The HTML id of the campaign report's embedded JSON payload.
CAMPAIGN_DATA_ELEMENT_ID = "repro-campaign-data"

_FUNNEL_SEGMENTS = (
    ("cache_hits", "#5b8dd9"),
    ("evaluated", "#8fa8c9"),
    ("dominated", "#e0b25b"),
    ("invalid", "#d97b5b"),
    ("deduped", "#c9cfdd"),
)


def _campaign_funnel_html(
    totals: Dict[str, float], phases: Sequence[RunRecord]
) -> str:
    """Stacked funnel bar over the totals plus a per-phase table."""
    enumerated = max(1.0, float(totals.get("enumerated", 0.0)))
    segments, legend = [], []
    for name, color in _FUNNEL_SEGMENTS:
        value = float(totals.get(name, 0.0))
        width = value / enumerated * 560
        if width >= 0.5:
            segments.append(
                f"<span class='seg' title='{_esc(name)}: {value:g}' "
                f"style='width:{width:.1f}px;background:{color}'></span>"
            )
        legend.append(
            f"<td>{_esc(name)}</td><td>{value:g}</td>"
            f"<td>{value / enumerated:.1%}</td>"
        )
    rows = "".join(f"<tr>{cells}</tr>" for cells in legend)
    parts = [
        f"<div>{''.join(segments)}</div>",
        "<table><tr><th>bucket</th><th>candidates</th><th>share</th></tr>",
        rows,
        "</table>",
    ]
    if phases:
        parts.append(
            "<table><tr><th>phase</th><th>enumerated</th><th>deduped</th>"
            "<th>cache</th><th>evaluated</th><th>invalid</th>"
            "<th>dominated</th><th>conserved</th></tr>"
        )
        for phase in phases:
            e = phase.extra
            parts.append(
                f"<tr><td>{_esc(phase.label)}</td>"
                f"<td>{e.get('enumerated', 0):g}</td>"
                f"<td>{e.get('deduped', 0):g}</td>"
                f"<td>{e.get('cache_hits', 0):g}</td>"
                f"<td>{e.get('evaluated', 0):g}</td>"
                f"<td>{e.get('invalid', 0):g}</td>"
                f"<td>{e.get('dominated', 0):g}</td>"
                f"<td>{'✓' if e.get('conserved') else '✗'}</td></tr>"
            )
        parts.append("</table>")
        tags: List[str] = []
        for phase in phases:
            for key in sorted(phase.extra):
                if key.startswith("tag."):
                    tags.append(
                        f"{_esc(phase.label)}/{_esc(key[4:])}: "
                        f"{phase.extra[key]:g}"
                    )
        if tags:
            parts.append(
                "<p class='muted'>discard provenance — "
                + ", ".join(tags) + "</p>"
            )
    return "".join(parts)


def _campaign_convergence_html(extra: Dict[str, Any]) -> str:
    """Incumbent-trajectory sparkline plus convergence statistics."""
    trajectory = extra.get("trajectory") or []
    values = [float(point[1]) for point in trajectory]
    stats = (
        ("observed", f"{extra.get('observed', 0):g}"),
        ("improvements", f"{extra.get('improvements', 0):g}"),
        ("improvement rate", f"{float(extra.get('improvement_rate', 0.0)):.2%}"),
        ("since improvement", f"{extra.get('since_improvement', 0):g}"),
        ("stagnated", "yes" if extra.get("stagnated") else "no"),
    )
    rows = "".join(f"<tr><td>{k}</td><td>{v}</td></tr>" for k, v in stats)
    return (
        "<p>incumbent trajectory: "
        f"{_sparkline(values, width=420, height=48)}</p>"
        f"<table><tr><th>statistic</th><th>value</th></tr>{rows}</table>"
    )


def _campaign_pareto_html(snapshots: Sequence[Dict[str, Any]]) -> str:
    """Scatter of the Pareto-front evolution: late snapshots darker."""
    points_of = [snap.get("points") or [] for snap in snapshots]
    everything = [p for points in points_of for p in points]
    if not everything:
        return "<p class='muted'>no Pareto snapshots recorded</p>"
    xs = [float(p[0]) for p in everything]
    ys = [float(p[1]) for p in everything]
    lo_x, hi_x = min(xs), max(xs)
    lo_y, hi_y = min(ys), max(ys)
    span_x = (hi_x - lo_x) or 1.0
    span_y = (hi_y - lo_y) or 1.0
    width, height, pad = 560, 240, 12
    parts = [
        f"<svg width='{width}' height='{height}' "
        f"viewBox='0 0 {width} {height}'>"
    ]
    last = len(snapshots) - 1
    for index, points in enumerate(points_of):
        color = "#d97b5b" if index == last else "#5b8dd9"
        opacity = 0.25 + 0.75 * (index + 1) / len(snapshots)
        for p in points:
            cx = pad + (float(p[0]) - lo_x) / span_x * (width - 2 * pad)
            cy = height - pad - (float(p[1]) - lo_y) / span_y * (height - 2 * pad)
            parts.append(
                f"<circle cx='{cx:.1f}' cy='{cy:.1f}' r='3' "
                f"fill='{color}' fill-opacity='{opacity:.2f}'/>"
            )
    parts.append("</svg>")
    legend = "".join(
        f"<tr><td>{_esc(snap.get('label', '') or index)}</td>"
        f"<td>{_esc(snap.get('flow', ''))}</td>"
        f"<td>{snap.get('at', 0):g}</td>"
        f"<td>{len(points_of[index])}</td></tr>"
        for index, snap in enumerate(snapshots)
    )
    return (
        "".join(parts)
        + "<table><tr><th>snapshot</th><th>flow</th><th>at (scored)</th>"
        f"<th>front size</th></tr>{legend}</table>"
    )


def render_campaign_report(
    summary: RunRecord,
    phases: Sequence[RunRecord] = (),
    *,
    title: Optional[str] = None,
) -> str:
    """One self-contained HTML document for a search campaign.

    ``summary`` is the ``kind="campaign"`` ledger row, ``phases`` its
    ``kind="campaign_phase"`` rows. The output is a pure function of the
    records (no wall clock), so a fixed record set renders byte-stable —
    which is how the golden test pins it. The embedded JSON payload (id
    ``repro-campaign-data``) carries the funnel, trajectory and Pareto
    numbers for round-trip reads.
    """
    extra = summary.extra
    title = title or f"campaign report: {summary.label}"
    totals = {
        name: float(extra.get(name, 0.0))
        for name in (
            "enumerated", "deduped", "cache_hits",
            "evaluated", "invalid", "dominated",
        )
    }
    snapshots = extra.get("pareto") or []
    payload: Dict[str, Any] = {
        "title": title,
        "campaign": summary.label,
        "git_sha": summary.git_sha,
        "partial": bool(extra.get("partial")),
        "best_objective": extra.get("best_objective"),
        "funnel": totals,
        "scored": extra.get("scored", 0),
        "conserved": bool(extra.get("conserved")),
        "observed": extra.get("observed", 0),
        "improvements": extra.get("improvements", 0),
        "trajectory": extra.get("trajectory") or [],
        "pareto": snapshots,
        "phases": [
            {"flow": p.label, "extra": p.extra, "options_fp": p.options_fp}
            for p in phases
        ],
    }
    best = extra.get("best_objective")
    state = "partial (interrupted)" if extra.get("partial") else "complete"
    parts: List[str] = [
        "<!doctype html><html><head><meta charset='utf-8'>",
        f"<title>{_esc(title)}</title><style>{_CSS}</style></head><body>",
        f"<h1>{_esc(title)}</h1>",
        "<p class='muted'>"
        f"campaign <span class='mono'>{_esc(summary.label)}</span>, "
        f"{state}, git <span class='mono'>{_esc(summary.git_sha)}</span>, "
        "best objective "
        f"<span class='mono'>{best:g}</span></p>"
        if isinstance(best, (int, float))
        else "<p class='muted'>"
        f"campaign <span class='mono'>{_esc(summary.label)}</span>, "
        f"{state}, git <span class='mono'>{_esc(summary.git_sha)}</span>, "
        "no incumbent found</p>",
        "<h2>Candidate funnel</h2>",
        _campaign_funnel_html(totals, phases),
        "<h2>Convergence</h2>",
        _campaign_convergence_html(extra),
        "<h2>Pareto evolution</h2>",
        _campaign_pareto_html(snapshots),
        f"<script type='application/json' id='{CAMPAIGN_DATA_ELEMENT_ID}'>"
        + json.dumps(payload, sort_keys=True)
        + "</script>",
        "</body></html>",
    ]
    return "".join(parts)


def write_campaign_report(
    path: str,
    summary: RunRecord,
    phases: Sequence[RunRecord] = (),
    *,
    title: Optional[str] = None,
) -> None:
    """Write :func:`render_campaign_report` output to ``path``."""
    with open(path, "w") as handle:
        handle.write(render_campaign_report(summary, phases, title=title))


def read_campaign_report_data(path: str) -> Dict[str, Any]:
    """Read the embedded JSON payload back out of a campaign report."""
    with open(path) as handle:
        text = handle.read()
    marker = f"id='{CAMPAIGN_DATA_ELEMENT_ID}'>"
    start = text.index(marker) + len(marker)
    end = text.index("</script>", start)
    return json.loads(text[start:end])


__all__ = [
    "CAMPAIGN_DATA_ELEMENT_ID",
    "DATA_ELEMENT_ID",
    "Waterfall",
    "WaterfallRow",
    "read_campaign_report_data",
    "read_report_data",
    "render_campaign_report",
    "render_report",
    "stall_waterfall",
    "write_campaign_report",
    "write_report",
]
