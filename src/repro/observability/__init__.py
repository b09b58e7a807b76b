"""repro.observability — hierarchical tracing, metrics, stall
attribution, a persistent run ledger, live progress events and search
campaigns for the whole evaluation path.

Zero-dependency substrate (see ``docs/OBSERVABILITY.md``) with five
sinks, one exporter family and one ambient channel:

* :class:`Tracer` — hierarchical spans over the evaluation tree
  (network -> layer -> mapping candidate -> step1/2/3 -> per-DTL) carrying
  wall time *and* model-domain attributes (SS_u, MUW parameters, the
  Eq. (1)/(2) combine decision, scenario classification), recorded as
  flat, serializable :class:`~repro.observability.span.SpanRecord` lists
  (the serve daemon ships its subtree back and the client merges it
  order-preserving).
* :class:`MetricsRegistry` — counters / gauges / histograms (cache hit
  ratio, evaluations per second, mapper samples, per-phase latency
  percentiles) with JSON and Prometheus-text exporters.
* :class:`RunLedger` — append-only, schema-versioned SQLite store of
  every evaluation and bench result (fingerprints, CC decomposition,
  per-unit-memory ``SS_comb``, git SHA), with JSONL snapshots and
  :func:`diff_records` as a CI regression gate.
* :class:`ProgressEmitter` — the *live* side: a typed event stream
  (:class:`RunStarted`, :class:`ChunkCompleted`, :class:`Heartbeat`,
  :class:`BestSoFar`, :class:`CacheStats`, :class:`RunInterrupted`,
  :class:`RunFinished`) every long-running flow emits into while it
  runs, with a :class:`JsonlSink` the ``repro-latency top`` dashboard
  (:func:`run_top`) follows.
* :class:`CampaignRecorder` — search coverage, discard provenance and
  convergence of one design-space exploration, flushed as ledger rows.
* exporters — Chrome trace-event JSON (:func:`chrome_trace` /
  :func:`write_chrome_trace`), span-level reconciliation
  (:func:`reconcile_ss_overall`), and self-contained HTML run reports
  (:func:`render_report` — stall waterfall, CC breakdown, ledger
  trajectory).
* :class:`Telemetry` — the one ambient channel: instrumented code reads
  :func:`telemetry` and a scope installs sinks with
  :func:`use_telemetry`.

Everything is off by default: each sink of the ambient value is a no-op
singleton, and the disabled path allocates nothing (the tracing-overhead
benchmark holds it under 5% of kernel time). Enable per scope::

    from repro.observability import Tracer, use_telemetry, write_chrome_trace

    tracer = Tracer()
    with use_telemetry(tracer=tracer):
        report = engine.evaluate(mapping)
    write_chrome_trace(tracer.records, "trace.json")

or from the CLI with ``--trace --trace-out trace.json`` / ``--metrics``.
"""

from repro.observability.campaign import (
    CampaignGateResult,
    CampaignRecorder,
    FUNNEL_BUCKETS,
    NULL_CAMPAIGN,
    NullCampaign,
    PROVENANCE_BUCKETS,
    PhaseFunnel,
    campaign_records,
    compare_campaigns,
    gate_campaigns,
    phase_records,
    select_campaign,
)
from repro.observability.distributed import (
    FlightRecorder,
    TraceContext,
    extract_trace,
    inject_trace,
    server_span_records,
    span_from_dict,
    span_to_dict,
    spans_from_wire,
    spans_to_wire,
)
from repro.observability.export import (
    chrome_trace,
    find_spans,
    load_chrome_trace,
    per_dtl_stalls,
    reconcile_ss_overall,
    write_chrome_trace,
)
from repro.observability.ledger import (
    LedgerDiff,
    LedgerSchemaError,
    MetricDelta,
    NULL_LEDGER,
    NullLedger,
    RunLedger,
    RunRecord,
    SCHEMA_VERSION,
    diff_records,
    git_sha,
    load_snapshot,
    record_from_report,
)
from repro.observability.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_METRICS,
    NullMetricsRegistry,
)
from repro.observability.progress import (
    BestSoFar,
    CacheStats,
    ChunkCompleted,
    ConvergenceUpdate,
    FunnelSnapshot,
    Heartbeat,
    JsonlSink,
    MetricsSubscriber,
    NULL_EMITTER,
    NullProgressEmitter,
    ParetoFrontSnapshot,
    ProgressEmitter,
    RunFinished,
    RunHandle,
    RunInterrupted,
    RunStarted,
    WorkerStalled,
    event_from_dict,
    event_to_dict,
    follow_events,
    format_event,
    read_events,
)
from repro.observability.span import (
    SpanNode,
    SpanRecord,
    span_tree,
    tree_shape,
)
from repro.observability.top import DashboardState, render, run_top
from repro.observability.report import (
    read_campaign_report_data,
    render_campaign_report,
    render_report,
    stall_waterfall,
    write_campaign_report,
    write_report,
)
from repro.observability.stats import EngineStats
from repro.observability.telemetry import Telemetry, telemetry, use_telemetry
from repro.observability.tracer import (
    NULL_TRACER,
    NullTracer,
    Span,
    Tracer,
)

__all__ = [
    "BestSoFar",
    "CacheStats",
    "CampaignGateResult",
    "CampaignRecorder",
    "ChunkCompleted",
    "ConvergenceUpdate",
    "Counter",
    "DashboardState",
    "EngineStats",
    "FUNNEL_BUCKETS",
    "FlightRecorder",
    "FunnelSnapshot",
    "Gauge",
    "Heartbeat",
    "Histogram",
    "JsonlSink",
    "LedgerDiff",
    "LedgerSchemaError",
    "MetricDelta",
    "MetricsRegistry",
    "MetricsSubscriber",
    "NULL_CAMPAIGN",
    "NULL_EMITTER",
    "NULL_LEDGER",
    "NULL_METRICS",
    "NULL_TRACER",
    "NullCampaign",
    "NullLedger",
    "NullMetricsRegistry",
    "NullProgressEmitter",
    "NullTracer",
    "PROVENANCE_BUCKETS",
    "ParetoFrontSnapshot",
    "PhaseFunnel",
    "ProgressEmitter",
    "RunFinished",
    "RunHandle",
    "RunInterrupted",
    "RunLedger",
    "RunRecord",
    "RunStarted",
    "SCHEMA_VERSION",
    "Span",
    "SpanNode",
    "SpanRecord",
    "Telemetry",
    "TraceContext",
    "Tracer",
    "WorkerStalled",
    "campaign_records",
    "chrome_trace",
    "compare_campaigns",
    "extract_trace",
    "diff_records",
    "event_from_dict",
    "event_to_dict",
    "find_spans",
    "follow_events",
    "format_event",
    "gate_campaigns",
    "git_sha",
    "inject_trace",
    "load_chrome_trace",
    "load_snapshot",
    "per_dtl_stalls",
    "phase_records",
    "read_campaign_report_data",
    "read_events",
    "reconcile_ss_overall",
    "record_from_report",
    "render",
    "render_campaign_report",
    "render_report",
    "run_top",
    "select_campaign",
    "server_span_records",
    "span_from_dict",
    "span_to_dict",
    "span_tree",
    "spans_from_wire",
    "spans_to_wire",
    "stall_waterfall",
    "telemetry",
    "tree_shape",
    "use_telemetry",
    "write_campaign_report",
    "write_chrome_trace",
    "write_report",
]
