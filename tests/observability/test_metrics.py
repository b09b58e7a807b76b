"""Metrics registry semantics and exporter golden files."""

import json
import pathlib

import pytest

from repro.observability import (
    BestSoFar,
    CacheStats,
    ChunkCompleted,
    MetricsRegistry,
    MetricsSubscriber,
    NULL_METRICS,
    NullMetricsRegistry,
    RunFinished,
    RunStarted,
    WorkerStalled,
    telemetry,
    use_telemetry,
)

GOLDEN = pathlib.Path(__file__).parent / "golden"


def build_reference_registry() -> MetricsRegistry:
    """A deterministic registry the golden files snapshot."""
    registry = MetricsRegistry()
    registry.counter("repro_requests_total", "Evaluation requests.").inc(3)
    registry.counter("repro_requests_total").inc(2)
    registry.gauge("repro_cache_hit_ratio", "Cache hit ratio.").set(0.25)
    hist = registry.histogram(
        "repro_evaluate_seconds", "Kernel latency.", buckets=(0.001, 0.01, 0.1)
    )
    for value in (0.0005, 0.005, 0.05, 0.5):
        hist.observe(value)
    registry.ingest("repro_engine", {"evaluations": 4, "hit_rate": 0.25})
    # The live-progress bridge: a fixed event sequence mirrored into the
    # same registry (what a scrape sees while a search is running).
    subscriber = MetricsSubscriber(registry, stall_threshold_s=10.0)
    for event in (
        RunStarted(run_id="r1", flow="mapper.search", total_units=8,
                   unit="evals", ts=100.0),
        ChunkCompleted(run_id="r1", completed=4, errors=0, wall_s=1.0,
                       worker="pid:11", done_units=4, total_units=8,
                       unit="evals", evals_per_s=4.0, ts=101.0),
        ChunkCompleted(run_id="r1", completed=4, errors=1, wall_s=1.0,
                       worker="pid:12", done_units=8, total_units=8,
                       unit="evals", evals_per_s=4.0, ts=102.0),
        CacheStats(run_id="r1", hits=3, misses=9, hit_rate=0.25, ts=102.0),
        BestSoFar(run_id="r1", objective=1200.0, ts=102.0),
        WorkerStalled(run_id="r1", worker="pid:11", silent_for_s=11.0,
                      ts=113.0),
        RunFinished(run_id="r1", done_units=8, wall_s=3.0, ts=103.0),
    ):
        subscriber(event)
    return registry


def test_counter_accumulates_and_rejects_negative():
    registry = MetricsRegistry()
    counter = registry.counter("c")
    counter.inc()
    counter.inc(2.5)
    assert counter.value == 3.5
    with pytest.raises(ValueError):
        counter.inc(-1)


def test_get_or_create_returns_same_instrument():
    registry = MetricsRegistry()
    assert registry.counter("x") is registry.counter("x")
    assert registry.gauge("y") is registry.gauge("y")
    assert registry.histogram("z") is registry.histogram("z")


def test_histogram_percentiles_and_buckets():
    registry = MetricsRegistry()
    hist = registry.histogram("h", buckets=(1.0, 10.0))
    for value in (0.5, 2.0, 20.0, 3.0):
        hist.observe(value)
    assert hist.count == 4
    assert hist.sum == 25.5
    # nearest-rank on the sorted observations [0.5, 2.0, 3.0, 20.0]
    assert hist.percentile(0) == 0.5
    assert hist.percentile(50) == 3.0
    assert hist.percentile(100) == 20.0
    assert hist.cumulative_buckets() == [(1.0, 1), (10.0, 3), (float("inf"), 4)]


def test_json_exporter_matches_golden():
    got = build_reference_registry().to_json()
    expected = (GOLDEN / "metrics.json").read_text().rstrip("\n")
    assert got == expected


def test_prometheus_exporter_matches_golden():
    got = build_reference_registry().to_prometheus()
    expected = (GOLDEN / "metrics.prom").read_text()
    assert got == expected


def test_labeled_series_are_distinct_instruments():
    registry = MetricsRegistry()
    a = registry.counter("req_total", labels={"shard": "0"})
    b = registry.counter("req_total", labels={"shard": "1"})
    bare = registry.counter("req_total")
    assert a is not b and a is not bare
    assert a is registry.counter("req_total", labels={"shard": "0"})
    a.inc(2)
    b.inc(3)
    assert (a.value, b.value, bare.value) == (2, 3, 0)


def test_prometheus_groups_label_series_under_one_header():
    registry = MetricsRegistry()
    registry.counter(
        "req_total", "Requests.", labels={"shard": "1"}
    ).inc(3)
    registry.counter("req_total", labels={"shard": "0"}).inc(2)
    text = registry.to_prometheus()
    # One HELP/TYPE header for the base name; series sorted by label.
    assert text.count("# HELP req_total") == 1
    assert text.count("# TYPE req_total counter") == 1
    body = [line for line in text.splitlines() if not line.startswith("#")]
    assert body == ['req_total{shard="0"} 2', 'req_total{shard="1"} 3']


def test_prometheus_labeled_histogram_composes_le_after_labels():
    registry = MetricsRegistry()
    hist = registry.histogram(
        "lat_seconds", "Latency.", buckets=(0.1,), labels={"shard": "2"}
    )
    hist.observe(0.05)
    hist.observe(1.0)
    text = registry.to_prometheus()
    assert 'lat_seconds_bucket{shard="2",le="0.1"} 1' in text
    assert 'lat_seconds_bucket{shard="2",le="+Inf"} 2' in text
    assert 'lat_seconds_sum{shard="2"} 1.05' in text
    assert 'lat_seconds_count{shard="2"} 2' in text


def test_unlabeled_output_is_unchanged_by_label_support():
    # The golden files above are the real assertion; this pins the rule
    # they rely on — no labels means byte-identical legacy rendering.
    registry = MetricsRegistry()
    registry.counter("c", "A counter.").inc()
    assert registry.to_prometheus() == (
        "# HELP c A counter.\n# TYPE c counter\nc 1\n"
    )


def test_json_snapshot_roundtrips():
    data = json.loads(build_reference_registry().to_json())
    assert data["counters"]["repro_requests_total"] == 5
    assert data["gauges"]["repro_cache_hit_ratio"] == 0.25
    assert data["histograms"]["repro_evaluate_seconds"]["count"] == 4
    # live-progress mirror
    assert data["counters"]["repro_progress_units_total"] == 8
    assert data["counters"]["repro_progress_errors_total"] == 1
    assert data["counters"]["repro_progress_worker_stalls_total"] == 1
    assert data["gauges"]["repro_progress_active_workers"] == 2
    assert data["gauges"]["repro_progress_evals_per_second"] == 4.0
    assert data["gauges"]["repro_progress_cache_hit_rate"] == 0.25
    assert data["gauges"]["repro_progress_best_objective"] == 1200.0


def test_null_registry_is_inert_and_ambient_by_default():
    assert telemetry().metrics is NULL_METRICS
    null = NullMetricsRegistry()
    null.counter("c").inc()
    null.gauge("g").set(1.0)
    null.histogram("h").observe(2.0)
    null.ingest("p", {"a": 1.0})
    assert null.snapshot() == {"counters": {}, "gauges": {}, "histograms": {}}


def test_use_metrics_scopes_installation():
    registry = MetricsRegistry()
    with use_telemetry(metrics=registry):
        assert telemetry().metrics is registry
        telemetry().metrics.counter("seen").inc()
    assert telemetry().metrics is NULL_METRICS
    assert registry.counter("seen").value == 1
