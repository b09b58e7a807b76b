"""Progress-event stream: emitter, run lifecycle, ETA, serde, sinks."""

import json

import pytest

from repro.observability import (
    BestSoFar,
    CacheStats,
    ChunkCompleted,
    Heartbeat,
    JsonlSink,
    MetricsRegistry,
    MetricsSubscriber,
    NULL_EMITTER,
    ProgressEmitter,
    RunFinished,
    RunInterrupted,
    RunStarted,
    WorkerStalled,
    event_from_dict,
    event_to_dict,
    follow_events,
    read_events,
    telemetry,
    use_telemetry,
)
from repro.observability.progress import (
    EtaEstimator,
    NULL_RUN,
    ProgressFormatError,
    format_duration,
    format_event,
)


class FakeClock:
    """A deterministic, manually advanced clock."""

    def __init__(self, start: float = 1000.0) -> None:
        self.now = start

    def __call__(self) -> float:
        return self.now

    def tick(self, seconds: float) -> None:
        self.now += seconds


def collecting_emitter(start: float = 1000.0):
    clock = FakeClock(start)
    emitter = ProgressEmitter(clock=clock)
    events = []
    emitter.subscribe(events.append)
    return emitter, events, clock


# --------------------------------------------------------------------- #
# Emitter / run lifecycle
# --------------------------------------------------------------------- #


def test_run_lifecycle_emits_started_chunks_finished():
    emitter, events, clock = collecting_emitter()
    run = emitter.start_run("mapper.search", total_units=10, unit="evals")
    clock.tick(1.0)
    run.advance(4, wall_s=1.0, worker="pid:1")
    clock.tick(1.0)
    run.advance(6, wall_s=1.0, worker="pid:1")
    run.finish()

    kinds = [type(e).__name__ for e in events]
    assert kinds == [
        "RunStarted",
        "Heartbeat",
        "ChunkCompleted",
        "Heartbeat",
        "ChunkCompleted",
        "RunFinished",
    ]
    started = events[0]
    assert started.flow == "mapper.search"
    assert started.total_units == 10
    last_chunk = events[4]
    assert last_chunk.done_units == 10
    assert last_chunk.total_units == 10
    finished = events[-1]
    assert finished.done_units == 10
    assert finished.wall_s == pytest.approx(2.0)


def test_finish_and_interrupt_are_idempotent():
    emitter, events, _ = collecting_emitter()
    run = emitter.start_run("flow")
    run.finish()
    run.finish()
    run.interrupt("late")
    assert [type(e).__name__ for e in events] == ["RunStarted", "RunFinished"]

    run2 = emitter.start_run("flow2")
    run2.interrupt("KeyboardInterrupt")
    run2.finish()
    tail = events[2:]
    assert [type(e).__name__ for e in tail] == ["RunStarted", "RunInterrupted"]
    assert tail[-1].reason == "KeyboardInterrupt"


def test_best_so_far_dedups_incumbent():
    emitter, events, _ = collecting_emitter()
    run = emitter.start_run("flow")
    assert run.best(10.0, label="a") is True
    assert run.best(12.0, label="worse") is False
    assert run.best(10.0, label="tie") is False
    assert run.best(8.0, label="b") is True
    bests = [e for e in events if isinstance(e, BestSoFar)]
    assert [b.objective for b in bests] == [10.0, 8.0]
    run.finish()
    assert events[-1].best_objective == 8.0


def test_cache_stats_rate():
    emitter, events, _ = collecting_emitter()
    run = emitter.start_run("flow")
    run.cache_stats(3, 1)
    run.cache_stats(0, 0)
    stats = [e for e in events if isinstance(e, CacheStats)]
    assert stats[0].hit_rate == pytest.approx(0.75)
    assert stats[1].hit_rate == 0.0


def test_current_run_matches_on_unit():
    emitter, _, _ = collecting_emitter()
    assert emitter.current_run() is None
    outer = emitter.start_run("arch", unit="points")
    assert emitter.current_run("points") is outer
    assert emitter.current_run("evals") is None
    inner = emitter.start_run("mapper", unit="evals")
    assert emitter.current_run("evals") is inner
    inner.finish()
    assert emitter.current_run("points") is outer
    outer.finish()
    assert emitter.current_run() is None


def test_emit_stamps_ts_only_when_unset():
    emitter, events, clock = collecting_emitter(start=50.0)
    emitter.emit(Heartbeat(run_id="r9", worker="pid:7"))
    emitter.emit(Heartbeat(run_id="r9", worker="pid:7", ts=3.5))
    assert events[0].ts == 50.0
    assert events[1].ts == 3.5


def test_ambient_default_is_null_and_use_emitter_scopes():
    assert telemetry().progress is NULL_EMITTER
    assert not NULL_EMITTER.enabled
    emitter = ProgressEmitter()
    with use_telemetry(progress=emitter):
        assert telemetry().progress is emitter
    assert telemetry().progress is NULL_EMITTER


def test_null_emitter_and_null_run_are_inert():
    run = NULL_EMITTER.start_run("flow", total_units=5, unit="evals")
    assert run is NULL_RUN
    assert not run.enabled
    run.advance(1, errors=1, wall_s=0.1)
    assert run.best(1.0) is False
    run.cache_stats(1, 1)
    run.finish()
    run.interrupt()
    assert NULL_EMITTER.current_run("evals") is None


def test_run_as_context_manager_finishes_on_normal_exit():
    emitter, events, _ = collecting_emitter()
    with emitter.start_run("flow", unit="evals") as run:
        run.advance(3, wall_s=1.0, worker="pid:1")
    assert isinstance(events[-1], RunFinished)
    assert events[-1].done_units == 3
    assert emitter.current_run() is None


@pytest.mark.parametrize("error", [KeyboardInterrupt, ValueError])
def test_run_as_context_manager_interrupts_on_any_exception(error):
    emitter, events, _ = collecting_emitter()
    with pytest.raises(error):
        with emitter.start_run("flow", unit="evals") as run:
            run.advance(2, wall_s=1.0, worker="pid:1")
            raise error
    assert isinstance(events[-1], RunInterrupted)
    assert events[-1].reason == error.__name__
    assert events[-1].done_units == 2
    assert not any(isinstance(e, RunFinished) for e in events)
    assert emitter.current_run() is None


def test_join_run_attaches_to_the_open_run_and_leaves_it_open():
    emitter, events, _ = collecting_emitter()
    with emitter.start_run("mapper.search", unit="evals") as outer:
        with pytest.raises(ValueError):
            with emitter.join_run("engine.batch", unit="evals") as run:
                assert run is outer
                raise ValueError
        assert emitter.current_run("evals") is outer
        # A run of another unit is not joined: the batch opens its own.
        with emitter.join_run("engine.batch", unit="points") as own:
            assert own is not outer
    flows = [e.flow for e in events if isinstance(e, RunStarted)]
    assert flows == ["mapper.search", "engine.batch"]
    closed = [type(e).__name__ for e in events
              if isinstance(e, (RunFinished, RunInterrupted))]
    assert closed == ["RunFinished", "RunFinished"]


def test_null_run_is_a_context_manager_that_swallows_nothing():
    with NULL_EMITTER.join_run("engine.batch", unit="evals") as run:
        assert run is NULL_RUN
    with pytest.raises(ValueError):
        with NULL_EMITTER.start_run("flow") as run:
            raise ValueError


def test_failed_search_closes_its_run_and_later_batches_open_their_own(
    monkeypatch,
):
    """An error inside a mapper search interrupts the search's run, so a
    later, unrelated batch does not report under it."""
    from repro.dse.mapper import MapperConfig, TemporalMapper
    from repro.engine import EvaluationEngine
    from repro.hardware.presets import case_study_accelerator
    from repro.workload.generator import dense_layer

    preset = case_study_accelerator()
    mapper = TemporalMapper(
        preset.accelerator, preset.spatial_unrolling,
        MapperConfig(max_enumerated=30, samples=20),
    )
    layer = dense_layer(16, 32, 60)
    real = EvaluationEngine.evaluate_many

    def broken(self, mappings, **kwargs):
        raise RuntimeError("kernel failed")

    emitter, events, _ = collecting_emitter()
    with use_telemetry(progress=emitter):
        monkeypatch.setattr(EvaluationEngine, "evaluate_many", broken)
        with pytest.raises(RuntimeError):
            mapper.search(layer)
        monkeypatch.setattr(EvaluationEngine, "evaluate_many", real)
        assert emitter.current_run() is None
        engine = EvaluationEngine(preset.accelerator)
        engine.evaluate_many(list(mapper.mappings(layer))[:4])

    search_id = events[0].run_id
    stops = [e for e in events if isinstance(e, RunInterrupted)]
    assert [(e.run_id, e.reason) for e in stops] == [(search_id, "RuntimeError")]
    batch = [e for e in events if isinstance(e, RunStarted)][1]
    assert batch.flow == "engine.batch"
    chunks = [e for e in events if isinstance(e, (Heartbeat, ChunkCompleted))]
    assert chunks and all(e.run_id == batch.run_id for e in chunks)


# --------------------------------------------------------------------- #
# ETA estimation
# --------------------------------------------------------------------- #


def test_eta_estimator_rolling_rate_and_eta():
    est = EtaEstimator(window_s=30.0)
    est.update(0.0, 10, 10, 2.0)
    # single sample -> instantaneous rate of the last chunk
    assert est.rate() == pytest.approx(5.0)
    est.update(10.0, 60, 50, 10.0)
    # slope oldest->newest: (60-10)/(10-0)
    assert est.rate() == pytest.approx(5.0)
    assert est.eta_s(60, 110) == pytest.approx(10.0)
    assert est.eta_s(60, None) is None


def test_eta_estimator_window_eviction():
    est = EtaEstimator(window_s=10.0)
    est.update(0.0, 100, 100, 1.0)   # fast start, will fall out of window
    est.update(20.0, 110, 10, 10.0)
    est.update(25.0, 120, 10, 5.0)
    # oldest sample (ts=0) evicted; slope over [20, 25]
    assert est.rate() == pytest.approx(2.0)


def test_eta_zero_rate_yields_none():
    est = EtaEstimator()
    assert est.eta_s(0, 100) is None
    est.update(5.0, 3, 3, 0.0)  # no wall time, single sample
    assert est.rate() == 0.0
    assert est.eta_s(3, 100) is None


def test_format_duration():
    assert format_duration(None) == "--:--"
    assert format_duration(-1.0) == "--:--"
    assert format_duration(0.0) == "00:00"
    assert format_duration(65.0) == "01:05"
    assert format_duration(3600.0 + 61) == "1:01:01"


# --------------------------------------------------------------------- #
# Serde + sinks
# --------------------------------------------------------------------- #


def test_every_event_roundtrips_through_dict():
    samples = [
        RunStarted(run_id="r1", flow="mapper", total_units=5, unit="evals",
                   accelerator="acc", layer="fc1", ts=1.0),
        ChunkCompleted(run_id="r1", index=2, completed=3, errors=1,
                       wall_s=0.5, worker="pid:9", done_units=4,
                       total_units=5, unit="evals", evals_per_s=8.0,
                       eta_s=0.125, note="n", ts=2.0),
        Heartbeat(run_id="r1", worker="pid:9", ts=2.0),
        BestSoFar(run_id="r1", objective=9.0, total_cycles=900.0,
                  utilization=0.5, label="m", ts=2.5),
        CacheStats(run_id="r1", hits=2, misses=2, hit_rate=0.5, ts=3.0),
        WorkerStalled(run_id="r1", worker="pid:9", silent_for_s=11.0,
                      threshold_s=10.0, ts=14.0),
        RunInterrupted(run_id="r1", done_units=4, reason="SIGINT", ts=15.0),
        RunFinished(run_id="r1", done_units=5, wall_s=14.0,
                    best_objective=9.0, ts=16.0),
    ]
    for event in samples:
        data = event_to_dict(event)
        assert data["type"] == type(event).__name__
        assert event_from_dict(json.loads(json.dumps(data))) == event
        assert format_event(event)  # every event has a console line


def test_event_from_dict_tolerates_unknown_fields_rejects_unknown_type():
    data = event_to_dict(Heartbeat(run_id="r1", worker="w", ts=1.0))
    data["future_field"] = "ignored"
    assert event_from_dict(data) == Heartbeat(run_id="r1", worker="w", ts=1.0)
    with pytest.raises(ValueError):
        event_from_dict({"type": "NoSuchEvent"})


def test_jsonl_sink_and_read_events(tmp_path):
    path = tmp_path / "events.jsonl"
    emitter, _, clock = collecting_emitter()
    sink = JsonlSink(str(path))
    emitter.subscribe(sink)
    run = emitter.start_run("flow", total_units=2, unit="evals")
    clock.tick(1.0)
    run.advance(2, wall_s=1.0, worker="pid:1")
    run.finish()
    emitter.close()
    assert sink.events_written == 4
    events = read_events(str(path))
    assert [type(e).__name__ for e in events] == [
        "RunStarted", "Heartbeat", "ChunkCompleted", "RunFinished",
    ]
    with pytest.raises(ValueError):
        sink(Heartbeat(run_id="r1", worker="w", ts=1.0))


def test_read_events_skips_blank_and_truncated_lines(tmp_path):
    path = tmp_path / "events.jsonl"
    good = json.dumps(event_to_dict(Heartbeat(run_id="r1", worker="w", ts=1.0)))
    path.write_text(good + "\n\n" + '{"type": "Heartbeat", "run')
    events = read_events(str(path))
    assert len(events) == 1


def test_read_events_refuses_a_complete_line_that_is_not_an_event(tmp_path):
    path = tmp_path / "events.jsonl"
    good = json.dumps(event_to_dict(Heartbeat(run_id="r1", worker="w", ts=1.0)))
    for bad in ('{"type": "Heartbeat", "run', '{"type": "Heartbeat", "worker": "w"}'):
        path.write_text(good + "\n" + bad + "\n")
        with pytest.raises(ProgressFormatError, match=f"{path} line 2: "):
            read_events(str(path))


def test_follow_events_tails_a_growing_file(tmp_path):
    path = tmp_path / "events.jsonl"
    lines = [
        json.dumps(event_to_dict(Heartbeat(run_id="r1", worker="w", ts=float(i))))
        for i in range(3)
    ]
    follower = follow_events(str(path), poll_s=0.0, sleep=lambda _s: None)
    assert next(follower) == []  # file does not exist yet
    path.write_text(lines[0] + "\n")
    assert [e.ts for e in next(follower)] == [0.0]
    # a partial line is buffered until its newline arrives
    with open(path, "a") as handle:
        handle.write(lines[1] + "\n" + lines[2][:10])
    assert [e.ts for e in next(follower)] == [1.0]
    with open(path, "a") as handle:
        handle.write(lines[2][10:] + "\n")
    assert [e.ts for e in next(follower)] == [2.0]


def test_stall_line_names_what_the_worker_was_doing():
    busy = WorkerStalled(run_id="r1", worker="kernel", silent_for_s=11.0,
                         note="evaluating ab12cd34/9f (kernel)")
    assert "while evaluating ab12cd34/9f (kernel)" in format_event(busy)
    idle = WorkerStalled(run_id="r1", worker="kernel", silent_for_s=11.0)
    assert "while" not in format_event(idle)


# --------------------------------------------------------------------- #
# Metrics bridge
# --------------------------------------------------------------------- #


def test_metrics_subscriber_exports_live_counters():
    clock = FakeClock(0.0)
    emitter = ProgressEmitter(clock=clock)
    registry = MetricsRegistry()
    emitter.subscribe(MetricsSubscriber(registry, stall_threshold_s=10.0))

    run = emitter.start_run("engine.batch", total_units=6, unit="evals")
    clock.tick(1.0)
    run.advance(3, wall_s=1.0, worker="pid:1")
    clock.tick(1.0)
    run.advance(3, errors=1, wall_s=1.0, worker="pid:2")
    run.cache_stats(1, 3)
    run.best(42.0)
    run.finish()

    snap = registry.snapshot()
    assert snap["counters"]["repro_progress_units_total"] == 6
    assert snap["counters"]["repro_progress_errors_total"] == 1
    assert snap["counters"]["repro_progress_runs_started_total"] == 1
    assert snap["counters"]["repro_progress_runs_finished_total"] == 1
    assert snap["gauges"]["repro_progress_active_workers"] == 2
    assert snap["gauges"]["repro_progress_cache_hit_rate"] == 0.25
    assert snap["gauges"]["repro_progress_best_objective"] == 42.0
    assert snap["gauges"]["repro_progress_evals_per_second"] > 0


def test_metrics_subscriber_counts_interruptions_and_stalls():
    registry = MetricsRegistry()
    sub = MetricsSubscriber(registry)
    sub(RunInterrupted(run_id="r1", done_units=2, ts=1.0))
    sub(WorkerStalled(run_id="r1", worker="pid:1", ts=2.0))
    snap = registry.snapshot()
    assert snap["counters"]["repro_progress_runs_interrupted_total"] == 1
    assert snap["counters"]["repro_progress_worker_stalls_total"] == 1
