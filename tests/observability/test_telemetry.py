"""The ambient telemetry channel: one value, scoped overrides, null default."""

import threading

import pytest

from repro.observability import (
    NULL_CAMPAIGN,
    NULL_EMITTER,
    NULL_LEDGER,
    NULL_METRICS,
    NULL_TRACER,
    MetricsRegistry,
    ProgressEmitter,
    Telemetry,
    Tracer,
    telemetry,
    use_telemetry,
)
from repro.observability.ledger import RunLedger


def test_default_is_the_all_null_value():
    assert Telemetry() == Telemetry(
        tracer=NULL_TRACER,
        metrics=NULL_METRICS,
        ledger=NULL_LEDGER,
        progress=NULL_EMITTER,
        campaign=NULL_CAMPAIGN,
    )
    assert telemetry() == Telemetry()


def test_override_keeps_the_other_sinks_and_restores_on_exit(tmp_path):
    tracer = Tracer()
    with RunLedger(str(tmp_path / "runs.sqlite")) as ledger:
        with use_telemetry(ledger=ledger):
            outer = telemetry()
            with use_telemetry(tracer=tracer) as installed:
                assert telemetry() is installed
                assert installed.tracer is tracer and installed.ledger is ledger
            assert telemetry() is outer
        assert telemetry() == Telemetry()


def test_override_restores_the_outer_value_when_the_block_raises():
    registry = MetricsRegistry()
    with use_telemetry(metrics=registry):
        outer = telemetry()
        with pytest.raises(RuntimeError):
            with use_telemetry(tracer=Tracer()):
                raise RuntimeError("boom")
        assert telemetry() is outer
    assert telemetry() == Telemetry()


def test_nested_overrides_unwind_in_order():
    first, second = Tracer(), Tracer()
    emitter = ProgressEmitter()
    seen = []
    with use_telemetry(tracer=first):
        seen.append(telemetry().tracer)
        with use_telemetry(progress=emitter):
            seen.append((telemetry().tracer, telemetry().progress))
            with use_telemetry(tracer=second):
                seen.append((telemetry().tracer, telemetry().progress))
            seen.append((telemetry().tracer, telemetry().progress))
        seen.append((telemetry().tracer, telemetry().progress))
    seen.append(telemetry())
    assert seen == [
        first,
        (first, emitter),
        (second, emitter),
        (first, emitter),
        (first, NULL_EMITTER),
        Telemetry(),
    ]


def test_a_thread_started_inside_a_scope_sees_the_null_default():
    seen = []
    with use_telemetry(tracer=Tracer(), metrics=MetricsRegistry()):
        worker = threading.Thread(target=lambda: seen.append(telemetry()))
        worker.start()
        worker.join(timeout=10)
    assert not worker.is_alive()
    assert seen == [Telemetry()]
