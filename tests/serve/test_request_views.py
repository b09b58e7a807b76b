"""One served request, seen through every per-request view of the daemon.

The flight ring, the ``/statusz`` slow log, the ``kind="slow_request"``
ledger row and the shipped ``serve.*`` spans all describe the same
request. This pins that they agree on its id, fingerprints and phase
timings, and pins the exact key set of each view, so a refactor of how
the daemon assembles them cannot change a format unnoticed.
"""

import json
import urllib.request

import pytest

from repro.fingerprint import stable_fingerprint
from repro.observability.ledger import RunLedger, load_snapshot
from repro.observability.span import span_tree
from repro.observability.telemetry import use_telemetry
from repro.observability.tracer import Tracer
from repro.serve import connect
from repro.verify.generators import sample_cases

FLIGHT_KEYS = {
    "seq", "ts", "id", "outcome", "wall_ms", "queue_wait_ms", "kernel_ms",
    "accel_fp", "mapping_fp", "queue_depth",
}
SLOW_KEYS = FLIGHT_KEYS - {"seq"} | {
    "coalesce_wait_ms", "store_write_ms", "threshold_ms",
}
LEDGER_EXTRA_KEYS = {
    "total_ms", "queue_wait_ms", "kernel_ms", "store_write_ms",
    "coalesce_wait_ms", "queue_depth", "threshold_ms",
}
SERVE_METRICS = {
    "repro_serve_requests_total", "repro_serve_responses_total",
    "repro_serve_request_seconds", "repro_serve_queue_wait_seconds",
    "repro_serve_slow_requests_total",
}


def _get(url):
    with urllib.request.urlopen(url, timeout=10) as response:
        return response.read().decode("utf-8")


def test_one_request_agrees_across_every_view(make_server, tmp_path):
    ledger_path = str(tmp_path / "serve.sqlite")
    with use_telemetry(ledger=RunLedger(ledger_path)):
        handle = make_server(admin_port=0, slow_ms=0.0, name="pin-daemon")
    server = handle.server
    case = next(iter(sample_cases(seed=11, count=1)))
    tracer = Tracer()
    with use_telemetry(tracer=tracer):
        client = connect(handle.url).derive(accelerator=case.accelerator)
        client.evaluate(case.mapping)
        client.close()

    flight = server.flight.last()
    assert set(flight) == FLIGHT_KEYS
    assert flight["outcome"] == "evaluated"
    accel_fp = case.accelerator.fingerprint()
    mapping_fp = case.mapping.fingerprint()
    assert flight["accel_fp"] == accel_fp[:8]
    assert flight["mapping_fp"] == mapping_fp[:12]
    assert flight["queue_depth"] == 0

    status = json.loads(_get(server.admin.url + "/statusz"))
    assert set(status) == {
        "server", "url", "pid", "uptime_s", "accelerator", "accelerator_fp",
        "protocol", "draining", "stats", "queue", "store", "slow_requests",
        "flight", "campaigns",
    }
    assert set(status["flight"]) == {"size", "capacity", "dumps", "path"}
    (slow,) = status["slow_requests"]
    assert set(slow) == SLOW_KEYS
    for key in FLIGHT_KEYS - {"seq", "ts"}:
        assert slow[key] == flight[key], key
    assert slow["threshold_ms"] == 0.0

    (row,) = [r for r in load_snapshot(ledger_path) if r.kind == "slow_request"]
    assert set(row.extra) == LEDGER_EXTRA_KEYS
    assert row.label == "evaluated"
    assert row.accelerator_fp == accel_fp
    assert row.mapping_fp == mapping_fp
    assert row.options_fp == stable_fingerprint(client.options)
    assert row.wall_time_s == pytest.approx(row.extra["total_ms"] / 1e3)
    assert round(row.extra["total_ms"], 3) == flight["wall_ms"]
    assert round(row.extra["queue_wait_ms"], 3) == flight["queue_wait_ms"]
    assert round(row.extra["kernel_ms"], 3) == flight["kernel_ms"]
    assert round(row.extra["coalesce_wait_ms"], 3) == slow["coalesce_wait_ms"]
    assert round(row.extra["store_write_ms"], 3) == slow["store_write_ms"]
    assert row.extra["queue_depth"] == float(flight["queue_depth"])
    assert row.extra["threshold_ms"] == 0.0

    (request,) = span_tree(tracer.records)[0].find("serve.request")
    assert set(request.attributes) == {
        "trace_id", "client_span_id", "source", "mapping_fp", "server",
    }
    assert request.attributes["source"] == "evaluated"
    assert request.attributes["mapping_fp"] == flight["mapping_fp"]
    assert request.attributes["server"] == "pin-daemon"
    children = {c.name: c for c in request.children}
    assert set(children) <= {
        "serve.queue_wait", "serve.kernel", "serve.store_write",
    }
    assert {"serve.kernel", "serve.store_write"} <= set(children)
    assert all(not c.attributes for c in request.children)

    def ms(node):
        return node.record.duration_us / 1e3

    assert ms(request) == pytest.approx(flight["wall_ms"], abs=1e-3)
    assert ms(children["serve.kernel"]) == pytest.approx(
        flight["kernel_ms"], abs=1e-3
    )
    queue_wait = children.get("serve.queue_wait")
    assert (ms(queue_wait) if queue_wait else 0.0) == pytest.approx(
        flight["queue_wait_ms"], abs=1e-3
    )
    assert ms(children["serve.store_write"]) == pytest.approx(
        slow["store_write_ms"], abs=1e-3
    )

    families = {
        line.split()[2]
        for line in _get(server.admin.url + "/metrics").splitlines()
        if line.startswith("# TYPE repro_serve_")
    }
    assert SERVE_METRICS <= families


def test_a_last_resort_fault_keeps_its_short_flight_row(make_server):
    """A request whose handler raised is recorded with its traceback and
    nothing else: no timings were taken."""
    handle = make_server()

    async def broken(message):
        raise RuntimeError("handler fault")

    handle.server._handle_evaluate = broken
    case = next(iter(sample_cases(seed=11, count=1)))
    client = connect(handle.url).derive(accelerator=case.accelerator)
    with pytest.raises(Exception, match="handler fault"):
        client.evaluate(case.mapping)
    client.close()
    fault = handle.server.flight.last()
    assert set(fault) == {"seq", "ts", "id", "outcome", "traceback"}
    assert fault["outcome"] == "RuntimeError"
