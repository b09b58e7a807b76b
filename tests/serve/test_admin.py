"""The HTTP admin surface of a live daemon: /metrics, /healthz,
/readyz, /statusz, the slow-request log, and flight-recorder dumps."""

import asyncio
import json
import threading
import time
import urllib.error
import urllib.request

from repro.observability.ledger import RunLedger, load_snapshot
from repro.observability.telemetry import use_telemetry
from repro.serve import connect
from repro.verify.generators import sample_cases


def _get(url, path):
    with urllib.request.urlopen(url + path, timeout=10) as response:
        return (
            response.status,
            response.headers.get("Content-Type", ""),
            response.read().decode("utf-8"),
        )


def _cases(count=4):
    return [c for c in sample_cases(seed=11, count=count)]


def _evaluate_some(url, cases):
    client = connect(url)
    answered = 0
    for case in cases:
        try:
            client.derive(accelerator=case.accelerator).evaluate(case.mapping)
            answered += 1
        except Exception:
            pass
    client.close()
    return answered


# --------------------------------------------------------------------- #
# /metrics
# --------------------------------------------------------------------- #

def test_metrics_serves_prometheus_text_with_request_series(make_server):
    handle = make_server(admin_port=0)
    admin = handle.server.admin.url
    answered = _evaluate_some(handle.url, _cases())
    assert answered >= 1
    status, content_type, body = _get(admin, "/metrics")
    assert status == 200
    assert content_type.startswith("text/plain")
    assert "version=0.0.4" in content_type

    samples = {}
    for line in body.splitlines():
        assert line, "no blank lines in the exposition"
        if line.startswith("#"):
            continue
        name, value = line.rsplit(" ", 1)
        samples[name] = float(value)
    total = sum(
        v for k, v in samples.items()
        if k.startswith("repro_serve_requests_total")
    )
    assert total >= answered
    # The request histogram, with le as the only label on its buckets.
    assert 'repro_serve_request_seconds_bucket{le="+Inf"}' in samples
    assert "repro_serve_request_seconds_count" in samples
    # The queue depth and high-water gauges, exported from stats_snapshot().
    assert "repro_serve_queued" in samples
    assert "repro_serve_queue_highwater" in samples
    # stats_snapshot() counters are re-exported as gauges at scrape time.
    assert samples["repro_serve_evaluations"] >= 1
    # Scrapes are idempotent reads: a second one must not double anything.
    _, _, again = _get(admin, "/metrics")
    for line in again.splitlines():
        if line.startswith("repro_serve_requests_total"):
            assert float(line.rsplit(" ", 1)[1]) == total


def test_provenance_labelled_response_counters(make_server):
    handle = make_server(admin_port=0)
    case = _cases(1)[0]
    client = connect(handle.url)
    remote = client.derive(accelerator=case.accelerator)
    remote.evaluate(case.mapping)   # evaluated
    client.cache.clear()
    remote.evaluate(case.mapping)   # store hit
    client.close()
    _, _, body = _get(handle.server.admin.url, "/metrics")
    assert 'repro_serve_responses_total{source="evaluated"} 1' in body
    assert 'repro_serve_responses_total{source="store"} 1' in body


# --------------------------------------------------------------------- #
# /healthz + /readyz (drain-aware)
# --------------------------------------------------------------------- #

def test_health_and_ready_flip_on_drain(make_server):
    gate = threading.Event()
    started = threading.Event()

    def hook(item):
        started.set()
        assert gate.wait(timeout=30)

    handle = make_server(admin_port=0, pre_evaluate_hook=hook)
    admin = handle.server.admin.url
    assert _get(admin, "/healthz")[:1] == (200,)
    assert _get(admin, "/readyz")[0] == 200

    case = _cases(1)[0]
    holder = threading.Thread(
        target=lambda: _evaluate_some(handle.url, [case])
    )
    holder.start()
    assert started.wait(timeout=30)
    drain = asyncio.run_coroutine_threadsafe(
        handle.server.drain(reason="test", interrupted=False),
        handle.server.loop,
    )
    deadline = time.time() + 10
    while not handle.server._draining and time.time() < deadline:
        time.sleep(0.01)
    # Mid-drain (the held evaluation keeps the daemon alive): the admin
    # plane answers — that is its job — but reports not-serving.
    try:
        status = _get(admin, "/healthz")[0]
    except urllib.error.HTTPError as err:
        status = err.code
    assert status == 503
    try:
        status, _, body = _get(admin, "/readyz")
    except urllib.error.HTTPError as err:
        status, body = err.code, err.read().decode()
    assert status == 503 and "not ready" in body
    gate.set()
    drain.result(timeout=30)
    holder.join(timeout=30)


# --------------------------------------------------------------------- #
# /statusz + slow log
# --------------------------------------------------------------------- #

def test_statusz_reports_identity_queue_store_and_slow_log(
    make_server, tmp_path
):
    ledger_path = str(tmp_path / "serve.sqlite")
    with use_telemetry(ledger=RunLedger(ledger_path)):
        handle = make_server(admin_port=0, slow_ms=0.0)
    answered = _evaluate_some(handle.url, _cases())
    status, content_type, body = _get(handle.server.admin.url, "/statusz")
    assert status == 200 and content_type.startswith("application/json")
    payload = json.loads(body)
    assert payload["url"] == handle.url
    assert payload["uptime_s"] >= 0
    assert payload["protocol"].count(".") == 1  # "major.minor"
    assert payload["draining"] is False
    assert set(payload["queue"]) == {"queued", "highwater", "engines"}
    assert payload["queue"]["engines"] >= 1
    assert payload["stats"]["requests"] >= answered
    assert payload["store"]["size"] >= answered
    assert payload["flight"]["size"] >= answered
    # slow_ms=0: every successful request is "slow", so the slow log and
    # its ledger rows carry the full phase breakdown.
    assert payload["stats"]["slow_requests"] >= answered
    slow = payload["slow_requests"]
    assert slow, "slow log must surface in /statusz"
    for entry in slow:
        for key in ("mapping_fp", "wall_ms", "queue_wait_ms", "kernel_ms",
                    "queue_depth", "threshold_ms"):
            assert key in entry, key
    rows = [r for r in load_snapshot(ledger_path) if r.kind == "slow_request"]
    assert len(rows) >= answered
    assert rows[0].mapping_fp
    assert rows[0].extra["total_ms"] >= 0


def test_statusz_dump_streams_the_flight_ring(make_server, tmp_path):
    flight_path = str(tmp_path / "flight.jsonl")
    handle = make_server(admin_port=0, flight_path=flight_path)
    cases = _cases(3)
    _evaluate_some(handle.url, cases)
    last_wire = handle.server.flight.last()
    status, content_type, body = _get(
        handle.server.admin.url, "/statusz?dump=1"
    )
    assert status == 200 and content_type.startswith("application/jsonl")
    rows = [json.loads(line) for line in body.splitlines()]
    assert rows and rows[-1]["seq"] == last_wire["seq"]
    # The dump also landed on the configured --flight-out path.
    on_disk = [
        json.loads(line)
        for line in open(flight_path, encoding="utf-8").read().splitlines()
    ]
    assert on_disk[-1]["seq"] == last_wire["seq"]


def test_unknown_route_is_404(make_server):
    handle = make_server(admin_port=0)
    try:
        status = _get(handle.server.admin.url, "/frobnicate")[0]
    except urllib.error.HTTPError as err:
        status = err.code
    assert status == 404


# --------------------------------------------------------------------- #
# Flight recorder lifecycle
# --------------------------------------------------------------------- #

def test_dump_flight_last_record_matches_last_completed_request(
    make_server, tmp_path
):
    """The SIGQUIT handler's body: dump_flight() writes a JSONL whose
    final record is the request that finished last."""
    handle = make_server()
    cases = _cases(4)
    _evaluate_some(handle.url, cases)
    last = handle.server.flight.last()
    assert last is not None
    path = tmp_path / "flight.jsonl"
    count = handle.server.dump_flight(str(path))
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(rows) == count == len(handle.server.flight)
    assert rows[-1] == json.loads(json.dumps(last, default=str))
    assert rows[-1]["outcome"] in ("evaluated", "store", "warm", "coalesced")
    assert rows[-1]["mapping_fp"]


def test_flight_auto_dumps_on_drain(make_server, tmp_path):
    flight_path = tmp_path / "flight.jsonl"
    handle = make_server(flight_path=str(flight_path))
    _evaluate_some(handle.url, _cases(2))
    client = connect(handle.url)
    client.shutdown()
    client.close()
    handle.thread.join(timeout=30)
    rows = [json.loads(line) for line in flight_path.read_text().splitlines()]
    assert rows, "drain must leave a post-mortem flight dump behind"
    assert rows[-1]["outcome"] in ("evaluated", "store", "warm", "coalesced")


def test_hello_advertises_the_admin_url(make_server):
    handle = make_server(admin_port=0)
    client = connect(handle.url)
    assert client.admin_url == handle.server.admin.url
    assert client.derive().admin_url == client.admin_url
    client.close()

    plain = make_server()
    client = connect(plain.url)
    assert client.admin_url is None
    client.close()
