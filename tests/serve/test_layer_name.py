"""A served answer is named for the layer its request sent.

The daemon's store key, its coalescing key and the kernel engine's
cache key hold the layer's fingerprint, which leaves its name out, so a
request for a layer of the same shape under another name is answered
from the first layer's result. The answer must still carry the name of
the layer the request sent: from the store, a warm-started ledger row,
the engine cache, a coalesced evaluation and the client's own cache.
"""

import dataclasses
import socket
import threading
import time

from repro import connect
from repro.dse.mapper import MapperConfig, TemporalMapper
from repro.hardware.presets import case_study_accelerator
from repro.mapping.serde import mapping_to_dict
from repro.observability.ledger import RunLedger
from repro.observability.telemetry import use_telemetry
from repro.serve import protocol
from repro.serve.protocol import EvaluateRequest, EvaluateResponse
from repro.workload.generator import dense_layer
from repro.workload.serde import layer_to_dict

PRESET = case_study_accelerator()
LAYER = dense_layer(16, 32, 64)
RENAMED = dense_layer(16, 32, 64, name="renamed")
MAPPING = next(iter(TemporalMapper(
    PRESET.accelerator, PRESET.spatial_unrolling,
    MapperConfig(max_enumerated=8, samples=0),
).mappings(LAYER)))


def _frame(request_id, layer, validate=False, with_energy=False):
    return protocol.encode(EvaluateRequest(
        id=request_id, layer=layer_to_dict(layer), mapping=mapping_to_dict(MAPPING),
        validate=validate, with_energy=with_energy,
    ))


def _ask(url, *frames):
    """Send ``frames`` on one connection; the replies by request id."""
    host, port = url[len("serve://"):].rsplit(":", 1)
    with socket.create_connection((host, int(port)), timeout=10) as sock:
        sock.sendall(b"".join(frames))
        with sock.makefile("rb") as replies:
            answers = [protocol.decode(replies.readline()) for _ in frames]
    assert all(isinstance(a, EvaluateResponse) for a in answers), answers
    return {answer.id: answer for answer in answers}


def test_store_and_engine_cache_answers_carry_the_sent_name(server):
    first = _ask(server.url, _frame(1, LAYER))[1]
    assert (first.source, first.report["layer_name"]) == ("evaluated", "dense(16,32,64)")
    store = _ask(server.url, _frame(2, RENAMED))[2]
    assert (store.source, store.report["layer_name"]) == ("store", "renamed")
    # validate=True and energy requests skip the store; the engine cache hits.
    checked = _ask(server.url, _frame(3, RENAMED, validate=True))[3]
    assert checked.report["layer_name"] == "renamed"
    _ask(server.url, _frame(4, LAYER, with_energy=True))
    energy = _ask(server.url, _frame(5, RENAMED, with_energy=True))[5]
    assert (energy.report["layer_name"], energy.energy["layer_name"]) == ("renamed",) * 2
    for key in ("cc_ideal", "cc_spatial", "ss_overall", "preload", "offload"):
        assert store.report[key] == first.report[key], key


def test_a_coalesced_answer_carries_the_sent_name(make_server):
    gate = threading.Event()
    handle = make_server(pre_evaluate_hook=lambda item: gate.wait(timeout=30))
    answers = {}
    thread = threading.Thread(target=lambda: answers.update(
        _ask(handle.url, _frame(1, LAYER), _frame(2, RENAMED))
    ))
    thread.start()
    probe = connect(handle.url)
    deadline = time.time() + 30
    while probe.server_stats()["coalesced"] < 1 and time.time() < deadline:
        time.sleep(0.02)
    gate.set()
    thread.join(timeout=30)
    probe.close()
    assert not thread.is_alive()
    assert answers[2].source == "coalesced"
    assert answers[1].report["layer_name"] == "dense(16,32,64)"
    assert answers[2].report["layer_name"] == "renamed"


def test_warm_and_client_cache_answers_carry_the_sent_name(make_server, tmp_path):
    ledger_path = str(tmp_path / "serve.sqlite")
    with use_telemetry(ledger=RunLedger(ledger_path)):
        first = make_server()
    _ask(first.url, _frame(1, LAYER))
    first.stop()
    second = make_server(warm_start=(ledger_path,))
    warm = _ask(second.url, _frame(1, RENAMED))[1]
    assert (warm.source, warm.report["layer_name"]) == ("warm", "renamed")
    client = connect(second.url)
    assert client.evaluate(MAPPING).layer_name == "dense(16,32,64)"
    renamed = dataclasses.replace(MAPPING, layer=RENAMED)
    assert client.evaluate(renamed).layer_name == "renamed"
    (hit,) = client.evaluate_many([renamed])
    assert hit.report.layer_name == "renamed"
    assert client.stats.cache_hits == 2
    client.close()
