"""The daemon's one-entry layer and spatial memo answers exactly like a
fresh parse.

The daemon reuses the previous request's layer and spatial objects when
a request carries the same wire dicts. These tests send bursts that
switch layers, names, spatial unrollings and machines on every frame,
and check each answer against the in-process model, each ledger
fingerprint against a fresh parse, and each report name against its
own request.
"""

import dataclasses
import socket
import threading

from repro.core.model import LatencyModel
from repro.dse.mapper import MapperConfig, TemporalMapper
from repro.hardware.presets import case_study_accelerator
from repro.hardware.serde import accelerator_to_dict
from repro.mapping.mapping import MappingError
from repro.mapping.serde import mapping_from_dict, mapping_to_dict
from repro.serve import connect, protocol
from repro.serve.protocol import ErrorResponse, EvaluateRequest, EvaluateResponse
from repro.verify.generators import sample_cases
from repro.workload.generator import dense_layer
from repro.workload.serde import layer_from_dict, layer_to_dict

PRESET = case_study_accelerator()
OTHER_SPATIAL = {dim: max(1, factor // 2) for dim, factor in PRESET.spatial_unrolling.items()}


def _feasible(accelerator, spatial, layer, count=2):
    """The first ``count`` mappings of ``layer`` the model accepts."""
    mapper = TemporalMapper(accelerator, spatial, MapperConfig(max_enumerated=16, samples=0))
    model = LatencyModel(accelerator)
    found = []
    for mapping in mapper.mappings(layer):
        try:
            model.check(mapping)
        except MappingError:
            continue
        found.append(mapping)
        if len(found) == count:
            return found
    raise AssertionError(f"fewer than {count} feasible mappings of {layer.name}")


def _other_machine_case():
    for case in sample_cases(seed=11, count=10):
        try:
            LatencyModel(case.accelerator).check(case.mapping)
        except MappingError:
            continue
        return case
    raise AssertionError("no feasible sample case")  # pragma: no cover


def _gated(report):
    """A report's wire form without its limiting ports, which a store
    hit does not keep (``repro.serve.store.record_to_report``)."""
    return dict(report, served_stalls=[s[:4] for s in report["served_stalls"]])


def _capture_records(server):
    """Wrap the daemon's per-request hook: (request, record) pairs."""
    seen = []
    record_request = server._record_request

    def capture(msg, response, record, wall_s):
        record_request(msg, response, record, wall_s)
        seen.append((msg, record))

    server._record_request = capture
    return seen


def _burst(url, requests):
    """Write ``requests`` as one pipelined burst; the answers by id."""
    host, port = url[len("serve://"):].rsplit(":", 1)
    with socket.create_connection((host, int(port)), timeout=30) as sock:
        sock.sendall(b"".join(protocol.encode(r) for r, _, _ in requests))
        with sock.makefile("rb") as replies:
            answers = [protocol.decode(replies.readline()) for _ in requests]
    return {answer.id: answer for answer in answers}


def _assert_fresh_fingerprints(seen):
    assert seen
    for msg, record in seen:
        fresh = mapping_from_dict(msg.mapping, layer_from_dict(msg.layer))
        assert record.mapping_fp == fresh.fingerprint()


def test_a_burst_that_switches_every_frame_answers_like_the_model(server):
    seen = _capture_records(server.server)
    accelerator = PRESET.accelerator
    layer_a = dense_layer(16, 32, 64)
    layer_b = dense_layer(32, 16, 64)
    renamed = dataclasses.replace(layer_a, name="layer-a-renamed")
    a1, a2 = _feasible(accelerator, PRESET.spatial_unrolling, layer_a)
    b1, b2 = _feasible(accelerator, PRESET.spatial_unrolling, layer_b)
    # The renamed layer's mapping is one the burst evaluates nowhere else:
    # the layer fingerprint leaves the name out, so a1 or a2 under the
    # other name would be an engine-cache or store hit for it.
    r1 = _feasible(accelerator, PRESET.spatial_unrolling, renamed, count=3)[2]
    assert mapping_to_dict(r1) not in (mapping_to_dict(a1), mapping_to_dict(a2))
    (s1,) = _feasible(accelerator, OTHER_SPATIAL, layer_a, count=1)
    case = _other_machine_case()
    # What a derive()d view on another machine sends: its accelerator.
    other = accelerator_to_dict(case.accelerator)
    plan = [  # (mapping, accelerator payload, validate)
        (a1, None, False), (b1, None, True), (a2, None, True),
        (b2, None, False), (r1, None, True), (a1, None, True),
        (s1, None, False), (a2, None, False), (case.mapping, other, True),
        (b1, None, False), (s1, None, True), (r1, None, False),
    ]
    requests = [
        (EvaluateRequest(
            id=i, layer=layer_to_dict(m.layer), mapping=mapping_to_dict(m),
            accelerator=accel, validate=validate,
        ), m, case.accelerator if accel is not None else accelerator)
        for i, (m, accel, validate) in enumerate(plan, 1)
    ]
    answers = _burst(server.url, requests)
    for request, mapping, machine in requests:
        answer = answers[request.id]
        assert isinstance(answer, EvaluateResponse), answer
        want = protocol.report_to_dict(LatencyModel(machine).evaluate(mapping))
        assert _gated(answer.report) == _gated(want), request.id
        assert answer.report["layer_name"] == request.layer["name"]
    _assert_fresh_fingerprints(seen)
    validated = [msg for msg, _ in seen if msg.validate]
    assert {msg.layer["name"] for msg in validated} == {
        layer_a.name, layer_b.name, renamed.name, case.mapping.layer.name,
    }


def test_two_connections_interleaving_layers_answer_like_the_model(server):
    seen = _capture_records(server.server)
    accelerator = PRESET.accelerator
    layers = [dense_layer(16, 32, 64), dense_layer(32, 16, 64),
              dense_layer(8, 64, 32), dense_layer(64, 8, 32)]
    mappings = [
        _feasible(accelerator, PRESET.spatial_unrolling, layer) for layer in layers
    ]
    # Each connection alternates between two layers the other never sends.
    work = [
        [mappings[0][0], mappings[1][0], mappings[0][1], mappings[1][1]] * 2,
        [mappings[2][0], mappings[3][0], mappings[2][1], mappings[3][1]] * 2,
    ]
    results = [[], []]

    def run(slot):
        with connect(server.url) as client:
            for mapping in work[slot]:
                client.cache.clear()  # every call reaches the daemon
                results[slot].append(client.evaluate(mapping))

    threads = [threading.Thread(target=run, args=(slot,)) for slot in (0, 1)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
        assert not thread.is_alive()
    model = LatencyModel(accelerator)
    for slot in (0, 1):
        assert len(results[slot]) == len(work[slot])
        for mapping, report in zip(work[slot], results[slot]):
            assert _gated(protocol.report_to_dict(report)) == _gated(
                protocol.report_to_dict(model.evaluate(mapping))
            )
    assert len(seen) == sum(len(w) for w in work)
    _assert_fresh_fingerprints(seen)


def test_an_equal_but_mistyped_dict_is_refused_after_a_valid_one(server):
    """``{"K": 16}`` equals ``{"K": 16.0}`` and ``1`` equals ``True``;
    the memo must not let the float or the boolean through when the
    previous request sent the integer."""
    layer = dense_layer(16, 32, 64)
    (mapping,) = _feasible(PRESET.accelerator, PRESET.spatial_unrolling, layer, count=1)
    layer_dict, mapping_dict = layer_to_dict(layer), mapping_to_dict(mapping)
    float_layer = dict(layer_dict, dims={
        d: float(s) for d, s in layer_dict["dims"].items()})
    float_spatial = dict(mapping_dict, spatial={
        d: float(f) for d, f in mapping_dict["spatial"].items()})
    bool_layer = dict(layer_dict, stride_x=True)
    assert float_layer == bool_layer == layer_dict
    assert float_spatial == mapping_dict
    requests = [
        (EvaluateRequest(id=1, layer=layer_dict, mapping=mapping_dict), None, None),
        (EvaluateRequest(id=2, layer=float_layer, mapping=mapping_dict), None, None),
        (EvaluateRequest(id=3, layer=layer_dict, mapping=mapping_dict), None, None),
        (EvaluateRequest(id=4, layer=layer_dict, mapping=float_spatial), None, None),
        (EvaluateRequest(id=5, layer=bool_layer, mapping=mapping_dict), None, None),
    ]
    answers = _burst(server.url, requests)
    assert isinstance(answers[1], EvaluateResponse)
    assert isinstance(answers[3], EvaluateResponse)
    for request_id in (2, 4, 5):
        assert isinstance(answers[request_id], ErrorResponse)
        assert answers[request_id].error == "SerdeError", answers[request_id]
