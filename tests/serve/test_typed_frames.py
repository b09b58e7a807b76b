"""Frame fields are read with their annotated types.

A ``bool`` field takes only a JSON boolean and a ``Dict`` field only a
JSON object: ``"validate": "no"`` would otherwise decode as a truthy
string, and ``"layer": 5`` would reach the handler. Both are refused by
``decode`` with a ``ProtocolError`` that names the field, and the daemon
answers such a frame with an error frame and keeps serving.
"""

import json
import socket

import pytest

from repro.serve import protocol
from repro.serve.protocol import (
    ErrorResponse,
    EvaluateRequest,
    ProtocolError,
    StatsRequest,
    StatsResponse,
)
from repro.workload.generator import dense_layer
from repro.workload.serde import layer_to_dict

STRING_BOOLEANS = {"validate": "no", "with_energy": "false"}
NON_OBJECTS = {"layer": 5, "mapping": [1]}


def _evaluate_frame(request_id, **fields):
    data = {
        "v": protocol.PROTOCOL_VERSION, "type": "evaluate", "id": request_id,
        "layer": layer_to_dict(dense_layer(8, 8, 8)), "mapping": {},
    }
    data.update(fields)
    return (json.dumps(data) + "\n").encode()


@pytest.mark.parametrize("fields, named", [
    (STRING_BOOLEANS, "'validate' must be a JSON boolean"),
    ({"with_energy": 1}, "'with_energy' must be a JSON boolean"),
    (NON_OBJECTS, "'layer' must be a JSON object"),
    ({"mapping": [1]}, "'mapping' must be a JSON object"),
    ({"layer": None}, "'layer' must be a JSON object"),
], ids=["string-booleans", "int-boolean", "non-objects", "list-mapping", "null-layer"])
def test_decode_refuses_a_mistyped_field_by_name(fields, named):
    with pytest.raises(ProtocolError, match=named):
        protocol.decode(_evaluate_frame(1, **fields))


def test_decode_keeps_well_typed_and_tolerant_fields():
    message = protocol.decode(_evaluate_frame(
        1, validate=False, with_energy=True, trace="not a context",
    ))
    assert isinstance(message, EvaluateRequest)
    assert (message.validate, message.with_energy) == (False, True)
    assert message.trace == "not a context"  # extract_trace ignores it
    stats = protocol.decode(protocol.encode(StatsResponse(id=2, stats={"x": 1.0})))
    assert stats.stats == {"x": 1.0}


def _round_trip(url, frame):
    host, port = url[len("serve://"):].rsplit(":", 1)
    with socket.create_connection((host, int(port)), timeout=10) as sock:
        sock.sendall(frame)
        with sock.makefile("rb") as replies:
            line = replies.readline()
    assert line, "the daemon closed the connection without a reply"
    return protocol.decode(line)


def test_the_daemon_answers_mistyped_frames_and_keeps_serving(server):
    for request_id, (fields, field) in enumerate(
        [(STRING_BOOLEANS, "validate"), (NON_OBJECTS, "layer")], 1
    ):
        response = _round_trip(server.url, _evaluate_frame(request_id, **fields))
        assert isinstance(response, ErrorResponse)
        assert (response.id, response.error) == (request_id, "ProtocolError")
        assert repr(field) in response.message
    stats = _round_trip(server.url, protocol.encode(StatsRequest(id=3)))
    assert isinstance(stats, StatsResponse)
    assert stats.stats["protocol_errors"] == 2
    assert stats.stats["evaluations"] == 0
