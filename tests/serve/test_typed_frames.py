"""Frame fields are read with their annotated types.

A ``bool`` field takes only a JSON boolean, a ``Dict`` field only a
JSON object, an ``int`` field (every ``id``) only a JSON integer and a
``str`` field only a JSON string: ``"validate": "no"`` would otherwise
decode as a truthy string, ``"layer": 5`` would reach the handler, and
``"id": true`` would be answered as id 1. Each is refused by ``decode``
with a ``ProtocolError`` that names the field, and the daemon answers
such a frame with an error frame and keeps serving.
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


BAD_IDS = [
    (b'{"v": 1, "type": "stats", "id": "x"}\n', "must be a JSON integer, got str"),
    (b'{"v": 1, "type": "stats", "id": true}\n', "must be a JSON integer, got bool"),
    (b'{"v": 1, "type": "stats", "id": 2.5}\n', "must be a JSON integer, got float"),
]


@pytest.mark.parametrize("frame, named", BAD_IDS, ids=["string", "bool", "float"])
def test_decode_refuses_an_id_that_is_not_an_integer(frame, named):
    with pytest.raises(ProtocolError, match="field 'id' " + named):
        protocol.decode(frame)


@pytest.mark.parametrize("data, field, named", [
    ({"type": "hello", "id": 1, "client": 7}, "client", "string"),
    ({"type": "hello_ok", "id": 1, "protocol": "1", "server": "s",
      "preset": {}, "options": {}}, "protocol", "integer"),
    ({"type": "hello_ok", "id": 1, "protocol": True, "server": "s",
      "preset": {}, "options": {}}, "protocol", "integer"),
    ({"type": "hello_ok", "id": 1, "protocol": 1, "server": None,
      "preset": {}, "options": {}}, "server", "string"),
    ({"type": "evaluate_ok", "id": 1, "report": {}, "source": 1},
     "source", "string"),
    ({"type": "error", "id": 1, "error": ["E"], "message": "m"}, "error", "string"),
    ({"type": "error", "id": 1, "error": "E", "message": 5}, "message", "string"),
], ids=["client", "protocol-str", "protocol-bool", "server", "source", "error",
        "message"])
def test_decode_refuses_mistyped_integer_and_string_fields(data, field, named):
    line = json.dumps({"v": protocol.PROTOCOL_VERSION, **data})
    with pytest.raises(ProtocolError, match=f"field {field!r} must be a JSON {named}"):
        protocol.decode(line)


def test_the_daemon_answers_frames_with_a_bad_id_and_keeps_serving(server):
    for frame, named in BAD_IDS:
        response = _round_trip(server.url, frame)
        assert isinstance(response, ErrorResponse)
        assert (response.id, response.error) == (-1, "ProtocolError")
        assert "'id' " + named in response.message
    stats = _round_trip(server.url, protocol.encode(StatsRequest(id=4)))
    assert isinstance(stats, StatsResponse)
    assert stats.id == 4
    assert stats.stats["protocol_errors"] == len(BAD_IDS)
