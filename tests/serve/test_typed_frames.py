"""Frame fields are read with their annotated types.

A ``bool`` field takes only a JSON boolean, a ``Dict`` field only a
JSON object, an ``int`` field (every ``id``) only a JSON integer and a
``str`` field only a JSON string: ``"validate": "no"`` would otherwise
decode as a truthy string, ``"layer": 5`` would reach the handler, and
``"id": true`` would be answered as id 1. Each is refused by ``decode``
with a ``ProtocolError`` that names the field, and the daemon answers
such a frame with an error frame and keeps serving. A request's model
``options`` are read the same way: ``"compute_edges": "false"`` is
refused, not evaluated with compute edges on.
"""

import json
import socket

import pytest

from repro.core.step1 import ModelOptions
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
    (STRING_BOOLEANS, "'validate' must be a boolean"),
    ({"with_energy": 1}, "'with_energy' must be a boolean"),
    (NON_OBJECTS, "'layer' must be an object"),
    ({"mapping": [1]}, "'mapping' must be an object"),
    ({"layer": None}, "'layer' must be an object"),
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
    (b'{"v": 1, "type": "stats", "id": "x"}\n', "must be an integer, got 'x'"),
    (b'{"v": 1, "type": "stats", "id": true}\n', "must be an integer, got True"),
    (b'{"v": 1, "type": "stats", "id": 2.5}\n', "must be an integer, got 2.5"),
]


@pytest.mark.parametrize("frame, named", BAD_IDS, ids=["string", "bool", "float"])
def test_decode_refuses_an_id_that_is_not_an_integer(frame, named):
    with pytest.raises(ProtocolError, match="field 'id' " + named):
        protocol.decode(frame)


@pytest.mark.parametrize("data, field, named", [
    ({"type": "hello", "id": 1, "client": 7}, "client", "a string"),
    ({"type": "hello_ok", "id": 1, "protocol": "1", "server": "s",
      "preset": {}, "options": {}}, "protocol", "an integer"),
    ({"type": "hello_ok", "id": 1, "protocol": True, "server": "s",
      "preset": {}, "options": {}}, "protocol", "an integer"),
    ({"type": "hello_ok", "id": 1, "protocol": 1, "server": None,
      "preset": {}, "options": {}}, "server", "a string"),
    ({"type": "evaluate_ok", "id": 1, "report": {}, "source": 1},
     "source", "a string"),
    ({"type": "error", "id": 1, "error": ["E"], "message": "m"}, "error", "a string"),
    ({"type": "error", "id": 1, "error": "E", "message": 5}, "message", "a string"),
], ids=["client", "protocol-str", "protocol-bool", "server", "source", "error",
        "message"])
def test_decode_refuses_mistyped_integer_and_string_fields(data, field, named):
    line = json.dumps({"v": protocol.PROTOCOL_VERSION, **data})
    with pytest.raises(ProtocolError, match=f"field {field!r} must be {named}"):
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


@pytest.mark.parametrize("data, field, kind", [
    ({"compute_edges": "false", "paper_period_count": 1}, "compute_edges", "a boolean"),
    ({"paper_period_count": 1}, "paper_period_count", "a boolean"),
    ({"combine_rule": 5}, "combine_rule", "a string"),
], ids=["string-boolean", "int-boolean", "int-string"])
def test_served_options_are_read_typed(data, field, kind):
    """``"compute_edges": "false"`` is a truthy string: read as sent, it
    would evaluate with compute edges on under a fingerprint of its own."""
    with pytest.raises(ProtocolError, match=f"field {field!r} must be {kind}"):
        protocol.options_from_dict(data)
    assert protocol.options_from_dict({"compute_edges": None}) == ModelOptions()


def test_the_daemon_answers_mistyped_options_and_keeps_serving(server):
    response = _round_trip(
        server.url, _evaluate_frame(1, options={"compute_edges": "false"})
    )
    assert isinstance(response, ErrorResponse)
    assert (response.id, response.error) == (1, "ProtocolError")
    assert "'compute_edges' must be a boolean" in response.message
    stats = _round_trip(server.url, protocol.encode(StatsRequest(id=2)))
    assert isinstance(stats, StatsResponse)
    assert stats.stats["evaluations"] == 0


def test_decode_refuses_a_message_type_that_is_not_a_string():
    """An unhashable ``type`` was a ``TypeError`` from the type lookup."""
    with pytest.raises(ProtocolError, match=r"unknown message type \[1\]"):
        protocol.decode(b'{"v": 1, "type": [1], "id": 1}\n')
