"""Malformed evaluate frames get a typed error frame, never silence.

A wire payload that does not describe a layer or a mapping is a
``SerdeError``; a mapping shallower than the machine is a
``MappingError``. Both are client errors: the daemon answers them, keeps
serving, and does not dump its flight ring as it would for a fault of
its own. Anything else that escapes a handler is still answered.
"""

import json
import re
import socket

import pytest

from repro.dse.mapper import MapperConfig, TemporalMapper
from repro.hardware.presets import case_study_accelerator
from repro.hardware.serde import SerdeError
from repro.mapping.mapping import Mapping
from repro.mapping.serde import mapping_from_dict, mapping_to_dict
from repro.mapping.temporal import TemporalMapping
from repro.serve import protocol
from repro.serve.protocol import (
    ErrorResponse,
    EvaluateRequest,
    ProtocolError,
    StatsRequest,
    StatsResponse,
)
from repro.workload.generator import dense_layer
from repro.workload.operand import Operand
from repro.workload.serde import layer_from_dict, layer_to_dict

LAYER = dense_layer(32, 64, 600)


def _mapping():
    preset = case_study_accelerator()
    mapper = TemporalMapper(
        preset.accelerator, preset.spatial_unrolling,
        MapperConfig(max_enumerated=8, samples=0),
    )
    return next(iter(mapper.mappings(LAYER)))


def _shallow(mapping):
    """``mapping`` with no W cuts: one level on a three-level W chain."""
    cuts = dict(mapping.temporal.cuts)
    cuts[Operand.W] = ()
    return Mapping(
        mapping.layer, mapping.spatial, TemporalMapping(mapping.temporal.loops, cuts)
    )


@pytest.mark.parametrize("patch", [
    {"dims": [1]},
    {"precision": None},
    {"dims": {"Q": 4}},
])
def test_layer_parser_raises_serde_error(patch):
    data = dict(layer_to_dict(LAYER), **patch)
    with pytest.raises(SerdeError, match="malformed layer"):
        layer_from_dict(data)


@pytest.mark.parametrize("patch", [
    {"cuts": [1]},
    {"cuts": {"W": 1, "I": [], "O": []}},
    {"loops": [["K"]]},
    {"spatial": None},
])
def test_mapping_parser_raises_serde_error(patch):
    data = dict(mapping_to_dict(_mapping()), **patch)
    with pytest.raises(SerdeError, match="malformed mapping"):
        mapping_from_dict(data, LAYER)


def _fractional(layer, mapping):
    """The wire dicts of ``layer``/``mapping`` with every dim and loop
    size 0.5 larger: no integer problem, so nothing to evaluate."""
    layer = dict(layer, dims={d: s + 0.5 for d, s in layer["dims"].items()})
    mapping = dict(mapping, loops=[[d, s + 0.5] for d, s in mapping["loops"]])
    return layer, mapping


@pytest.mark.parametrize("part, patch, field", [
    ("layer", {"dims": {"B": 32, "K": 64, "C": 600.5}}, "dims[C]"),
    ("layer", {"dims": {"B": True, "K": 64, "C": 600}}, "dims[B]"),
    ("layer", {"dims": {"B": "32", "K": 64, "C": 600}}, "dims[B]"),
    ("layer", {"stride_x": 2.0}, "stride_x"),
    ("layer", {"dilation_y": True}, "dilation_y"),
    ("mapping", {"loops": [["C", 16.5]]}, "loops[0]"),
    ("mapping", {"loops": [["C", "16"]]}, "loops[0]"),
    ("mapping", {"spatial": {"K": True}}, "spatial[K]"),
    ("mapping", {"cuts": {"W": [0.5], "I": [], "O": []}}, "cuts.W[0]"),
])
def test_parsers_refuse_non_integer_sizes_by_name(part, patch, field):
    """``16.5``, ``true`` and ``"16"`` are not sizes: the parsers raise
    instead of truncating or coercing them with ``int()``."""
    error = re.escape(f"{field} must be an integer")
    with pytest.raises(SerdeError, match=error):
        if part == "layer":
            layer_from_dict(dict(layer_to_dict(LAYER), **patch))
        else:
            mapping_from_dict(dict(mapping_to_dict(_mapping()), **patch), LAYER)


def _frame(request_id, layer, mapping):
    return protocol.encode(EvaluateRequest(
        id=request_id, layer=layer, mapping=mapping, validate=False,
    ))


def _round_trip(url, frame):
    host, port = url[len("serve://"):].rsplit(":", 1)
    with socket.create_connection((host, int(port)), timeout=10) as sock:
        sock.sendall(frame)
        with sock.makefile("rb") as replies:
            line = replies.readline()
    assert line, "the daemon closed the connection without a reply"
    return protocol.decode(line)


def test_malformed_frames_get_error_frames_and_the_daemon_keeps_serving(
    make_server,
):
    handle = make_server()
    mapping = _mapping()
    layer = layer_to_dict(LAYER)
    cases = [
        (dict(layer, dims=[1]), mapping_to_dict(mapping), "SerdeError"),
        (dict(layer, precision=None), mapping_to_dict(mapping), "SerdeError"),
        (layer, dict(mapping_to_dict(mapping), cuts=[1]), "SerdeError"),
        (*_fractional(layer, mapping_to_dict(mapping)), "SerdeError"),
        (layer, mapping_to_dict(_shallow(mapping)), "MappingError"),
    ]
    for request_id, (layer_data, mapping_data, error) in enumerate(cases, 1):
        response = _round_trip(handle.url, _frame(request_id, layer_data, mapping_data))
        assert isinstance(response, ErrorResponse)
        assert (response.id, response.error) == (request_id, error)
    shallow = _round_trip(
        handle.url, _frame(9, layer, mapping_to_dict(_shallow(mapping)))
    )
    assert "W: mapping assumes 1 levels" in shallow.message
    stats = _round_trip(handle.url, protocol.encode(StatsRequest(id=10)))
    assert isinstance(stats, StatsResponse)
    assert stats.stats["errors"] == len(cases) + 1
    assert not handle.server._error_dumped


def test_an_exception_escaping_a_handler_is_still_answered(make_server):
    handle = make_server()

    async def broken(message):
        raise RuntimeError("handler fault")

    handle.server._handle_evaluate = broken
    mapping = _mapping()
    frame = _frame(3, layer_to_dict(LAYER), mapping_to_dict(mapping))
    response = _round_trip(handle.url, frame)
    assert isinstance(response, ErrorResponse)
    assert (response.id, response.error, response.message) == (
        3, "RuntimeError", "handler fault",
    )
    fault = handle.server.flight.last()
    assert fault["outcome"] == "RuntimeError"
    assert "handler fault" in fault["traceback"]


@pytest.mark.parametrize("version", ["x", [1], {"major": 1}, 1.5, True])
def test_decode_refuses_a_non_integer_version(version):
    frame = json.dumps({"v": version, "type": "hello", "id": 1})
    with pytest.raises(ProtocolError, match="'v' must be an integer"):
        protocol.decode(frame)


@pytest.mark.parametrize("frame, request_id", [
    (b'{"v": "x", "type": "hello", "id": 1}\n', 1),
    (b'{"v": [1], "type": "hello", "id": 2}\n', 2),
    (b'{"id": null}\n', -1),
    (b'{"id": [3]}\n', -1),
    (b"[" * 50_000 + b"\n", -1),
], ids=["v-string", "v-list", "id-null", "id-list", "deep-nesting"])
def test_hostile_frames_get_a_protocol_error(server, frame, request_id):
    """Frames whose version or id is not an integer, or whose JSON nests
    too deeply to parse, are answered with a ``ProtocolError`` frame, and
    the daemon keeps serving."""
    response = _round_trip(server.url, frame)
    assert isinstance(response, ErrorResponse)
    assert (response.id, response.error) == (request_id, "ProtocolError")
    stats = _round_trip(server.url, protocol.encode(StatsRequest(id=5)))
    assert isinstance(stats, StatsResponse)
    assert stats.stats["protocol_errors"] == 1


def test_a_fault_in_decode_is_answered_and_recorded(server, monkeypatch):
    real_decode = protocol.decode

    def decode(line):
        if b"boom" in line:
            raise RuntimeError("decoder fault")
        return real_decode(line)

    monkeypatch.setattr(protocol, "decode", decode)
    response = _round_trip(server.url, b'{"v": 1, "type": "stats", "id": 8, "boom": 1}\n')
    assert isinstance(response, ErrorResponse)
    assert (response.id, response.error) == (8, "RuntimeError")
    fault = server.server.flight.last()
    assert fault["outcome"] == "RuntimeError"
    assert "decoder fault" in fault["traceback"]
