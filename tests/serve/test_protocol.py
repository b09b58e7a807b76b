"""The wire protocol: frame serde, version gating, payload fidelity."""

import dataclasses
import json

import pytest

from repro.core.step1 import ModelOptions
from repro.engine import EvaluationEngine
from repro.hardware.presets import case_study_accelerator
from repro.hardware.serde import accelerator_to_dict, preset_to_dict
from repro.mapping.serde import mapping_to_dict
from repro.observability.distributed import spans_to_wire
from repro.observability.stats import EngineStats
from repro.observability.telemetry import use_telemetry
from repro.observability.tracer import Tracer
from repro.serve import protocol
from repro.serve.protocol import (
    ErrorResponse,
    EvaluateRequest,
    EvaluateResponse,
    HelloRequest,
    HelloResponse,
    ProtocolError,
    ShutdownRequest,
    ShutdownResponse,
    StatsRequest,
    StatsResponse,
)
from repro.serve.server import ServerStats
from repro.verify.generators import sample_cases
from repro.workload.serde import layer_to_dict


def _feasible_case():
    for case in sample_cases(seed=3, count=10):
        engine = EvaluationEngine(case.accelerator)
        try:
            return case, engine.evaluate(case.mapping)
        except Exception:
            continue
    raise RuntimeError("no feasible sample case")  # pragma: no cover


CASE, REPORT = _feasible_case()


# --------------------------------------------------------------------- #
# Frames
# --------------------------------------------------------------------- #

@pytest.mark.parametrize("message", [
    HelloRequest(id=1),
    HelloResponse(id=1, protocol=1, server="s", preset={}, options={}),
    EvaluateRequest(id=2, layer={"a": 1}, mapping={"b": 2}),
    EvaluateResponse(id=2, report={"r": 3}, source="warm"),
    StatsRequest(id=3),
    StatsResponse(id=3, stats={"evaluations": 1.0}),
    ShutdownRequest(id=4),
    ShutdownResponse(id=4),
    ErrorResponse(id=5, error="MappingError", message="boom"),
])
def test_every_message_roundtrips(message):
    line = protocol.encode(message)
    assert line.endswith(b"\n")
    assert protocol.decode(line) == message


def test_frames_carry_version_and_type():
    data = json.loads(protocol.encode(HelloRequest(id=7)))
    assert data["v"] == protocol.PROTOCOL_VERSION
    assert data["type"] == "hello"
    assert data["id"] == 7


def test_newer_protocol_version_rejected_with_clear_error():
    line = json.dumps({
        "v": protocol.PROTOCOL_VERSION + 1, "type": "hello", "id": 1,
    })
    with pytest.raises(ProtocolError, match="upgrade this side"):
        protocol.decode(line)


def test_malformed_frames_rejected():
    with pytest.raises(ProtocolError, match="invalid JSON"):
        protocol.decode(b"not json\n")
    with pytest.raises(ProtocolError, match="JSON object"):
        protocol.decode(b"[1, 2]\n")
    with pytest.raises(ProtocolError, match="no protocol version"):
        protocol.decode(b'{"type": "hello", "id": 1}\n')
    with pytest.raises(ProtocolError, match="unknown message type"):
        protocol.decode(b'{"v": 1, "type": "frobnicate", "id": 1}\n')
    with pytest.raises(ProtocolError, match="bad 'evaluate' frame"):
        protocol.decode(b'{"v": 1, "type": "evaluate", "id": 1}\n')


def test_unknown_fields_tolerated_within_version():
    # An older peer must survive same-version frames that grew new
    # optional fields (that is what the version gate does NOT reject).
    line = json.dumps({
        "v": protocol.PROTOCOL_VERSION, "type": "hello", "id": 1,
        "some_future_field": True,
    })
    assert protocol.decode(line) == HelloRequest(id=1)


def _realistic_messages():
    """One message of every type, each built the way its sender builds it."""
    tracer = Tracer()
    with use_telemetry(tracer=tracer):
        engine = EvaluationEngine(CASE.accelerator)
        energy = engine.evaluate_energy(CASE.mapping)
    spans = spans_to_wire(tracer.records)
    assert spans and energy is not None
    stats = ServerStats(requests=3).snapshot()
    stats.update(EngineStats().snapshot())
    return [
        HelloRequest(id=1),
        HelloResponse(
            id=1, protocol=protocol.PROTOCOL_VERSION, server="daemon",
            preset=preset_to_dict(case_study_accelerator()),
            options=protocol.options_to_dict(ModelOptions()),
            admin="http://127.0.0.1:9100",
        ),
        EvaluateRequest(
            id=2, layer=layer_to_dict(CASE.mapping.layer),
            mapping=mapping_to_dict(CASE.mapping),
            accelerator=accelerator_to_dict(CASE.accelerator),
            options=protocol.options_to_dict(ModelOptions(combine_rule="paper")),
            validate=False, with_energy=True,
            trace={"trace_id": "abc", "span_id": 4, "sampled": True},
        ),
        EvaluateResponse(
            id=2, report=protocol.report_to_dict(REPORT),
            energy=protocol.energy_to_dict(energy), source="evaluated",
            spans=spans,
        ),
        EvaluateResponse(id=3, report=protocol.report_to_dict(REPORT), source="store"),
        StatsRequest(id=4),
        StatsResponse(id=4, stats=stats),
        ShutdownRequest(id=5),
        ShutdownResponse(id=5),
        ErrorResponse(id=-1, error="ProtocolError", message="bad 'stats' frame"),
    ]


@pytest.mark.parametrize(
    "message", _realistic_messages(), ids=lambda m: type(m).__name__
)
def test_frames_are_byte_identical_to_the_asdict_form(message):
    """``encode`` reads fields without copying them; its frames must be
    exactly the ``dataclasses.asdict`` frames it replaced."""
    name = {cls: name for name, cls in protocol._TYPES.items()}[type(message)]
    reference = json.dumps({
        "v": protocol.PROTOCOL_VERSION, "minor": protocol.PROTOCOL_MINOR,
        "type": name,
        **{k: v for k, v in dataclasses.asdict(message).items() if v is not None},
    }, sort_keys=True)
    assert protocol.encode(message) == (reference + "\n").encode("utf-8")
    assert protocol.decode(protocol.encode(message)) == message


def test_encode_rejects_non_protocol_objects():
    with pytest.raises(ProtocolError, match="not a protocol message"):
        protocol.encode(object())


# --------------------------------------------------------------------- #
# Forward compatibility: the trace/spans/minor additions (protocol 1.1)
# --------------------------------------------------------------------- #

def test_frames_carry_the_minor_revision():
    data = json.loads(protocol.encode(HelloRequest(id=1)))
    assert data["v"] == protocol.PROTOCOL_VERSION
    assert data["minor"] == protocol.PROTOCOL_MINOR
    # minor is informational: a frame without it (old peer) still decodes.
    del data["minor"]
    assert protocol.decode(json.dumps(data)) == HelloRequest(id=1)


def test_none_valued_optional_fields_are_absent_on_the_wire():
    # The compat contract of every additive field: unused means ABSENT,
    # not null — an old peer's unknown-key filter never even sees it.
    request = json.loads(protocol.encode(
        EvaluateRequest(id=1, layer={}, mapping={})
    ))
    assert "trace" not in request
    assert "accelerator" not in request
    response = json.loads(protocol.encode(
        EvaluateResponse(id=1, report={}, source="store")
    ))
    assert "spans" not in response
    assert "energy" not in response


def test_old_client_to_new_server_evaluate_decodes_with_no_trace():
    # Exactly what a pre-1.1 client puts on the wire: no trace, no minor.
    line = json.dumps({
        "v": protocol.PROTOCOL_VERSION, "type": "evaluate", "id": 9,
        "layer": {"a": 1}, "mapping": {"b": 2},
    })
    message = protocol.decode(line)
    assert message == EvaluateRequest(id=9, layer={"a": 1}, mapping={"b": 2})
    assert message.trace is None


def test_new_client_to_old_server_trace_is_just_an_unknown_key():
    # An old server's decoder drops keys it doesn't know; simulate by
    # sending the 1.1 fields on a frame type that never declared them.
    line = json.dumps({
        "v": protocol.PROTOCOL_VERSION, "type": "hello", "id": 2,
        "trace": {"trace_id": "t", "span_id": 1}, "minor": 99,
    })
    assert protocol.decode(line) == HelloRequest(id=2)


def test_old_server_response_without_spans_yields_no_spans():
    from repro.observability.distributed import spans_from_wire

    line = json.dumps({
        "v": protocol.PROTOCOL_VERSION, "type": "evaluate_ok", "id": 2,
        "report": {"r": 1}, "source": "evaluated",
    })
    message = protocol.decode(line)
    assert message.spans is None
    assert spans_from_wire(message.spans) == []


def test_traced_request_roundtrips_spans_and_trace():
    request = EvaluateRequest(
        id=3, layer={}, mapping={},
        trace={"trace_id": "abc", "span_id": 4, "sampled": True},
    )
    assert protocol.decode(protocol.encode(request)) == request
    response = EvaluateResponse(
        id=3, report={}, source="evaluated",
        spans=[{"span_id": -1, "parent_id": None, "name": "serve.request",
                "start_us": 0.0, "duration_us": 5.0, "attributes": {},
                "track": 0}],
    )
    assert protocol.decode(protocol.encode(response)) == response


# --------------------------------------------------------------------- #
# Payload serde
# --------------------------------------------------------------------- #

def test_options_roundtrip_and_unknown_key_rejection():
    options = ModelOptions(combine_rule="paper", residency_extension=False)
    assert protocol.options_from_dict(protocol.options_to_dict(options)) == options
    with pytest.raises(ProtocolError, match="unknown ModelOptions field"):
        protocol.options_from_dict({"warp_factor": 9})


def test_report_roundtrip_is_exact_on_every_gated_metric():
    data = protocol.report_to_dict(REPORT)
    back = protocol.report_from_dict(json.loads(json.dumps(data)))
    for field in ("cc_ideal", "cc_spatial", "ss_overall", "preload",
                  "offload", "scenario", "total_cycles", "utilization",
                  "layer_name", "accelerator_name"):
        assert getattr(back, field) == getattr(REPORT, field), field
    assert len(back.served_stalls) == len(REPORT.served_stalls)
    for a, b in zip(back.served_stalls, REPORT.served_stalls):
        assert (a.operand, a.level, a.memory, a.ss) == (
            b.operand, b.level, b.memory, b.ss
        )


def test_energy_roundtrip_is_exact():
    engine = EvaluationEngine(CASE.accelerator)
    energy = engine.evaluate_energy(CASE.mapping)
    data = json.loads(json.dumps(protocol.energy_to_dict(energy)))
    back = protocol.energy_from_dict(data)
    assert back.mac_pj == energy.mac_pj
    assert back.memory_pj == energy.memory_pj
    assert back.counts.reads_bits == energy.counts.reads_bits
    assert back.counts.writes_bits == energy.counts.writes_bits
    assert back.counts.link_bits == energy.counts.link_bits
    assert back.counts.mac_ops == energy.counts.mac_ops
