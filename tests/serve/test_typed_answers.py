"""The client reads a daemon's answer with its annotated types.

``report_from_dict`` and ``energy_from_dict`` read every field through
:func:`repro.fields.expect`: a value of the wrong JSON kind is refused
with a :class:`ProtocolError` naming the field (``"cc_spatial": 16.7``
would otherwise be truncated to 16, ``"layer_name": 5`` read as
``"5"``), and a client call that gets such an answer raises it.
"""

import copy

import pytest

from repro import connect
from repro.dse.mapper import MapperConfig, TemporalMapper
from repro.engine import EvaluationEngine
from repro.hardware.presets import case_study_accelerator
from repro.serve import protocol
from repro.serve.protocol import EvaluateResponse, ProtocolError
from repro.workload.generator import dense_layer

PRESET = case_study_accelerator()
MAPPING = next(iter(TemporalMapper(
    PRESET.accelerator, PRESET.spatial_unrolling,
    MapperConfig(max_enumerated=4, samples=0),
).mappings(dense_layer(64, 128, 1200))))
_EVALUATION = EvaluationEngine.from_preset(PRESET).evaluate_many(
    [MAPPING], with_energy=True
)[0]
REPORT = protocol.report_to_dict(_EVALUATION.report)
ENERGY = protocol.energy_to_dict(_EVALUATION.energy)

#: One JSON value of each kind.
VALUES = {
    "null": None, "boolean": True, "integer": 3, "fraction": 1.5,
    "string": "x", "list": [], "object": {},
}
#: The kinds each field kind accepts.
ACCEPTS = {
    int: {"integer"}, float: {"integer", "fraction"}, str: {"string"},
    list: {"list"}, dict: {"object"}, "operand": set(),
}
STALL = ("operand", "level", "memory", "ss", "limiting_port[0]", "limiting_port[1]")
STALL_KINDS = ("operand", int, str, float, str, str)
ACCESS = ("memory", "operand", "bits")
ACCESS_KINDS = (str, "operand", float)


def _fields():
    """``(payload, path, name, kind)`` of every field of both answers:
    ``path`` is the key path into the payload, ``name`` the field a
    refusal names."""
    for key, kind in (
        ("layer_name", str), ("accelerator_name", str), ("cc_ideal", float),
        ("cc_spatial", int), ("ss_overall", float), ("preload", float),
        ("offload", float), ("scenario", int), ("served_stalls", list),
    ):
        yield "report", (key,), f"report.{key}", kind
    assert REPORT["served_stalls"]
    yield "report", ("served_stalls", 0), "report.served_stalls[0]", list
    for column, (name, kind) in enumerate(zip(STALL, STALL_KINDS)):
        yield "report", ("served_stalls", 0, column), f"report.served_stalls[0].{name}", kind
    for key, kind in (
        ("accelerator_name", str), ("layer_name", str), ("mac_pj", float),
        ("memory_pj", dict), ("counts", dict),
    ):
        yield "energy", (key,), f"energy.{key}", kind
    memory = next(iter(ENERGY["memory_pj"]))
    yield "energy", ("memory_pj", memory), f"energy.memory_pj[{memory}]", float
    for key, kind in (
        ("reads_bits", list), ("writes_bits", list), ("link_bits", dict),
        ("mac_ops", int),
    ):
        yield "energy", ("counts", key), f"energy.counts.{key}", kind
    for key in ("reads_bits", "writes_bits"):
        assert ENERGY["counts"][key]
        field = f"energy.counts.{key}[0]"
        yield "energy", ("counts", key, 0), field, list
        for column, (name, kind) in enumerate(zip(ACCESS, ACCESS_KINDS)):
            yield "energy", ("counts", key, 0, column), f"{field}.{name}", kind
    link = next(iter(ENERGY["counts"]["link_bits"]))
    yield "energy", ("counts", "link_bits", link), f"energy.counts.link_bits[{link}]", float


CASES = [
    (payload, path, name, value)
    for payload, path, name, kind in _fields()
    for value_kind, value in VALUES.items()
    if value_kind not in ACCEPTS[kind]
]


def _with(payload, path, value):
    data = copy.deepcopy(REPORT if payload == "report" else ENERGY)
    target = data
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return data


READERS = {"report": protocol.report_from_dict, "energy": protocol.energy_from_dict}


def test_well_typed_answers_read_back_equal():
    assert protocol.report_to_dict(protocol.report_from_dict(REPORT)) == REPORT
    assert protocol.energy_from_dict(ENERGY) == _EVALUATION.energy


@pytest.mark.parametrize(
    "payload, path, name, value", CASES,
    ids=[f"{name}={value!r}" for __, __, name, value in CASES],
)
def test_a_wrong_kind_is_refused_by_name(payload, path, name, value):
    with pytest.raises(ProtocolError) as refused:
        READERS[payload](_with(payload, path, value))
    assert str(refused.value).startswith(f"{name} must be "), str(refused.value)
    assert ", got " in str(refused.value)


def test_integers_read_as_floats_come_back_floats():
    data = dict(REPORT, cc_ideal=12, preload=3)
    report = protocol.report_from_dict(data)
    assert (type(report.cc_ideal), type(report.preload)) == (float, float)


def test_a_missing_field_is_refused_by_name():
    data = dict(REPORT)
    del data["cc_ideal"]
    with pytest.raises(ProtocolError, match="report.cc_ideal is missing"):
        protocol.report_from_dict(data)


def test_client_calls_refuse_a_malformed_answer(server, monkeypatch):
    bad = dict(REPORT, cc_spatial=16.7)
    with connect(server.url) as client:
        def answer(message):
            return EvaluateResponse(id=message.id, report=bad, energy=ENERGY)

        monkeypatch.setattr(client._transport, "request", answer)
        monkeypatch.setattr(
            client._transport, "request_many", lambda messages: [answer(m) for m in messages]
        )
        for call in (
            lambda: client.evaluate(MAPPING),
            lambda: client.evaluate_many([MAPPING]),
            lambda: client.evaluate_many([MAPPING], with_energy=True),
            lambda: client.evaluate_energy(MAPPING),
        ):
            with pytest.raises(ProtocolError, match="report.cc_spatial must be an integer"):
                call()
        assert len(client.cache) == 0
