"""The line-framed JSON wire protocol of the evaluation service.

One message per ``\\n``-terminated line, each a JSON object carrying:

* ``"v"`` — the protocol schema version. A peer speaking a *newer*
  version is rejected with a clear :class:`ProtocolError` (exactly like
  the run-ledger schema gate); older versions within the same major
  surface are tolerated field-by-field.
* ``"type"`` — the message type (one of the dataclasses below).
* ``"id"`` — the request id; the matching response echoes it, so
  responses may complete out of order (the server answers store hits
  while kernels run, and coalesces, so they do).

The payload serde deliberately reuses the repo's canonical schemas —
:mod:`repro.hardware.serde` for accelerators/presets,
:mod:`repro.workload.serde` / :mod:`repro.mapping.serde` for layers and
mappings — so a design point's wire form is byte-identical to its corpus
and config form, and :func:`~repro.fingerprint.stable_fingerprint`
survives the round trip (that invariant is what makes the server's
content-addressed store correct). Latency reports travel *slim*: all
Fig.-1 numbers plus the per-unit-memory stall anatomy, but no DTL
objects — the same shape the vectorized batch core produces, and
numerically exact because Python's JSON float serde is repr-based.

This module is shared verbatim by the server (:mod:`repro.serve.server`),
the blocking client (:mod:`repro.serve.client`) and the CLI; it imports
neither, so the protocol surface can be vendored by other clients.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any, Dict, Optional, Tuple, Type

from repro.core.report import LatencyReport
from repro.core.step1 import ModelOptions
from repro.core.step2 import ServedMemoryStall
from repro.energy.access_counts import AccessCounts
from repro.energy.energy_model import EnergyReport
from repro.fields import expect, fields_of, read_fields
from repro.workload.operand import Operand

#: Version of the message schema this build speaks. Bump on any change
#: that an older peer could misread; peers reject anything newer.
PROTOCOL_VERSION = 1

#: Minor revision within the major schema: bumped for purely additive,
#: optional fields (``trace`` / ``spans`` / ``admin``) that an older
#: peer can safely drop. Travels as a separate ``"minor"`` key so the
#: ``"v"`` gate above keeps its exact v1 semantics — an old decoder
#: discards ``"minor"`` as an unknown field, a new decoder tolerates
#: its absence.
PROTOCOL_MINOR = 1


class ProtocolError(ValueError):
    """Malformed frame, unknown message type, or newer protocol version."""


# --------------------------------------------------------------------- #
# Payload serde: options / reports
# --------------------------------------------------------------------- #

_OPTION_FIELDS = tuple(f.name for f in dataclasses.fields(ModelOptions))


def options_to_dict(options: ModelOptions) -> Dict[str, Any]:
    """Serialize model options (a flat dataclass of scalars)."""
    return {name: getattr(options, name) for name in _OPTION_FIELDS}


def options_from_dict(data: Dict[str, Any]) -> ModelOptions:
    """Inverse of :func:`options_to_dict`; an unknown key or a mistyped
    field (``"compute_edges": "false"``) is a :class:`ProtocolError`."""
    extra = set(data).difference(_OPTION_FIELDS)
    if extra:
        raise ProtocolError(f"unknown ModelOptions field(s): {sorted(extra)}")
    return read_fields(ModelOptions, data, ProtocolError)


def report_to_dict(report: LatencyReport) -> Dict[str, Any]:
    """Serialize a latency report in slim form (numbers + stall anatomy).

    DTL objects and port combinations do not travel; parity on the wire
    is defined by the gated metrics (exactly the fields the ledger and
    ``batch_scalar_parity`` compare), all of which round-trip exactly.
    """
    return {
        "layer_name": report.layer_name,
        "accelerator_name": report.accelerator_name,
        "cc_ideal": report.cc_ideal,
        "cc_spatial": report.cc_spatial,
        "ss_overall": report.ss_overall,
        "preload": report.preload,
        "offload": report.offload,
        "scenario": report.scenario,
        "served_stalls": [
            [s.operand.value, s.level, s.memory, s.ss,
             s.limiting_port[0], s.limiting_port[1]]
            for s in report.served_stalls
        ],
    }


def report_from_dict(data: Dict[str, Any]) -> LatencyReport:
    """Inverse of :func:`report_to_dict` (a slim report, like the batch core's).

    Every field is read by :func:`repro.fields.expect`, so a value of
    the wrong JSON kind (``"cc_spatial": 16.7``, ``"cc_ideal": "12"``) or
    a missing field is a :class:`ProtocolError` naming it, never a
    coerced answer.
    """
    try:
        stalls = expect(data.get("served_stalls", []), list, "report.served_stalls")
        return LatencyReport(
            layer_name=expect(data["layer_name"], str, "report.layer_name"),
            accelerator_name=expect(
                data["accelerator_name"], str, "report.accelerator_name"
            ),
            cc_ideal=expect(data["cc_ideal"], float, "report.cc_ideal"),
            cc_spatial=expect(data["cc_spatial"], int, "report.cc_spatial"),
            ss_overall=expect(data["ss_overall"], float, "report.ss_overall"),
            preload=expect(data["preload"], float, "report.preload"),
            offload=expect(data["offload"], float, "report.offload"),
            scenario=expect(data["scenario"], int, "report.scenario"),
            dtls=(),
            port_combinations={},
            served_stalls=tuple(
                _row(_stall, 6, row, "report.served_stalls", i)
                for i, row in enumerate(stalls)
            ),
            integration=None,
        )
    except KeyError as exc:
        raise ProtocolError(f"report.{exc.args[0]} is missing") from None
    except TypeError as exc:
        raise ProtocolError(str(exc)) from None


def _row(read, width: int, row: Any, field: str, i: int):
    """``read(*row)`` for entry ``i`` of the list ``field``, a list of
    ``width`` values; a refusal names the entry and its column."""
    values = expect(row, list, field, i)
    if len(values) != width:
        raise TypeError(f"{field}[{i}] must be a list of {width} values, got {row!r:.40}")
    try:
        return read(*values)
    except TypeError as exc:
        raise TypeError(f"{field}[{i}].{exc}") from None


def _operand(value: Any) -> Operand:
    if type(value) is str and value in _OPERANDS:
        return _OPERANDS[value]
    raise TypeError(f"operand must be one of {sorted(_OPERANDS)}, got {value!r:.40}")


_OPERANDS = {operand.value: operand for operand in Operand}


def _stall(operand, level, memory, ss, port_memory, port_name) -> ServedMemoryStall:
    """One ``served_stalls`` row of :func:`report_to_dict`."""
    return ServedMemoryStall(
        operand=_operand(operand),
        level=expect(level, int, "level"),
        memory=expect(memory, str, "memory"),
        ss=expect(ss, float, "ss"),
        limiting_port=(
            expect(port_memory, str, "limiting_port[0]"),
            expect(port_name, str, "limiting_port[1]"),
        ),
    )


def energy_to_dict(energy: EnergyReport) -> Dict[str, Any]:
    """Serialize an energy report (tuple-keyed access counts flattened)."""
    counts = energy.counts
    return {
        "accelerator_name": energy.accelerator_name,
        "layer_name": energy.layer_name,
        "mac_pj": energy.mac_pj,
        "memory_pj": dict(energy.memory_pj),
        "counts": {
            "reads_bits": [
                [m, op.value, bits] for (m, op), bits in sorted(
                    counts.reads_bits.items(), key=lambda kv: (kv[0][0], kv[0][1].value)
                )
            ],
            "writes_bits": [
                [m, op.value, bits] for (m, op), bits in sorted(
                    counts.writes_bits.items(), key=lambda kv: (kv[0][0], kv[0][1].value)
                )
            ],
            "link_bits": dict(counts.link_bits),
            "mac_ops": counts.mac_ops,
        },
    }


def energy_from_dict(data: Dict[str, Any]) -> EnergyReport:
    """Inverse of :func:`energy_to_dict`, read field by field like
    :func:`report_from_dict`."""
    try:
        counts = expect(data["counts"], dict, "energy.counts")
        return EnergyReport(
            accelerator_name=expect(
                data["accelerator_name"], str, "energy.accelerator_name"
            ),
            layer_name=expect(data["layer_name"], str, "energy.layer_name"),
            counts=AccessCounts(
                reads_bits=_bits(counts.get("reads_bits", []), "energy.counts.reads_bits"),
                writes_bits=_bits(
                    counts.get("writes_bits", []), "energy.counts.writes_bits"
                ),
                link_bits=_numbers(counts.get("link_bits", {}), "energy.counts.link_bits"),
                mac_ops=expect(counts.get("mac_ops", 0), int, "energy.counts.mac_ops"),
            ),
            memory_pj=_numbers(data.get("memory_pj", {}), "energy.memory_pj"),
            mac_pj=expect(data["mac_pj"], float, "energy.mac_pj"),
        )
    except KeyError as exc:
        raise ProtocolError(f"energy.{exc.args[0]} is missing") from None
    except TypeError as exc:
        raise ProtocolError(str(exc)) from None


def _bits(rows: Any, field: str) -> Dict[Tuple[str, Operand], float]:
    """``[[memory, operand, bits], ...]`` as the access-count map."""
    return dict(
        _row(_access, 3, row, field, i) for i, row in enumerate(expect(rows, list, field))
    )


def _access(memory, operand, bits) -> Tuple[Tuple[str, Operand], float]:
    return (expect(memory, str, "memory"), _operand(operand)), expect(bits, float, "bits")


def _numbers(data: Any, field: str) -> Dict[str, float]:
    """A JSON object of numbers, each read as a float."""
    return {
        name: expect(value, float, field, name)
        for name, value in expect(data, dict, field).items()
    }


# --------------------------------------------------------------------- #
# Messages
# --------------------------------------------------------------------- #

@dataclasses.dataclass(frozen=True)
class HelloRequest:
    """Handshake: the client announces itself and asks for the server's machine."""

    id: int
    client: str = "repro"


@dataclasses.dataclass(frozen=True)
class HelloResponse:
    """Handshake reply: protocol version plus the server's preset/options.

    ``preset`` is a :func:`repro.hardware.serde.preset_to_dict` payload
    (accelerator + native spatial unrolling) — everything a client needs
    to run a mapper search against the served machine without any local
    configuration. ``admin`` is the daemon's HTTP admin URL when an
    admin listener is up (v1.1, optional — absent from old servers).
    """

    id: int
    protocol: int
    server: str
    preset: Dict[str, Any]
    options: Dict[str, Any]
    admin: Optional[str] = None


@dataclasses.dataclass(frozen=True)
class EvaluateRequest:
    """Evaluate one mapping; the payload is self-contained.

    ``accelerator``/``options`` may be omitted (``None``) to evaluate on
    the server's own machine — the common case, and cheaper to parse.

    ``trace`` (v1.1, optional) carries the caller's trace context —
    see :func:`repro.observability.distributed.inject_trace`. Both
    sides tolerate its absence and ignore malformed payloads (``Any``).
    """

    id: int
    layer: Dict[str, Any]
    mapping: Dict[str, Any]
    accelerator: Optional[Dict[str, Any]] = None
    options: Optional[Dict[str, Any]] = None
    validate: bool = True
    with_energy: bool = False
    trace: Any = None


@dataclasses.dataclass(frozen=True)
class EvaluateResponse:
    """A successful evaluation: the slim report (+ energy), with provenance.

    ``source`` says how the answer was produced: ``"evaluated"`` (kernel
    ran), ``"store"`` (hit on a result stored this boot), ``"warm"``
    (hit on a row warm-started from a prior ledger), or ``"coalesced"``
    (attached to another request's in-flight evaluation).

    ``spans`` (v1.1, optional) is the server-side span subtree for this
    request — present only when the request carried a sampled ``trace``
    context; see :func:`repro.observability.distributed.spans_to_wire`.
    A client drops malformed spans rather than fail (``Any``).
    """

    id: int
    report: Dict[str, Any]
    energy: Optional[Dict[str, Any]] = None
    source: str = "evaluated"
    spans: Any = None


@dataclasses.dataclass(frozen=True)
class StatsRequest:
    """Ask for the server's counters (health/test surface)."""

    id: int


@dataclasses.dataclass(frozen=True)
class StatsResponse:
    """Server counters: requests, evaluations, coalesced, warm hits, ..."""

    id: int
    stats: Dict[str, float]


@dataclasses.dataclass(frozen=True)
class ShutdownRequest:
    """Ask the server to drain and exit (the programmatic SIGINT)."""

    id: int


@dataclasses.dataclass(frozen=True)
class ShutdownResponse:
    """Acknowledges a shutdown request; the server drains after replying."""

    id: int


@dataclasses.dataclass(frozen=True)
class ErrorResponse:
    """Any failed request: the exception class name and its message.

    ``error`` is the *kind* a client dispatches on (``"MappingError"``,
    ``"ProtocolError"``, ``"ServerDraining"``, ``"SerdeError"``, ...);
    ``message`` is human-readable.
    """

    id: int
    error: str
    message: str


_TYPES: Dict[str, Type] = {
    "hello": HelloRequest,
    "hello_ok": HelloResponse,
    "evaluate": EvaluateRequest,
    "evaluate_ok": EvaluateResponse,
    "stats": StatsRequest,
    "stats_ok": StatsResponse,
    "shutdown": ShutdownRequest,
    "shutdown_ok": ShutdownResponse,
    "error": ErrorResponse,
}
_TYPE_OF = {cls: name for name, cls in _TYPES.items()}

#: Each message's field names, which ``encode`` reads; building it
#: resolves every message's field checks at import.
_NAMES = {cls: tuple(name for name, *__ in fields_of(cls)) for cls in _TYPES.values()}

#: Message classes a server accepts (everything else is a client-bound
#: response; receiving one as a request is a protocol error).
REQUEST_TYPES: Tuple[Type, ...] = (
    HelloRequest, EvaluateRequest, StatsRequest, ShutdownRequest
)


def encode(message) -> bytes:
    """One wire frame: the message as a ``\\n``-terminated JSON line.

    The frame is built by reading the message's fields, not by
    :func:`dataclasses.asdict`, so nothing is copied: every field must
    hold plain JSON values (dicts, lists, strings, numbers, booleans) —
    never a nested dataclass. ``tests/serve/test_protocol.py`` pins the
    frames byte-identical to the ``asdict`` form.
    """
    cls = type(message)
    name = _TYPE_OF.get(cls)
    if name is None:
        raise ProtocolError(f"not a protocol message: {cls.__name__}")
    data = {"v": PROTOCOL_VERSION, "minor": PROTOCOL_MINOR, "type": name}
    # None-valued fields stay off the wire: every Optional field of every
    # message defaults to None, so decode restores them, frames shrink,
    # and additive fields (trace/spans/admin) are genuinely *absent* —
    # not null — when unused, which is what forward-compat tests pin.
    for name in _NAMES[cls]:
        value = getattr(message, name)
        if value is not None:
            data[name] = value
    return (json.dumps(data, sort_keys=True) + "\n").encode("utf-8")


def decode(line) -> Any:
    """Parse one frame into its message dataclass.

    Raises :class:`ProtocolError` on malformed JSON, a missing/unknown
    type, a missing or non-integer version, a frame stamped with a
    *newer* protocol version — the version gate every peer applies
    before touching the payload — or a field that
    :func:`repro.fields.read_fields` refuses (a boolean ``id``, a string
    ``validate``, a null ``layer``; ``Any`` fields are unchecked), naming
    the field.
    """
    if isinstance(line, bytes):
        line = line.decode("utf-8", errors="replace")
    try:
        data = json.loads(line)
    except (json.JSONDecodeError, RecursionError) as exc:  # too deeply nested
        raise ProtocolError(f"invalid JSON frame: {exc}") from exc
    if not isinstance(data, dict):
        raise ProtocolError(f"frame must be a JSON object, got {type(data).__name__}")
    version = data.pop("v", None)
    data.pop("minor", None)  # additive revision — informational only
    if version is None:
        raise ProtocolError("frame has no protocol version field 'v'")
    if not isinstance(version, int) or isinstance(version, bool):
        raise ProtocolError(f"protocol version 'v' must be an integer, got {version!r}")
    if version > PROTOCOL_VERSION:
        raise ProtocolError(
            f"peer speaks protocol v{version}; this build speaks at most "
            f"v{PROTOCOL_VERSION} — upgrade this side or downgrade the peer"
        )
    type_name = data.pop("type", None)
    cls = _TYPES.get(type_name) if isinstance(type_name, str) else None
    if cls is None:
        raise ProtocolError(f"unknown message type {type_name!r}")
    try:
        return read_fields(cls, data, ProtocolError)
    except ProtocolError as exc:
        raise ProtocolError(f"bad {type_name!r} frame: {exc}") from None


__all__ = [
    "PROTOCOL_MINOR",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "REQUEST_TYPES",
    "ErrorResponse",
    "EvaluateRequest",
    "EvaluateResponse",
    "HelloRequest",
    "HelloResponse",
    "ShutdownRequest",
    "ShutdownResponse",
    "StatsRequest",
    "StatsResponse",
    "decode",
    "encode",
    "energy_from_dict",
    "energy_to_dict",
    "options_from_dict",
    "options_to_dict",
    "report_from_dict",
    "report_to_dict",
]
