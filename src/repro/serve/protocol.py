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
import typing
from typing import Any, Dict, List, Optional, Tuple, Type

from repro.core.report import LatencyReport
from repro.core.step1 import ModelOptions
from repro.core.step2 import ServedMemoryStall
from repro.energy.access_counts import AccessCounts
from repro.energy.energy_model import EnergyReport
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
    """Inverse of :func:`options_to_dict`; unknown keys are rejected."""
    extra = set(data).difference(_OPTION_FIELDS)
    if extra:
        raise ProtocolError(f"unknown ModelOptions field(s): {sorted(extra)}")
    return ModelOptions(**data)


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
    """Inverse of :func:`report_to_dict` (a slim report, like the batch core's)."""
    return LatencyReport(
        layer_name=str(data["layer_name"]),
        accelerator_name=str(data["accelerator_name"]),
        cc_ideal=float(data["cc_ideal"]),
        cc_spatial=int(data["cc_spatial"]),
        ss_overall=float(data["ss_overall"]),
        preload=float(data["preload"]),
        offload=float(data["offload"]),
        scenario=int(data["scenario"]),
        dtls=(),
        port_combinations={},
        served_stalls=tuple(
            ServedMemoryStall(
                operand=Operand(op),
                level=int(level),
                memory=str(memory),
                ss=float(ss),
                limiting_port=(str(port_mem), str(port_name)),
            )
            for op, level, memory, ss, port_mem, port_name
            in data.get("served_stalls", [])
        ),
        integration=None,
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
    """Inverse of :func:`energy_to_dict`."""
    counts = data["counts"]
    return EnergyReport(
        accelerator_name=str(data["accelerator_name"]),
        layer_name=str(data["layer_name"]),
        counts=AccessCounts(
            reads_bits={
                (str(m), Operand(op)): float(bits)
                for m, op, bits in counts.get("reads_bits", [])
            },
            writes_bits={
                (str(m), Operand(op)): float(bits)
                for m, op, bits in counts.get("writes_bits", [])
            },
            link_bits={str(m): float(b) for m, b in counts.get("link_bits", {}).items()},
            mac_ops=int(counts.get("mac_ops", 0)),
        ),
        memory_pj={str(m): float(pj) for m, pj in data.get("memory_pj", {}).items()},
        mac_pj=float(data["mac_pj"]),
    )


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
    sides tolerate its absence and ignore malformed payloads.
    """

    id: int
    layer: Dict[str, Any]
    mapping: Dict[str, Any]
    accelerator: Optional[Dict[str, Any]] = None
    options: Optional[Dict[str, Any]] = None
    validate: bool = True
    with_energy: bool = False
    trace: Optional[Dict[str, Any]] = None


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
    """

    id: int
    report: Dict[str, Any]
    energy: Optional[Dict[str, Any]] = None
    source: str = "evaluated"
    spans: Optional[List[Dict[str, Any]]] = None


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

#: The annotations read strictly, by JSON type name: a ``bool``, ``int``
#: (never a boolean), ``str`` or ``Dict`` field must arrive as that JSON
#: type; an ``Optional`` payload (``trace``, ``spans``, ``admin``, ...)
#: stays tolerant.
_JSON_NAMES = {bool: "boolean", int: "integer", str: "string", dict: "object"}


def _json_type(hint) -> Optional[type]:
    if hint in _JSON_NAMES:
        return hint
    return dict if typing.get_origin(hint) is dict else None


#: Per message class, its fields, each with the JSON type it must arrive
#: as (``None``: any). ``encode`` reads exactly these fields off the
#: message, ``decode`` keeps exactly these keys of a frame and checks
#: their types.
_FIELDS: Dict[Type, Dict[str, Optional[type]]] = {
    cls: {
        name: _json_type(hint) for name, hint in typing.get_type_hints(cls).items()
    }
    for cls in _TYPES.values()
}

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
    for field in _FIELDS[cls]:
        value = getattr(message, field)
        if value is not None:
            data[field] = value
    return (json.dumps(data, sort_keys=True) + "\n").encode("utf-8")


def decode(line) -> Any:
    """Parse one frame into its message dataclass.

    Raises :class:`ProtocolError` on malformed JSON, a missing/unknown
    type, a missing or non-integer version, a frame stamped with a
    *newer* protocol version — the version gate every peer applies
    before touching the payload — or a field whose value is not of its
    annotated type (a ``bool``, an ``int`` such as ``id``, a ``str`` or
    a ``Dict``), naming the field.
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
    cls = _TYPES.get(type_name)
    if cls is None:
        raise ProtocolError(f"unknown message type {type_name!r}")
    fields = _FIELDS[cls]
    kwargs = {k: v for k, v in data.items() if k in fields}
    for name, value in kwargs.items():
        kind = fields[name]
        # JSON values decode to exact types: a boolean is no integer here.
        if kind is not None and type(value) is not kind:
            raise ProtocolError(
                f"bad {type_name!r} frame: field {name!r} must be a JSON "
                f"{_JSON_NAMES[kind]}, got {type(value).__name__}"
            )
    try:
        return cls(**kwargs)
    except TypeError as exc:
        raise ProtocolError(f"bad {type_name!r} frame: {exc}") from exc


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
