"""Stable structural fingerprints of model inputs.

Ledger rows, the verify corpus and the serve daemon's result store name
design points by canonical fingerprints of (accelerator, mapping,
options); the evaluation caches key on the accelerator and options
fingerprints plus the structural ``Mapping.cache_key``, which composes
the layer and spatial fingerprints memoized here. Two objects that are equal
by value — however they were constructed (preset builder, serde round
trip, ``dataclasses.replace`` chain) — must produce the same fingerprint,
and any field mutation must change it. Python's built-in ``hash`` cannot
provide this (it is salted per process and undefined for the dicts inside
the hardware description), so fingerprints are derived from a canonical
JSON encoding instead:

* dataclasses become ``[class name, [[field, value], ...]]`` in field
  declaration order; a class may opt cosmetic fields out of its identity
  by listing them in a ``__fingerprint_exclude__`` class attribute (e.g.
  ``LayerSpec.name`` — two layers that differ only in label are the same
  design point and must share cache entries);
* enums collapse to their values;
* sets/frozensets and dict items are sorted by their canonical encoding,
  so construction order never leaks into the payload;
* everything else must already be a JSON scalar (or is ``repr``-ed as a
  last resort).

The encoding is hashed with SHA-256; the hex digest is the fingerprint.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
from typing import Any, Callable, Dict, Sequence


#: Types whose values are their own payload (exact types, not subclasses).
_SCALAR_TYPES = frozenset({str, int, float, bool, type(None)})
#: Per type: the function encoding its instances (see :func:`_encoder_for`).
_ENCODERS: Dict[type, Callable[[Any], Any]] = {}


def canonical_payload(obj: Any) -> Any:
    """Recursively convert ``obj`` into a JSON-serializable canonical form."""
    cls = type(obj)
    # Exact builtin types first: they are neither enums nor dataclasses.
    if cls in _SCALAR_TYPES:
        return obj
    if cls is tuple or cls is list:
        return [canonical_payload(v) for v in obj]
    encode = _ENCODERS.get(cls)
    if encode is None:
        encode = _ENCODERS[cls] = _encoder_for(cls)
    return encode(obj)


def _encoder_for(cls: type) -> Callable[[Any], Any]:
    """How instances of ``cls`` are encoded, decided once per type."""
    # Enums before dataclasses: str-based enums are not dataclasses, but
    # IntEnum-style members could otherwise take a wrong path.
    if issubclass(cls, enum.Enum):
        members: Dict[Any, list] = {}

        def encode_member(member):
            payload = members.get(member)
            if payload is None:
                payload = members[member] = [cls.__name__, member.value]
            return payload

        return encode_member
    # ``cls`` is the type of a value: a dataclass *class* passed as a value
    # has a metaclass here, which is never a dataclass.
    if dataclasses.is_dataclass(cls):
        excluded = getattr(cls, "__fingerprint_exclude__", ())
        names = tuple(
            f.name for f in dataclasses.fields(cls) if f.name not in excluded
        )
        return lambda obj: [
            cls.__name__,
            [[name, canonical_payload(getattr(obj, name))] for name in names],
        ]
    if issubclass(cls, (set, frozenset)):
        return lambda obj: sorted((canonical_payload(v) for v in obj), key=_ordering)
    if issubclass(cls, dict):
        return _dict_payload
    if issubclass(cls, (list, tuple)):
        return lambda obj: [canonical_payload(v) for v in obj]
    if issubclass(cls, (bool, int, float, str)):
        return lambda obj: obj
    return repr


def _dict_payload(obj: dict) -> list:
    items = [[canonical_payload(k), canonical_payload(v)] for k, v in obj.items()]
    items.sort(key=lambda kv: _ordering(kv[0]))
    return items


def _ordering(payload: Any) -> str:
    """Total order over canonical payloads (their JSON encoding)."""
    return json.dumps(payload, sort_keys=True)


def memoized_fingerprint(obj: Any) -> str:
    """``stable_fingerprint(obj)``, cached on the object itself.

    Only safe for immutable objects (frozen dataclasses). Hot paths use
    this to fingerprint sub-structures that recur across many composite
    fingerprints — e.g. the layer and spatial unrolling shared by every
    mapping of one search — so each is canonicalized and hashed once.
    Objects that reject attribute assignment (slots, builtins) are
    fingerprinted without memoization.
    """
    cached = getattr(obj, "_fingerprint", None)
    if cached is None:
        cached = stable_fingerprint(obj)
        try:
            object.__setattr__(obj, "_fingerprint", cached)
        except (AttributeError, TypeError):
            pass
    return cached


def stable_fingerprint(*objs: Any) -> str:
    """SHA-256 hex digest of the canonical encoding of ``objs``."""
    payload: Sequence[Any] = [canonical_payload(o) for o in objs]
    encoded = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()
