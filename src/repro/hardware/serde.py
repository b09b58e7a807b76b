"""JSON (de)serialization of accelerator descriptions.

Lets users define machines in plain JSON config files and round-trip the
presets. The schema mirrors the object model::

    {
      "name": "my-chip",
      "mac_array": {"rows": 16, "cols": 8, "macs_per_pe": 2,
                     "mac_energy_pj": 0.3},
      "memories": [
        {"name": "GB", "size_bits": 8388608,
         "ports": [{"name": "rd", "direction": "read", "bandwidth": 128},
                    {"name": "wr", "direction": "write", "bandwidth": 128}],
         "double_buffered": false, "instances": 1,
         "serves": ["W", "I", "O"],
         "allocation": {"W.tl": "rd", "I.tl": "rd",
                         "O.tl": "rd", "O.fl": "wr"}}
      ],
      "chains": {"W": ["W-Reg", "W-LB", "GB"], ...},
      "stall_overlap": [["GB"], ["W-LB", "I-LB"]],
      "offchip_bandwidth": null,
      "spatial_unrolling": {"K": 16, "B": 8, "C": 2}
    }

``allocation`` may be omitted ("auto") to use first-fitting-port rules.
Every field must have its JSON type: ``16.5``, ``"128"`` and ``"false"``
are refused, not coerced, and so are a string where a list belongs
(``"serves": "IOW"``) or a list where an object belongs. A key the
schema does not know is an error, so a misspelled field never reads as
its default, and every ``stall_overlap`` name must be a memory.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Sequence, Tuple

from repro.hardware.accelerator import Accelerator, StallOverlapConfig
from repro.hardware.hierarchy import MemoryHierarchy, MemoryLevel, auto_allocate
from repro.hardware.mac_array import MacArray
from repro.hardware.memory import MemoryInstance
from repro.hardware.port import EndpointKind, Port, PortDirection
from repro.hardware.presets import Preset
from repro.workload.dims import LoopDim
from repro.workload.operand import Operand


class SerdeError(ValueError):
    """Malformed serialized input: an accelerator, layer or mapping dict."""


def strict_int(value: Any, field: str, key: Any = None) -> int:
    """``value`` if it is an integer, else :class:`TypeError` naming
    ``field`` (``field[key]`` for an entry of a collection).

    Sizes must arrive as integers: ``int()`` would truncate ``16.5`` to 16
    and coerce ``true`` or ``"16"``, answering for a problem nobody asked.
    """
    if type(value) is int:  # not a bool, which subclasses int
        return value
    raise _refused(value, "an integer", field, key)


def strict_float(value: Any, field: str, key: Any = None) -> float:
    """``value`` as a float if it is a JSON number (int or float), else
    :class:`TypeError` naming the field: ``float()`` would read ``"128"``
    and ``true``."""
    if type(value) in (int, float):
        return float(value)
    raise _refused(value, "a number", field, key)


def strict_bool(value: Any, field: str, key: Any = None) -> bool:
    """``value`` if it is a boolean, else :class:`TypeError` naming the
    field: ``bool()`` reads the string ``"false"`` as true."""
    if type(value) is bool:
        return value
    raise _refused(value, "a boolean", field, key)


#: How :func:`strict_type` names each JSON type it checks.
_JSON_TYPES = {str: "a string", list: "a list", dict: "an object"}


def strict_type(value: Any, json_type: type, field: str, key: Any = None) -> Any:
    """``value`` if it is a ``json_type`` (``str``, ``list`` or ``dict``),
    else :class:`TypeError` naming the field: ``str()`` would read ``5``
    as ``"5"``, iterating ``"IOW"`` would read three operands, and a list
    where an object belongs would fail with ``'list' object has no
    attribute 'items'``."""
    if type(value) is json_type:
        return value
    raise _refused(value, _JSON_TYPES[json_type], field, key)


def _refused(value: Any, kind: str, field: str, key: Any) -> TypeError:
    name = field if key is None else f"{field}[{key}]"
    return TypeError(f"{name} must be {kind}, got {value!r}")


def check_known(what: str, keys: Iterable, allowed: Sequence[str]) -> None:
    """:class:`ValueError` naming the first of ``keys`` not in ``allowed``:
    a misspelled field must not read as its default."""
    for key in keys:
        if key not in allowed:
            raise ValueError(f"unknown {what} {key!r}; expected one of {list(allowed)}")


_ACCELERATOR_KEYS = (
    "name", "mac_array", "memories", "chains", "stall_overlap", "offchip_bandwidth",
)
_MAC_ARRAY_KEYS = ("rows", "cols", "macs_per_pe", "mac_energy_pj")
_MEMORY_KEYS = (
    "name", "size_bits", "ports", "double_buffered", "instances",
    "read_energy_pj_per_bit", "write_energy_pj_per_bit", "link_energy_pj_per_bit",
    "min_burst_bits", "serves", "allocation",
)
_PORT_KEYS = ("name", "direction", "bandwidth")


# --------------------------------------------------------------------- #
# Serialization
# --------------------------------------------------------------------- #

def preset_to_dict(preset: Preset) -> Dict[str, Any]:
    """Serialize a preset (accelerator + spatial unrolling)."""
    data = accelerator_to_dict(preset.accelerator)
    data["spatial_unrolling"] = {
        dim.value: factor for dim, factor in preset.spatial_unrolling.items()
    }
    return data


def accelerator_to_dict(accelerator: Accelerator) -> Dict[str, Any]:
    """Serialize an accelerator to a JSON-compatible dict."""
    array = accelerator.mac_array
    memories: List[Dict[str, Any]] = []
    for level in accelerator.hierarchy.unique_levels():
        inst = level.instance
        memories.append(
            {
                "name": inst.name,
                "size_bits": inst.size_bits,
                "ports": [
                    {
                        "name": p.name,
                        "direction": p.direction.value,
                        "bandwidth": p.bandwidth,
                    }
                    for p in inst.ports
                ],
                "double_buffered": inst.double_buffered,
                "instances": inst.instances,
                "read_energy_pj_per_bit": inst.read_energy_pj_per_bit,
                "write_energy_pj_per_bit": inst.write_energy_pj_per_bit,
                "link_energy_pj_per_bit": inst.link_energy_pj_per_bit,
                "min_burst_bits": inst.min_burst_bits,
                "serves": sorted(op.value for op in level.serves),
                "allocation": {
                    f"{op.value}.{kind.value}": port
                    for (op, kind), port in sorted(
                        level.allocation.items(), key=lambda kv: str(kv[0])
                    )
                },
            }
        )
    chains = {
        op.value: [lvl.name for lvl in accelerator.hierarchy.levels(op)]
        for op in Operand
    }
    return {
        "name": accelerator.name,
        "mac_array": {
            "rows": array.rows,
            "cols": array.cols,
            "macs_per_pe": array.macs_per_pe,
            "mac_energy_pj": array.mac_energy_pj,
        },
        "memories": memories,
        "chains": chains,
        "stall_overlap": [
            sorted(group) for group in accelerator.stall_overlap.concurrent_groups
        ],
        "offchip_bandwidth": accelerator.offchip_bandwidth,
    }


def preset_to_json(preset: Preset, indent: int = 2) -> str:
    """JSON string of a preset."""
    return json.dumps(preset_to_dict(preset), indent=indent)


# --------------------------------------------------------------------- #
# Deserialization
# --------------------------------------------------------------------- #

def _port_from_dict(data: Any, index: int) -> Port:
    check_known("port field", strict_type(data, dict, "ports", index), _PORT_KEYS)
    return Port(
        strict_type(data["name"], str, f"ports[{index}].name"),
        PortDirection(strict_type(data["direction"], str, f"ports[{index}].direction")),
        strict_float(data["bandwidth"], "bandwidth"),
    )


def _memory_from_dict(data: Dict[str, Any]) -> Tuple[MemoryInstance, MemoryLevel]:
    try:
        check_known("memory field", data, _MEMORY_KEYS)
        allocation_spec = data.get("allocation", "auto")
        if allocation_spec != "auto" and allocation_spec is not None:
            strict_type(allocation_spec, dict, "allocation")
        energies = {
            key: strict_float(data.get(key, 0.0), key)
            for key in (
                "read_energy_pj_per_bit", "write_energy_pj_per_bit",
                "link_energy_pj_per_bit",
            )
        }
        instance = MemoryInstance(
            name=strict_type(data["name"], str, "name"),
            size_bits=strict_int(data["size_bits"], "size_bits"),
            ports=tuple(
                _port_from_dict(p, i)
                for i, p in enumerate(strict_type(data["ports"], list, "ports"))
            ),
            double_buffered=strict_bool(
                data.get("double_buffered", False), "double_buffered"
            ),
            instances=strict_int(data.get("instances", 1), "instances"),
            min_burst_bits=strict_int(
                data.get("min_burst_bits", 1), "min_burst_bits"
            ),
            **energies,
        )
        serves = frozenset(
            Operand(strict_type(s, str, "serves", i))
            for i, s in enumerate(strict_type(data["serves"], list, "serves"))
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise SerdeError(f"bad memory entry {data.get('name', '?')!r}: {exc}") from exc

    if allocation_spec == "auto" or allocation_spec is None:
        level = auto_allocate(instance, serves)
    else:
        allocation = {}
        ports = {port.name for port in instance.ports}
        for key, port_name in allocation_spec.items():
            op_str, __, kind_str = key.partition(".")
            try:
                endpoint = (Operand(op_str), EndpointKind(kind_str))
            except ValueError as exc:
                raise SerdeError(f"bad allocation key {key!r}") from exc
            if strict_type(port_name, str, "allocation", key) not in ports:
                raise SerdeError(
                    f"memory {instance.name!r} has no port {port_name!r} "
                    f"for allocation[{key}]"
                )
            allocation[endpoint] = port_name
        level = MemoryLevel(instance, serves, allocation)
    return instance, level


def accelerator_from_dict(data: Dict[str, Any]) -> Accelerator:
    """Deserialize an accelerator from a dict (see module docstring).

    Any malformed part of ``data`` — a missing field, a wrong type, an
    unknown operand or port direction, a value that is not a number —
    raises :class:`SerdeError`.
    """
    if not isinstance(data, dict):
        raise SerdeError(
            "accelerator description must be a JSON object, "
            f"got {type(data).__name__}"
        )
    try:
        check_known("accelerator field", data, _ACCELERATOR_KEYS)
        array_spec = strict_type(data["mac_array"], dict, "mac_array")
        check_known("mac_array field", array_spec, _MAC_ARRAY_KEYS)
        mac_array = MacArray(
            rows=strict_int(array_spec["rows"], "mac_array.rows"),
            cols=strict_int(array_spec["cols"], "mac_array.cols"),
            macs_per_pe=strict_int(
                array_spec.get("macs_per_pe", 1), "mac_array.macs_per_pe"
            ),
            mac_energy_pj=strict_float(
                array_spec.get("mac_energy_pj", 0.0), "mac_array.mac_energy_pj"
            ),
        )
        levels: Dict[str, MemoryLevel] = {}
        for i, mem_data in enumerate(strict_type(data["memories"], list, "memories")):
            __, level = _memory_from_dict(strict_type(mem_data, dict, "memories", i))
            if level.name in levels:
                raise SerdeError(f"duplicate memory name {level.name!r}")
            levels[level.name] = level
        chains = {}
        for op_str, names in strict_type(data["chains"], dict, "chains").items():
            operand = Operand(op_str)
            chain = []
            for j, name in enumerate(strict_type(names, list, "chains", op_str)):
                if strict_type(name, str, f"chains[{op_str}]", j) not in levels:
                    raise SerdeError(f"chain references unknown memory {name!r}")
                chain.append(levels[name])
            chains[operand] = tuple(chain)
        hierarchy = MemoryHierarchy(chains)
        groups = strict_type(data.get("stall_overlap", []), list, "stall_overlap")
        for i, group in enumerate(groups):
            for j, name in enumerate(strict_type(group, list, "stall_overlap", i)):
                if strict_type(name, str, f"stall_overlap[{i}]", j) not in levels:
                    raise SerdeError(
                        f"stall_overlap[{i}] names unknown memory {name!r}"
                    )
        overlap = StallOverlapConfig(tuple(frozenset(group) for group in groups))
        offchip = data.get("offchip_bandwidth")
        return Accelerator(
            name=strict_type(data["name"], str, "name"),
            mac_array=mac_array,
            hierarchy=hierarchy,
            stall_overlap=overlap,
            offchip_bandwidth=(
                strict_float(offchip, "offchip_bandwidth")
                if offchip is not None else None
            ),
        )
    except SerdeError:
        raise
    except KeyError as exc:
        raise SerdeError(f"missing required field: {exc}") from exc
    except (AttributeError, TypeError, ValueError) as exc:
        raise SerdeError(f"malformed accelerator description: {exc}") from exc


def preset_from_dict(data: Dict[str, Any]) -> Preset:
    """Deserialize a preset (accelerator + spatial unrolling)."""
    if not isinstance(data, dict):
        raise SerdeError(
            f"preset description must be a JSON object, got {type(data).__name__}"
        )
    spatial_spec = data.get("spatial_unrolling", {})
    accelerator = accelerator_from_dict(
        {key: value for key, value in data.items() if key != "spatial_unrolling"}
    )
    try:
        spatial = {
            LoopDim(dim): strict_int(f, "spatial_unrolling", dim)
            for dim, f in strict_type(spatial_spec, dict, "spatial_unrolling").items()
        }
    except (TypeError, ValueError) as exc:
        raise SerdeError(f"bad spatial_unrolling {spatial_spec!r}: {exc}") from exc
    return Preset(accelerator, spatial)


def preset_from_json(text: str) -> Preset:
    """Deserialize a preset from a JSON string."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SerdeError(f"invalid JSON: {exc}") from exc
    return preset_from_dict(data)


def preset_fingerprint(preset: Preset) -> str:
    """Stable content hash of a preset (accelerator + spatial unrolling).

    Serde round trips preserve it: ``preset_fingerprint(p) ==
    preset_fingerprint(preset_from_json(preset_to_json(p)))``.
    """
    from repro.fingerprint import stable_fingerprint

    return stable_fingerprint(
        preset.accelerator,
        {dim.value: f for dim, f in preset.spatial_unrolling.items()},
    )


def load_preset(path: str) -> Preset:
    """Load a preset from a JSON file."""
    with open(path) as handle:
        return preset_from_json(handle.read())


def save_preset(preset: Preset, path: str) -> None:
    """Write a preset to a JSON file."""
    with open(path, "w") as handle:
        handle.write(preset_to_json(preset))
