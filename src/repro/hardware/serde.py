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
Every field is read by :func:`repro.fields.expect`, as in the layer and
mapping schemas, and must have its JSON type: ``16.5``, ``"128"`` and
``"false"`` are refused, not coerced, and so are a string where a list
belongs (``"serves": "IOW"``) or a list where an object belongs. A key
the schema does not know is an error, so a misspelled field never reads
as its default, and every ``stall_overlap`` name must be a memory.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Tuple

from repro.fields import check_known, expect
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
    check_known("port field", expect(data, dict, "ports", index), _PORT_KEYS)
    return Port(
        expect(data["name"], str, f"ports[{index}].name"),
        PortDirection(expect(data["direction"], str, f"ports[{index}].direction")),
        expect(data["bandwidth"], float, "bandwidth"),
    )


def _memory_from_dict(data: Dict[str, Any]) -> Tuple[MemoryInstance, MemoryLevel]:
    try:
        check_known("memory field", data, _MEMORY_KEYS)
        allocation_spec = data.get("allocation", "auto")
        if allocation_spec != "auto" and allocation_spec is not None:
            expect(allocation_spec, dict, "allocation")
        energies = {
            key: expect(data.get(key, 0.0), float, key)
            for key in (
                "read_energy_pj_per_bit", "write_energy_pj_per_bit",
                "link_energy_pj_per_bit",
            )
        }
        instance = MemoryInstance(
            name=expect(data["name"], str, "name"),
            size_bits=expect(data["size_bits"], int, "size_bits"),
            ports=tuple(
                _port_from_dict(p, i)
                for i, p in enumerate(expect(data["ports"], list, "ports"))
            ),
            double_buffered=expect(
                data.get("double_buffered", False), bool, "double_buffered"
            ),
            instances=expect(data.get("instances", 1), int, "instances"),
            min_burst_bits=expect(
                data.get("min_burst_bits", 1), int, "min_burst_bits"
            ),
            **energies,
        )
        serves = frozenset(
            Operand(expect(s, str, "serves", i))
            for i, s in enumerate(expect(data["serves"], list, "serves"))
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
            if expect(port_name, str, "allocation", key) not in ports:
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
        array_spec = expect(data["mac_array"], dict, "mac_array")
        check_known("mac_array field", array_spec, _MAC_ARRAY_KEYS)
        mac_array = MacArray(
            rows=expect(array_spec["rows"], int, "mac_array.rows"),
            cols=expect(array_spec["cols"], int, "mac_array.cols"),
            macs_per_pe=expect(
                array_spec.get("macs_per_pe", 1), int, "mac_array.macs_per_pe"
            ),
            mac_energy_pj=expect(
                array_spec.get("mac_energy_pj", 0.0), float, "mac_array.mac_energy_pj"
            ),
        )
        levels: Dict[str, MemoryLevel] = {}
        for i, mem_data in enumerate(expect(data["memories"], list, "memories")):
            __, level = _memory_from_dict(expect(mem_data, dict, "memories", i))
            if level.name in levels:
                raise SerdeError(f"duplicate memory name {level.name!r}")
            levels[level.name] = level
        chains = {}
        for op_str, names in expect(data["chains"], dict, "chains").items():
            operand = Operand(op_str)
            chain = []
            for j, name in enumerate(expect(names, list, "chains", op_str)):
                if expect(name, str, f"chains[{op_str}]", j) not in levels:
                    raise SerdeError(f"chain references unknown memory {name!r}")
                chain.append(levels[name])
            chains[operand] = tuple(chain)
        hierarchy = MemoryHierarchy(chains)
        groups = expect(data.get("stall_overlap", []), list, "stall_overlap")
        for i, group in enumerate(groups):
            for j, name in enumerate(expect(group, list, "stall_overlap", i)):
                if expect(name, str, f"stall_overlap[{i}]", j) not in levels:
                    raise SerdeError(
                        f"stall_overlap[{i}] names unknown memory {name!r}"
                    )
        overlap = StallOverlapConfig(tuple(frozenset(group) for group in groups))
        offchip = data.get("offchip_bandwidth")
        return Accelerator(
            name=expect(data["name"], str, "name"),
            mac_array=mac_array,
            hierarchy=hierarchy,
            stall_overlap=overlap,
            offchip_bandwidth=(
                expect(offchip, float, "offchip_bandwidth")
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
            LoopDim(dim): expect(f, int, "spatial_unrolling", dim)
            for dim, f in expect(spatial_spec, dict, "spatial_unrolling").items()
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
