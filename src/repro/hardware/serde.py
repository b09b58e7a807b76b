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
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Tuple

from repro.hardware.accelerator import Accelerator, StallOverlapConfig
from repro.hardware.hierarchy import MemoryHierarchy, MemoryLevel, auto_allocate
from repro.hardware.mac_array import MacArray
from repro.hardware.memory import MemoryInstance
from repro.hardware.port import EndpointKind, Port, PortDirection
from repro.hardware.presets import Preset
from repro.workload.dims import LoopDim
from repro.workload.operand import Operand


class SerdeError(ValueError):
    """Malformed accelerator description."""


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

def _memory_from_dict(data: Dict[str, Any]) -> Tuple[MemoryInstance, MemoryLevel]:
    try:
        ports = tuple(
            Port(p["name"], PortDirection(p["direction"]), float(p["bandwidth"]))
            for p in data["ports"]
        )
        instance = MemoryInstance(
            name=data["name"],
            size_bits=int(data["size_bits"]),
            ports=ports,
            double_buffered=bool(data.get("double_buffered", False)),
            instances=int(data.get("instances", 1)),
            read_energy_pj_per_bit=float(data.get("read_energy_pj_per_bit", 0.0)),
            write_energy_pj_per_bit=float(data.get("write_energy_pj_per_bit", 0.0)),
            link_energy_pj_per_bit=float(data.get("link_energy_pj_per_bit", 0.0)),
            min_burst_bits=int(data.get("min_burst_bits", 1)),
        )
        serves = frozenset(Operand(s) for s in data["serves"])
    except (KeyError, ValueError) as exc:
        raise SerdeError(f"bad memory entry {data.get('name', '?')!r}: {exc}") from exc

    allocation_spec = data.get("allocation", "auto")
    if allocation_spec == "auto" or allocation_spec is None:
        level = auto_allocate(instance, serves)
    else:
        allocation = {}
        for key, port_name in allocation_spec.items():
            op_str, __, kind_str = key.partition(".")
            try:
                allocation[(Operand(op_str), EndpointKind(kind_str))] = port_name
            except ValueError as exc:
                raise SerdeError(f"bad allocation key {key!r}") from exc
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
        array_spec = data["mac_array"]
        mac_array = MacArray(
            rows=int(array_spec["rows"]),
            cols=int(array_spec["cols"]),
            macs_per_pe=int(array_spec.get("macs_per_pe", 1)),
            mac_energy_pj=float(array_spec.get("mac_energy_pj", 0.0)),
        )
        levels: Dict[str, MemoryLevel] = {}
        for mem_data in data["memories"]:
            __, level = _memory_from_dict(mem_data)
            if level.name in levels:
                raise SerdeError(f"duplicate memory name {level.name!r}")
            levels[level.name] = level
        chains = {}
        for op_str, names in data["chains"].items():
            chain = []
            for name in names:
                if name not in levels:
                    raise SerdeError(f"chain references unknown memory {name!r}")
                chain.append(levels[name])
            chains[Operand(op_str)] = tuple(chain)
        hierarchy = MemoryHierarchy(chains)
        overlap = StallOverlapConfig(
            tuple(frozenset(group) for group in data.get("stall_overlap", []))
        )
        offchip = data.get("offchip_bandwidth")
        return Accelerator(
            name=str(data["name"]),
            mac_array=mac_array,
            hierarchy=hierarchy,
            stall_overlap=overlap,
            offchip_bandwidth=float(offchip) if offchip is not None else None,
        )
    except SerdeError:
        raise
    except KeyError as exc:
        raise SerdeError(f"missing required field: {exc}") from exc
    except (AttributeError, TypeError, ValueError) as exc:
        raise SerdeError(f"malformed accelerator description: {exc}") from exc


def preset_from_dict(data: Dict[str, Any]) -> Preset:
    """Deserialize a preset (accelerator + spatial unrolling)."""
    accelerator = accelerator_from_dict(data)
    spatial_spec = data.get("spatial_unrolling", {})
    try:
        spatial = {LoopDim(dim): int(f) for dim, f in spatial_spec.items()}
    except (AttributeError, TypeError, ValueError) as exc:
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
