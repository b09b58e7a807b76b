"""Import layer tables from JSON (the lingua franca of model exporters).

A layer table is a JSON list of layers in the schema of
:mod:`repro.workload.serde`, which parses every entry and raises
:class:`~repro.hardware.serde.SerdeError` on a malformed one. Before
parsing, each entry may use these aliases::

    [
      {"name": "conv1", "type": "Conv2D",
       "dims": {"k": 64, "c": 3, "ox": 112, "oy": 112, "fx": 7, "fy": 7},
       "stride": 2, "dilation": 1},
      {"name": "fc", "type": "fc", "dims": {"K": 10, "C": 512},
       "precision": null}
    ]

- ``type`` for ``layer_type``, any case, or one of the names in
  ``_TYPE_ALIASES`` (``conv``, ``dwconv``, ``conv1x1``, ``gemm``, ...);
- loop names in ``dims`` in any case;
- ``stride``/``dilation`` for both axes (``stride_x``/``stride_y``, when
  also given, win);
- ``"precision": null`` for the default precision.
"""

from __future__ import annotations

import json
from typing import Any, List, Sequence

from repro.hardware.serde import SerdeError
from repro.workload import serde
from repro.workload.layer import LayerSpec, LayerType

_TYPE_ALIASES = {
    "conv": LayerType.CONV2D,
    "conv2d": LayerType.CONV2D,
    "convolution": LayerType.CONV2D,
    "depthwise": LayerType.DEPTHWISE,
    "dwconv": LayerType.DEPTHWISE,
    "pointwise": LayerType.POINTWISE,
    "pwconv": LayerType.POINTWISE,
    "conv1x1": LayerType.POINTWISE,
    "dense": LayerType.DENSE,
    "fc": LayerType.DENSE,
    "gemm": LayerType.DENSE,
    "matmul": LayerType.DENSE,
    "linear": LayerType.DENSE,
}


def layer_from_dict(data: Any) -> LayerSpec:
    """One layer-table entry: its aliases resolved, then parsed by
    :func:`repro.workload.serde.layer_from_dict`."""
    if isinstance(data, dict):
        data = dict(data)
        if "type" in data:
            raw = data.pop("type")
            alias = _TYPE_ALIASES.get(str(raw).strip().lower())
            data["layer_type"] = alias.value if alias else raw
        if isinstance(data.get("dims"), dict):
            data["dims"] = {str(k).upper(): v for k, v in data["dims"].items()}
        for short in ("stride", "dilation"):
            if short in data:
                value = data.pop(short)
                data.setdefault(f"{short}_x", value)
                data.setdefault(f"{short}_y", value)
        if data.get("precision", {}) is None:
            del data["precision"]
    return serde.layer_from_dict(data)


def layers_from_json(text: str) -> List[LayerSpec]:
    """Parse a JSON layer table."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SerdeError(f"invalid JSON: {exc}") from exc
    if not isinstance(data, list):
        raise SerdeError("layer table must be a JSON list")
    return [layer_from_dict(entry) for entry in data]


def load_layers(path: str) -> List[LayerSpec]:
    """Load a layer table from a JSON file."""
    with open(path) as handle:
        return layers_from_json(handle.read())


def layers_to_json(layers: Sequence[LayerSpec], indent: int = 2) -> str:
    """Serialize a layer table in the canonical schema; :func:`load_layers`
    reads it back."""
    return json.dumps([serde.layer_to_dict(layer) for layer in layers], indent=indent)
