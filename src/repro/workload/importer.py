"""Import layer tables from JSON (the lingua franca of model exporters).

Schema — a list of layer objects::

    [
      {"name": "conv1", "type": "Conv2D",
       "dims": {"B": 1, "K": 64, "C": 3, "OX": 112, "OY": 112,
                 "FX": 7, "FY": 7},
       "stride": 2,                      # or "stride_x"/"stride_y"
       "dilation": 1,
       "precision": {"w": 8, "i": 8, "o_final": 24, "o_partial": 24}},
      {"name": "fc", "type": "Dense", "dims": {"B": 1, "K": 10, "C": 512}}
    ]

Unknown dims raise; missing dims default to 1; precision defaults to the
INT8/24-bit profile of the validation chip.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Sequence

from repro.workload.dims import LoopDim
from repro.workload.layer import LayerSpec, LayerType, Precision


class ImportError_(ValueError):
    """Malformed layer table."""


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


def _layer_type(raw: str) -> LayerType:
    key = str(raw).strip().lower()
    if key not in _TYPE_ALIASES:
        raise ImportError_(
            f"unknown layer type {raw!r}; expected one of "
            f"{sorted(set(_TYPE_ALIASES))}"
        )
    return _TYPE_ALIASES[key]


def _int(where: str, key: str, value: Any) -> int:
    try:
        return int(value)
    except (TypeError, ValueError):
        raise ImportError_(
            f"{where}: {key} must be an integer, got {value!r}"
        ) from None


def layer_from_dict(data: Dict[str, Any]) -> LayerSpec:
    """Build one :class:`LayerSpec` from a JSON-style dict."""
    if not isinstance(data, dict):
        raise ImportError_(f"layer entry must be an object, got {data!r}")
    if "type" not in data or "dims" not in data:
        raise ImportError_(f"layer entry needs 'type' and 'dims': {data!r}")
    where = f"layer {data.get('name', '?')!r}"
    layer_type = _layer_type(data["type"])
    raw_dims = data["dims"]
    precision_spec = data.get("precision") or {}
    for key, value in (("dims", raw_dims), ("precision", precision_spec)):
        if not isinstance(value, dict):
            raise ImportError_(f"{where}: {key!r} must be an object, got {value!r}")
    dims: Dict[LoopDim, int] = {}
    for key, value in raw_dims.items():
        try:
            dim = LoopDim(str(key).upper())
        except ValueError:
            raise ImportError_(f"{where}: unknown loop dim {key!r}") from None
        dims[dim] = _int(where, f"dims.{key}", value)

    stride = _int(where, "stride", data.get("stride", 1))
    dilation = _int(where, "dilation", data.get("dilation", 1))
    geometry = {
        key: _int(where, key, data.get(key, default))
        for key, default in (
            ("stride_x", stride), ("stride_y", stride),
            ("dilation_x", dilation), ("dilation_y", dilation),
        )
    }
    precision = {
        k: _int(where, f"precision.{k}", v) for k, v in precision_spec.items()
    }
    try:
        return LayerSpec(
            layer_type,
            dims,
            **geometry,
            precision=Precision(**precision),
            name=data.get("name"),
        )
    except (TypeError, ValueError) as exc:
        raise ImportError_(f"bad {where}: {exc}") from exc


def layers_from_list(entries: Sequence[Dict[str, Any]]) -> List[LayerSpec]:
    """Build a layer table from a list of dicts."""
    return [layer_from_dict(entry) for entry in entries]


def layers_from_json(text: str) -> List[LayerSpec]:
    """Parse a JSON layer table."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ImportError_(f"invalid JSON: {exc}") from exc
    if not isinstance(data, list):
        raise ImportError_("layer table must be a JSON list")
    return layers_from_list(data)


def load_layers(path: str) -> List[LayerSpec]:
    """Load a layer table from a JSON file."""
    with open(path) as handle:
        return layers_from_json(handle.read())


def layers_to_json(layers: Sequence[LayerSpec], indent: int = 2) -> str:
    """Serialize a layer table back to JSON."""
    entries = []
    for layer in layers:
        entries.append(
            {
                "name": layer.name,
                "type": layer.layer_type.value,
                "dims": {d.value: s for d, s in layer.dims.items() if s > 1},
                "stride_x": layer.stride_x,
                "stride_y": layer.stride_y,
                "dilation_x": layer.dilation_x,
                "dilation_y": layer.dilation_y,
                "precision": {
                    "w": layer.precision.w,
                    "i": layer.precision.i,
                    "o_final": layer.precision.o_final,
                    "o_partial": layer.precision.o_partial,
                },
            }
        )
    return json.dumps(entries, indent=indent)
