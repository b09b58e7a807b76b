"""JSON (de)serialization of layer specifications: the one layer schema.

The wire protocol of :mod:`repro.serve`, the regression corpus and the
layer-table importer (:mod:`repro.workload.importer`, which only
resolves its aliases first) all parse layers here. A layer is one
object mirroring :class:`~repro.workload.layer.LayerSpec`::

    {"layer_type": "Dense", "dims": {"B": 64, "K": 128, "C": 1200},
     "stride_x": 1, "stride_y": 1, "dilation_x": 1, "dilation_y": 1,
     "precision": {"w": 8, "i": 8, "o_final": 24, "o_partial": 24},
     "name": "fc1"}

- ``layer_type`` is one of ``Conv2D``, ``Depthwise``, ``Pointwise``,
  ``Dense``; ``layer_type`` and ``dims`` are required.
- ``dims`` maps loop names (``B``, ``K``, ``C``, ``OX``, ``OY``, ``FX``,
  ``FY``) to sizes; a dimension left out is 1.
- ``stride_*`` and ``dilation_*`` default to 1; ``precision`` and each of
  its fields default to :class:`~repro.workload.layer.Precision`.
- Every size, stride, dilation and precision is a JSON integer:
  ``16.5``, ``true`` and ``"16"`` are refused, not truncated or coerced.
- A key outside this schema (``"strides"``) is refused, not ignored.

Size-1 dimensions are elided on write and default on read, so the dict
is minimal and the round trip preserves :func:`stable_fingerprint`
identity (``LayerSpec.name`` is carried but excluded from fingerprints).
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict

from repro.hardware.serde import SerdeError, check_known, strict_int
from repro.workload.dims import LoopDim
from repro.workload.layer import LayerSpec, LayerType, Precision

_LAYER_TYPES = [t.value for t in LayerType]
_DIMS = [d.value for d in LoopDim]
_PRECISIONS = [f.name for f in dataclasses.fields(Precision)]
_GEOMETRY = ("stride_x", "stride_y", "dilation_x", "dilation_y")
_FIELDS = ["layer_type", "dims", *_GEOMETRY, "precision", "name"]


def layer_to_dict(layer: LayerSpec) -> Dict:
    """Serialize a layer to a JSON-compatible dict."""
    return {
        "layer_type": layer.layer_type.value,
        "dims": {dim.value: size for dim, size in layer.dims.items() if size > 1},
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
        "name": layer.name,
    }


def layer_from_dict(data: Any) -> LayerSpec:
    """Inverse of :func:`layer_to_dict` (tolerant of omitted defaults).

    Raises :class:`~repro.hardware.serde.SerdeError`, naming the layer
    and the field, when ``data`` does not describe a layer.
    """
    if not isinstance(data, dict):
        raise SerdeError(f"layer entry must be an object, got {data!r}")
    try:
        return _layer(data)
    except (TypeError, ValueError) as exc:
        raise SerdeError(
            f"malformed layer {data.get('name') or '?'!r}: {exc}"
        ) from exc


def _layer(data: Dict) -> LayerSpec:
    if "layer_type" not in data or "dims" not in data:
        raise ValueError("needs 'layer_type' and 'dims'")
    dims, precision = data["dims"], data.get("precision", {})
    for key, value in (("dims", dims), ("precision", precision)):
        if not isinstance(value, dict):
            raise TypeError(f"{key!r} must be an object, got {value!r}")
    check_known("layer field", data, _FIELDS)
    check_known("layer type", [data["layer_type"]], _LAYER_TYPES)
    check_known("loop dim", dims, _DIMS)
    check_known("precision field", precision, _PRECISIONS)
    return LayerSpec(
        layer_type=LayerType(data["layer_type"]),
        dims={LoopDim(d): strict_int(s, "dims", d) for d, s in dims.items()},
        **{key: strict_int(data.get(key, 1), key) for key in _GEOMETRY},
        precision=Precision(**{
            k: strict_int(v, "precision", k) for k, v in precision.items()
        }),
        name=data.get("name"),
    )


__all__ = ["layer_from_dict", "layer_to_dict"]
