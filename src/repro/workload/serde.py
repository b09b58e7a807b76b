"""JSON (de)serialization of layer specifications.

Promoted out of the verify corpus in PR 7 so the wire protocol of
:mod:`repro.serve`, the regression corpus and any future config surface
share one schema (the corpus delegates here). The shape mirrors
:class:`~repro.workload.layer.LayerSpec`::

    {"layer_type": "fc", "dims": {"B": 64, "K": 128, "C": 1200},
     "stride_x": 1, "stride_y": 1, "dilation_x": 1, "dilation_y": 1,
     "precision": {"w": 8, "i": 8, "o_final": 24, "o_partial": 24},
     "name": "fc1"}

Size-1 dimensions are elided on write and default on read, so the dict
is minimal and the round trip preserves :func:`stable_fingerprint`
identity (``LayerSpec.name`` is carried but excluded from fingerprints).
"""

from __future__ import annotations

from typing import Dict

from repro.hardware.serde import SerdeError, strict_int
from repro.workload.dims import LoopDim
from repro.workload.layer import LayerSpec, LayerType, Precision


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


def layer_from_dict(data: Dict) -> LayerSpec:
    """Inverse of :func:`layer_to_dict` (tolerant of omitted defaults).

    Raises :class:`~repro.hardware.serde.SerdeError` when ``data`` does
    not describe a layer.
    """
    try:
        return LayerSpec(
            layer_type=LayerType(data["layer_type"]),
            dims={
                LoopDim(d): strict_int(s, "dims", d) for d, s in data["dims"].items()
            },
            stride_x=strict_int(data.get("stride_x", 1), "stride_x"),
            stride_y=strict_int(data.get("stride_y", 1), "stride_y"),
            dilation_x=strict_int(data.get("dilation_x", 1), "dilation_x"),
            dilation_y=strict_int(data.get("dilation_y", 1), "dilation_y"),
            precision=Precision(**data["precision"]),
            name=data.get("name"),
        )
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise SerdeError(f"malformed layer: {exc}") from exc


__all__ = ["layer_from_dict", "layer_to_dict"]
