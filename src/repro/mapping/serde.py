"""JSON (de)serialization of mappings.

Promoted out of the verify corpus in PR 7 so the wire protocol of
:mod:`repro.serve` and the regression corpus share one schema (the
corpus delegates here). A mapping dict carries the spatial unrolling,
the temporal loop stack (innermost first, as stored) and the per-operand
cut positions::

    {"spatial": {"K": 16, "B": 8},
     "loops": [["C", 5], ["C", 3], ["B", 2]],
     "cuts": {"W": [1], "I": [], "O": [2]}}

The layer is *not* embedded — a mapping is always deserialized against
an explicitly supplied :class:`~repro.workload.layer.LayerSpec` (see
:func:`mapping_from_dict`), mirroring how :class:`Mapping` itself holds
a layer reference. Round trips preserve ``mapping.fingerprint()``.
"""

from __future__ import annotations

from typing import Dict

from repro.hardware.serde import SerdeError, strict_int
from repro.mapping.loop import Loop
from repro.mapping.mapping import Mapping
from repro.mapping.spatial import SpatialMapping
from repro.mapping.temporal import TemporalMapping
from repro.workload.dims import LoopDim
from repro.workload.layer import LayerSpec
from repro.workload.operand import Operand


def mapping_to_dict(mapping: Mapping) -> Dict:
    """Serialize a mapping (sans its layer) to a JSON-compatible dict."""
    return {
        "spatial": {dim.value: f for dim, f in mapping.spatial.unrolling.items()},
        "loops": [[loop.dim.value, loop.size] for loop in mapping.temporal.loops],
        "cuts": {
            op.value: list(cut) for op, cut in mapping.temporal.cuts.items()
        },
    }


def mapping_from_dict(data: Dict, layer: LayerSpec) -> Mapping:
    """Inverse of :func:`mapping_to_dict`, bound to ``layer``.

    Raises :class:`~repro.hardware.serde.SerdeError` when ``data`` does
    not describe a mapping, and
    :class:`~repro.mapping.mapping.MappingError` when its loops do not
    cover ``layer``.
    """
    try:
        temporal = TemporalMapping(
            loops=tuple(
                Loop(LoopDim(d), strict_int(s, "loops", i))
                for i, (d, s) in enumerate(data["loops"])
            ),
            cuts={
                Operand(op): tuple(
                    strict_int(c, f"cuts.{op}", j) for j, c in enumerate(cut)
                )
                for op, cut in data["cuts"].items()
            },
        )
        spatial = SpatialMapping({
            LoopDim(d): strict_int(f, "spatial", d)
            for d, f in data["spatial"].items()
        })
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise SerdeError(f"malformed mapping: {exc}") from exc
    return Mapping(layer, spatial, temporal)


__all__ = ["mapping_from_dict", "mapping_to_dict"]
