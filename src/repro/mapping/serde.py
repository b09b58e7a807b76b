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

from typing import Any, Dict, Optional

from repro.fields import check_known, expect
from repro.hardware.serde import SerdeError
from repro.mapping.loop import Loop
from repro.mapping.mapping import Mapping
from repro.mapping.spatial import SpatialMapping
from repro.mapping.temporal import TemporalMapping
from repro.workload.dims import LoopDim
from repro.workload.layer import LayerSpec
from repro.workload.operand import Operand


_FIELDS = ("spatial", "loops", "cuts")


def mapping_to_dict(mapping: Mapping) -> Dict:
    """Serialize a mapping (sans its layer) to a JSON-compatible dict."""
    return {
        "spatial": {dim.value: f for dim, f in mapping.spatial.unrolling.items()},
        "loops": [[loop.dim.value, loop.size] for loop in mapping.temporal.loops],
        "cuts": {
            op.value: list(cut) for op, cut in mapping.temporal.cuts.items()
        },
    }


def mapping_from_dict(
    data: Any, layer: LayerSpec, spatial: Optional[SpatialMapping] = None
) -> Mapping:
    """Inverse of :func:`mapping_to_dict`, bound to ``layer``.

    ``spatial``, when given, is the mapping already parsed from a
    ``data["spatial"]`` identical to this one, and is used instead of
    parsing it again (the daemon passes the previous request's, so its
    memoized fingerprint is reused).

    Raises :class:`~repro.hardware.serde.SerdeError` when ``data`` does
    not describe a mapping (a key outside the schema included), and
    :class:`~repro.mapping.mapping.MappingError` when its loops do not
    cover ``layer``.
    """
    try:
        check_known("mapping field", expect(data, dict, "mapping"), _FIELDS)
        temporal = TemporalMapping(
            loops=tuple(
                _loop(entry, i)
                for i, entry in enumerate(expect(data["loops"], list, "loops"))
            ),
            cuts={
                Operand(op): tuple(
                    expect(c, int, f"cuts.{op}", j)
                    for j, c in enumerate(expect(cut, list, f"cuts.{op}"))
                )
                for op, cut in expect(data["cuts"], dict, "cuts").items()
            },
        )
        if spatial is None:
            spatial = SpatialMapping({
                LoopDim(d): expect(f, int, "spatial", d)
                for d, f in expect(data["spatial"], dict, "spatial").items()
            })
    except (KeyError, TypeError, ValueError) as exc:
        raise SerdeError(f"malformed mapping: {exc}") from exc
    return Mapping(layer, spatial, temporal)


def _loop(entry: Any, index: int) -> Loop:
    dim, size = expect(entry, list, "loops", index)
    return Loop(LoopDim(expect(dim, str, "loops", index)), expect(size, int, "loops", index))


__all__ = ["mapping_from_dict", "mapping_to_dict"]
