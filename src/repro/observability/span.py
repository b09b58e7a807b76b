"""Span records: the serializable unit of the tracing subsystem.

A :class:`SpanRecord` is one timed, attributed node of the evaluation
tree (network -> layer -> mapping candidate -> step1/2/3 -> per-DTL).
Records are plain mutable dataclasses that serialize cheaply (the serve
daemon ships them to its clients); the hierarchy lives in ``parent_id``
links rather than object nesting, which is what makes order-preserving
merges of foreign records possible (:meth:`repro.observability.Tracer.merge`).

Wall-clock fields (``start_us`` / ``duration_us``) are microseconds from
``time.perf_counter`` — meaningful within one process only. Everything a
test or a report should compare across runs lives in ``name`` and
``attributes`` (the model-domain payload: SS_u, MUW, combine decisions,
scenario classification, ...), which is why :func:`tree_shape` drops the
timestamps.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List, Optional, Sequence, Tuple


def clean_attribute(value: Any) -> Any:
    """Coerce an attribute value to a JSON-friendly primitive.

    Numbers, booleans and strings pass through; everything else (enums,
    operands, tuples of port keys, ...) is stringified so records stay
    picklable and export byte-identically regardless of origin process.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return str(value)


@dataclasses.dataclass
class SpanRecord:
    """One finished (or in-flight) span.

    Attributes
    ----------
    span_id / parent_id:
        Tracer-local identity links; remapped on merge. ``parent_id`` is
        ``None`` for roots.
    name:
        Taxonomy node name (see ``docs/OBSERVABILITY.md``).
    start_us / duration_us:
        Wall-clock placement, microseconds, process-local.
    attributes:
        Model-domain payload (primitives only — see :func:`clean_attribute`).
    """

    span_id: int
    parent_id: Optional[int]
    name: str
    start_us: float
    duration_us: float = 0.0
    attributes: Dict[str, Any] = dataclasses.field(default_factory=dict)


@dataclasses.dataclass
class SpanNode:
    """Tree view over a flat record list (built by :func:`span_tree`)."""

    record: SpanRecord
    children: List["SpanNode"] = dataclasses.field(default_factory=list)

    @property
    def name(self) -> str:
        return self.record.name

    @property
    def attributes(self) -> Dict[str, Any]:
        return self.record.attributes

    def find(self, name: str) -> List["SpanNode"]:
        """Every descendant (including self) whose name equals ``name``."""
        out = [self] if self.record.name == name else []
        for child in self.children:
            out.extend(child.find(name))
        return out


def span_tree(records: Sequence[SpanRecord]) -> List[SpanNode]:
    """Reconstruct the span forest from parent links, preserving record order."""
    nodes = {r.span_id: SpanNode(r) for r in records}
    roots: List[SpanNode] = []
    for record in records:
        node = nodes[record.span_id]
        parent = nodes.get(record.parent_id) if record.parent_id is not None else None
        if parent is None:
            roots.append(node)
        else:
            parent.children.append(node)
    return roots


def tree_shape(records: Sequence[SpanRecord]) -> Tuple:
    """The timestamp-free shape of a span forest.

    Two runs are "the same trace modulo timestamps" iff their shapes are
    equal: same names, same attributes, same child order. This is the
    equality the trace-shape tests assert.
    """

    def shape(node: SpanNode) -> Tuple:
        return (
            node.record.name,
            tuple(sorted(node.record.attributes.items())),
            tuple(shape(c) for c in node.children),
        )

    return tuple(shape(root) for root in span_tree(records))
