"""The seven canonical DNN loop dimensions and operand relevance.

Following the ZigZag loop characterization adopted by the paper
(Section III-A), a dense DNN layer is a 7-dimensional nested for-loop:

====  =========================================
B     batch
K     output channel
C     input channel
OX    output feature-map x
OY    output feature-map y
FX    filter (kernel) x
FY    filter (kernel) y
====  =========================================

Each operand classifies every dimension as:

* ``r`` (relevant) — iterating it walks to *new* data of the operand, so
  r-loop sizes multiply into the operand's data footprint;
* ``ir`` (irrelevant) — iterating it *reuses* the same data;
* ``pr`` (partially relevant) — only the input operand has these: OX/OY and
  FX/FY slide a window over the input, so the footprint follows
  ``ix = (ox - 1) * stride + (fx - 1) * dilation + 1`` rather than a plain
  product.

For scheduling questions ("does iterating this loop change the data the
memory must hold?") pr behaves like r, which is what
:func:`relevance_of` reports with ``pr_as_r=True``.
"""

from __future__ import annotations

import enum
from typing import Dict, FrozenSet

from repro.workload.operand import Operand


class LoopDim(str, enum.Enum):
    """One of the seven canonical nested-loop dimensions of a DNN layer."""

    B = "B"
    K = "K"
    C = "C"
    OX = "OX"
    OY = "OY"
    FX = "FX"
    FY = "FY"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"LoopDim.{self.value}"

    def __str__(self) -> str:
        return self.value


#: All seven dimensions, in canonical order.
ALL_DIMS = (
    LoopDim.B,
    LoopDim.K,
    LoopDim.C,
    LoopDim.OX,
    LoopDim.OY,
    LoopDim.FX,
    LoopDim.FY,
)

#: Integer code of every dimension: its position in :data:`ALL_DIMS`.
DIM_CODE: Dict[LoopDim, int] = {dim: code for code, dim in enumerate(ALL_DIMS)}

#: Relevant (r) loops per operand — these multiply into the data footprint.
R_DIMS: Dict[Operand, FrozenSet[LoopDim]] = {
    Operand.W: frozenset({LoopDim.K, LoopDim.C, LoopDim.FX, LoopDim.FY}),
    Operand.I: frozenset({LoopDim.B, LoopDim.C}),
    Operand.O: frozenset({LoopDim.B, LoopDim.K, LoopDim.OX, LoopDim.OY}),
}

#: Partially-relevant (pr) loops per operand (input sliding window only).
PR_DIMS: Dict[Operand, FrozenSet[LoopDim]] = {
    Operand.W: frozenset(),
    Operand.I: frozenset({LoopDim.OX, LoopDim.OY, LoopDim.FX, LoopDim.FY}),
    Operand.O: frozenset(),
}

#: Irrelevant (ir) loops per operand — iterating these reuses the data.
IR_DIMS: Dict[Operand, FrozenSet[LoopDim]] = {
    op: frozenset(set(ALL_DIMS) - R_DIMS[op] - PR_DIMS[op]) for op in Operand
}


def relevance_of(operand: Operand, dim: LoopDim, pr_as_r: bool = False) -> str:
    """Classify ``dim`` for ``operand`` as ``"r"``, ``"ir"`` or ``"pr"``.

    Parameters
    ----------
    operand:
        The operand (W / I / O) whose point of view is taken.
    dim:
        The loop dimension to classify.
    pr_as_r:
        If true, partially-relevant dimensions are reported as ``"r"``.
        This is the right lens for reuse / scheduling questions: iterating a
        pr loop *does* change (part of) the data the operand needs, so for
        the keep-out-zone analysis of Table I it counts as relevant.

    Returns
    -------
    str
        ``"r"``, ``"ir"`` or ``"pr"``.
    """
    if dim in R_DIMS[operand]:
        return "r"
    if dim in PR_DIMS[operand]:
        return "r" if pr_as_r else "pr"
    return "ir"


def is_irrelevant(operand: Operand, dim: LoopDim) -> bool:
    """True when iterating ``dim`` fully reuses ``operand``'s data."""
    return dim in IR_DIMS[operand]
