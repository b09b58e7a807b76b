"""Workload representation: DNN layers as 7-D nested loops.

This package provides the algorithm ("A") corner of the
algorithm-hardware-mapping (AHM) design space of the paper:

* :class:`~repro.workload.dims.LoopDim` — the seven canonical loop
  dimensions (B, K, C, OX, OY, FX, FY) and per-operand relevance tables.
* :class:`~repro.workload.operand.Operand` — the three major operands
  (W / I / O) and their precisions.
* :class:`~repro.workload.layer.LayerSpec` — a single DNN layer with its
  loop bounds, strides and precisions, plus derived quantities (MAC count,
  operand sizes, input sliding-window extents).
* :func:`~repro.workload.im2col.im2col` — the Im2Col lowering used by the
  paper's validation chip (convolution unrolled to matrix multiplication).
* :mod:`~repro.workload.networks` — realistic layer tables, including an
  SSD-MobileNetV1-style stand-in for the hand-tracking workload [19].
* :mod:`~repro.workload.generator` — synthetic layer sweeps (Case study 2)
  and random layers for property-based testing.
"""

from repro.workload.dims import (
    ALL_DIMS,
    IR_DIMS,
    PR_DIMS,
    R_DIMS,
    LoopDim,
    relevance_of,
)
from repro.workload.layer import LayerSpec, LayerType, Precision
from repro.workload.operand import Operand
from repro.workload.im2col import im2col, im2col_tiled
from repro.workload.generator import (
    bkc_sweep,
    dense_layer,
    random_dense_layer,
    scale_layer,
)
from repro.workload import networks

__all__ = [
    "ALL_DIMS",
    "IR_DIMS",
    "LayerSpec",
    "LayerType",
    "LoopDim",
    "Operand",
    "PR_DIMS",
    "Precision",
    "R_DIMS",
    "bkc_sweep",
    "dense_layer",
    "im2col",
    "im2col_tiled",
    "networks",
    "random_dense_layer",
    "relevance_of",
    "scale_layer",
]
