"""A single DNN layer as a 7-D nested loop with operand metadata."""

from __future__ import annotations

import dataclasses
import enum
import math
from typing import Dict, Mapping, Optional

from repro.workload.dims import ALL_DIMS, LoopDim, relevance_of
from repro.workload.operand import Operand


class LayerType(str, enum.Enum):
    """The dense layer types covered by the paper (Section II-A-1)."""

    CONV2D = "Conv2D"
    DEPTHWISE = "Depthwise"
    POINTWISE = "Pointwise"
    DENSE = "Dense"

    def __str__(self) -> str:
        return self.value


@dataclasses.dataclass(frozen=True)
class Precision:
    """Bit widths of the three operands.

    The validation chip (Section IV) uses INT8 weights and inputs with a
    24-bit output register per PE, so those are the defaults. ``o_partial``
    is the in-flight partial-sum precision; ``o_final`` the precision of a
    finished output element (often re-quantized, here kept at accumulator
    width unless overridden).
    """

    w: int = 8
    i: int = 8
    o_final: int = 24
    o_partial: int = 24

    def of(self, operand: Operand, partial: bool = False) -> int:
        """Bit width of ``operand`` (``partial`` selects psum precision)."""
        if operand is Operand.W:
            return self.w
        if operand is Operand.I:
            return self.i
        return self.o_partial if partial else self.o_final

    def __post_init__(self) -> None:
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if not isinstance(value, int) or value <= 0:
                raise ValueError(f"precision {field.name} must be a positive int, got {value!r}")


@dataclasses.dataclass(frozen=True)
class LayerSpec:
    """A DNN layer: loop bounds plus stride / dilation / precision metadata.

    Loop bounds default to 1, so a Dense (matmul) layer is simply
    ``LayerSpec(LayerType.DENSE, {B: ..., K: ..., C: ...})``.

    For :class:`LayerType.DEPTHWISE` layers, ``K`` is the channel dimension
    (one input channel per output channel) and ``C`` must stay 1; the input
    operand then treats K as relevant, which :meth:`relevance` reports.
    """

    layer_type: LayerType
    dims: Mapping[LoopDim, int]
    stride_x: int = 1
    stride_y: int = 1
    dilation_x: int = 1
    dilation_y: int = 1
    precision: Precision = dataclasses.field(default_factory=Precision)
    name: Optional[str] = None

    #: The label is reporting metadata, not part of the design point:
    #: repeated shapes under different names share evaluation-cache entries.
    __fingerprint_exclude__ = ("name",)

    def __post_init__(self) -> None:
        full: Dict[LoopDim, int] = {dim: 1 for dim in ALL_DIMS}
        for dim, size in dict(self.dims).items():
            if not isinstance(dim, LoopDim):
                dim = LoopDim(dim)
            if not isinstance(size, int) or size < 1:
                raise ValueError(f"loop bound {dim} must be a positive int, got {size!r}")
            full[dim] = size
        object.__setattr__(self, "dims", full)
        for attr in ("stride_x", "stride_y", "dilation_x", "dilation_y"):
            if getattr(self, attr) < 1:
                raise ValueError(f"{attr} must be >= 1")
        self._check_type_constraints()

    def _check_type_constraints(self) -> None:
        if self.layer_type is LayerType.DENSE:
            for dim in (LoopDim.OX, LoopDim.OY, LoopDim.FX, LoopDim.FY):
                if self.dims[dim] != 1:
                    raise ValueError(f"Dense layer must have {dim} == 1, got {self.dims[dim]}")
        if self.layer_type is LayerType.POINTWISE:
            for dim in (LoopDim.FX, LoopDim.FY):
                if self.dims[dim] != 1:
                    raise ValueError(f"Pointwise layer must have {dim} == 1")
        if self.layer_type is LayerType.DEPTHWISE and self.dims[LoopDim.C] != 1:
            raise ValueError("Depthwise layer uses K as the channel dim; C must be 1")

    # ------------------------------------------------------------------ #
    # Derived quantities
    # ------------------------------------------------------------------ #

    def size(self, dim: LoopDim) -> int:
        """Loop bound of ``dim`` (1 when the dimension is absent)."""
        return self.dims[dim]

    @property
    def total_macs(self) -> int:
        """Total multiply-accumulate operations of the layer."""
        return math.prod(self.dims.values())

    def relevance(self, operand: Operand, dim: LoopDim, pr_as_r: bool = False) -> str:
        """Layer-type-aware r/ir/pr classification of ``dim`` for ``operand``.

        Identical to :func:`repro.workload.dims.relevance_of` except for
        depthwise layers, where the input operand shares the channel loop K
        with the output (so K is relevant, not irrelevant, for I).
        """
        if (
            self.layer_type is LayerType.DEPTHWISE
            and operand is Operand.I
            and dim is LoopDim.K
        ):
            return "r"
        return relevance_of(operand, dim, pr_as_r=pr_as_r)

    def input_extent_x(self, ox: int, fx: int) -> int:
        """Input-x elements covered by ``ox`` outputs and ``fx`` filter taps."""
        if ox < 1 or fx < 1:
            raise ValueError("extents must be >= 1")
        return (ox - 1) * self.stride_x + (fx - 1) * self.dilation_x + 1

    def input_extent_y(self, oy: int, fy: int) -> int:
        """Input-y elements covered by ``oy`` outputs and ``fy`` filter taps."""
        if oy < 1 or fy < 1:
            raise ValueError("extents must be >= 1")
        return (oy - 1) * self.stride_y + (fy - 1) * self.dilation_y + 1

    def operand_elements(self, operand: Operand) -> int:
        """Total number of elements of ``operand`` touched by the layer."""
        from repro.mapping.footprint import extent_elements

        return extent_elements(self, operand, self.dims)

    def operand_bits(self, operand: Operand) -> int:
        """Total data size of ``operand`` in bits (final output precision)."""
        return self.operand_elements(operand) * self.precision.of(operand)

    @property
    def total_data_bits(self) -> int:
        """Sum of all three operands' data sizes in bits."""
        return sum(self.operand_bits(op) for op in Operand)

    def with_dims(self, **overrides: int) -> "LayerSpec":
        """Copy of this layer with some loop bounds replaced (by dim name)."""
        dims = {dim: size for dim, size in self.dims.items()}
        for key, value in overrides.items():
            dims[LoopDim(key)] = value
        return dataclasses.replace(self, dims=dims)

    def describe(self) -> str:
        """One-line human-readable summary of the layer."""
        parts = [f"{dim}={size}" for dim, size in self.dims.items() if size > 1]
        label = self.name or self.layer_type.value
        return f"{label}({', '.join(parts) or 'scalar'}) macs={self.total_macs}"
