"""Synthetic workload generators: sweeps for Case study 2 and random layers.

Case study 2 (Fig. 7) varies the Dense layer dimensions B/K/C between 8 and
512 on a fixed accelerator and inspects the latency breakdown.
:func:`bkc_sweep` regenerates the swept layer list; :func:`dense_layer` is
the one-liner used throughout examples and tests, and
:func:`parse_dense_layer` reads its ``B,K,C`` shorthand.
"""

from __future__ import annotations

import operator
import random
from typing import Iterable, List, Optional, Sequence, Tuple, Union

from repro.workload.dims import LoopDim
from repro.workload.layer import LayerSpec, LayerType, Precision


def dense_layer(
    b: int,
    k: int,
    c: int,
    precision: Optional[Precision] = None,
    name: Optional[str] = None,
) -> LayerSpec:
    """A Dense (GEMM) layer with bounds B=b, K=k, C=c."""
    return LayerSpec(
        LayerType.DENSE,
        {LoopDim.B: b, LoopDim.K: k, LoopDim.C: c},
        precision=precision or Precision(),
        name=name or f"dense({b},{k},{c})",
    )


def parse_dense_layer(spec: Union[str, Sequence[int]]) -> LayerSpec:
    """The Dense layer of a ``"B,K,C"`` string or a ``(B, K, C)`` sequence.

    Raises :class:`ValueError`, naming the ``B,K,C`` form, unless there
    are exactly three integer parts (floats such as ``64.7`` and words
    are rejected, never truncated).
    """
    try:
        parts = spec.split(",") if isinstance(spec, str) else list(spec)
        bounds = [int(p) if isinstance(p, str) else operator.index(p) for p in parts]
    except (TypeError, ValueError):
        bounds = []
    if len(bounds) != 3:
        raise ValueError(
            f"layer must be three integers B,K,C (e.g. 64,128,1200), "
            f"got {spec!r}"
        )
    return dense_layer(*bounds)


def bkc_sweep(
    values: Sequence[int] = (8, 32, 128, 512),
    precision: Optional[Precision] = None,
) -> List[LayerSpec]:
    """The Case-study-2 workload sweep: Dense layers over a (B, K, C) grid.

    The paper sweeps B/K/C from 8 to 512 and highlights Output-dominant
    corners such as (128, 128, 8) and (512, 512, 8). The full cube is large;
    following the figure, we sweep the diagonal-heavy subset: all triples
    where at least two of the three dims share a value from ``values``.
    """
    triples: List[Tuple[int, int, int]] = []
    for v in values:
        for w in values:
            triples.append((v, v, w))  # B=K plane (the figure's main axis)
            if w != v:
                triples.append((v, w, v))
                triples.append((w, v, v))
    seen = set()
    layers = []
    for b, k, c in triples:
        if (b, k, c) in seen:
            continue
        seen.add((b, k, c))
        layers.append(dense_layer(b, k, c, precision=precision))
    return layers


def scale_layer(layer: LayerSpec, factor: int) -> LayerSpec:
    """Scale every non-unit loop bound of ``layer`` by ``factor``."""
    if factor < 1:
        raise ValueError("factor must be >= 1")
    overrides = {
        dim.value: size * factor for dim, size in layer.dims.items() if size > 1
    }
    return layer.with_dims(**overrides)


def random_dense_layer(
    rng: random.Random,
    max_size: int = 256,
    pow2: bool = False,
) -> LayerSpec:
    """A random Dense layer, used by property-based tests.

    ``pow2`` restricts bounds to powers of two (the friendly case for
    spatial mappings); otherwise bounds are arbitrary in [1, max_size].
    """
    def draw() -> int:
        if pow2:
            return 2 ** rng.randint(0, max(0, max_size.bit_length() - 1))
        return rng.randint(1, max_size)

    return dense_layer(draw(), draw(), draw())


def layers_from_triples(triples: Iterable[Tuple[int, int, int]]) -> List[LayerSpec]:
    """Dense layers from explicit (B, K, C) triples (paper-figure corners)."""
    return [dense_layer(b, k, c) for b, k, c in triples]
