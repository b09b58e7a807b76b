"""Mapping blocks: mappings of one layer as int columns.

A search's candidates share their layer and spatial unrolling and differ
only in loop order and cuts, which the mapper already holds as int arrays
(:func:`repro.dse.mapper.order_columns`,
:meth:`~repro.dse.mapper.TemporalMapper.allocate_block`). A
:class:`MappingBlock` keeps them that way: lowering
(:mod:`repro.core.batch`), the engine's cache keys and its depth check
read the columns, and a row becomes a :class:`~repro.mapping.mapping.Mapping`
only when it is indexed, so a search builds objects for what it returns
and not for every candidate it scores or prunes.

:func:`pack` puts a plain sequence of mappings (one layer, any spatial
unrollings) into the same columns; indexing such a block returns the
original objects.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.mapping.loop import Loop
from repro.mapping.mapping import Mapping
from repro.mapping.spatial import SpatialMapping
from repro.mapping.temporal import TemporalMapping
from repro.workload.dims import ALL_DIMS, DIM_CODE
from repro.workload.layer import LayerSpec
from repro.workload.operand import Operand


class BatchLoweringError(ValueError):
    """A mapping set that cannot be lowered into one SoA batch."""


class MappingBlock(Sequence):
    """Rows of mappings of one layer as int64 columns.

    ``dims[r, j]`` is the :data:`~repro.workload.dims.DIM_CODE` of loop
    ``j`` (innermost first) of row ``r`` and ``sizes[r, j]`` its size;
    a row shorter than the block width ``L`` is padded with dimension
    ``-1`` and size 1, which grow no extent. ``cuts[op]`` holds every
    row's cuts for operand ``op``, padded with ``-1`` past the row's own.
    ``spatial`` is the ``(7, n)`` table of spatial unroll factors.
    ``keys[r]`` is row ``r``'s :attr:`Mapping.cache_key`.

    Build one from the mapper's columns with :meth:`from_columns`, or
    from mapping objects with :func:`pack`.
    """

    def __init__(
        self,
        layer: LayerSpec,
        dims: np.ndarray,
        sizes: np.ndarray,
        cuts: Dict[Operand, np.ndarray],
        spatial: np.ndarray,
        keys: Optional[List[Tuple]] = None,
        mappings: Optional[Sequence] = None,
        atoms: Optional[Tuple[SpatialMapping, Dict[Tuple[int, int], Loop]]] = None,
    ) -> None:
        self.layer = layer
        self.dims = dims
        self.sizes = sizes
        self.cuts = cuts
        self.spatial = spatial
        self._keys = keys
        #: The mapping objects of a packed block; else ``atoms``, the
        #: ``(SpatialMapping, {(dim code, size): Loop})`` rows are built of.
        self._mappings = mappings
        self._atoms = atoms

    @classmethod
    def from_columns(
        cls,
        layer: LayerSpec,
        spatial: SpatialMapping,
        dims: np.ndarray,
        sizes: np.ndarray,
        cuts: Dict[Operand, np.ndarray],
        keys: List[Tuple],
        loops: Dict[Tuple[int, int], Loop],
    ) -> "MappingBlock":
        """A block of unpadded rows under one spatial unrolling.

        ``keys`` are the rows' cache keys; ``loops`` maps every
        ``(dim code, size)`` atom to the :class:`Loop` the rows are built
        from, so built rows share one object per atom.
        """
        n = len(dims)
        factors = np.array([spatial.factor(dim) for dim in ALL_DIMS], dtype=np.int64)
        return cls(
            layer, dims, sizes, cuts, np.repeat(factors[:, None], n, axis=1), keys,
            atoms=(spatial, loops),
        )

    # -- Sequence ------------------------------------------------------- #

    def __len__(self) -> int:
        return len(self.dims)

    def __getitem__(self, row: int) -> Mapping:
        """Row ``row`` as a :class:`Mapping` (built on every call)."""
        if self._mappings is not None:
            return self._mappings[row]
        return build_row(self.layer, *self._atoms, self.cache_keys()[row])

    # -- columns -------------------------------------------------------- #

    def cache_keys(self) -> List[Tuple]:
        """:attr:`Mapping.cache_key` of every row, without building rows
        that are not mapping objects already."""
        if self._keys is None:
            self._keys = [mapping.cache_key for mapping in self._mappings]
        return self._keys

    def shallow(self, depths: Dict[Operand, int]) -> np.ndarray:
        """Bool mask of the rows with fewer levels than ``depths`` (per
        operand) for some operand: rows without cut ``depth - 2``."""
        mask = np.zeros(len(self), dtype=bool)
        for op, cut in self.cuts.items():
            last = depths[op] - 2
            if last >= cut.shape[1]:
                mask[:] = True
            elif last >= 0:
                mask |= cut[:, last] < 0
        return mask

    def take(self, rows: np.ndarray) -> "MappingBlock":
        """The block of ``rows`` (int positions), in that order."""
        rows = np.asarray(rows, dtype=np.int64)
        picked = rows.tolist()
        keys, mappings = self._keys, self._mappings
        return MappingBlock(
            self.layer, self.dims[rows], self.sizes[rows],
            {op: cut[rows] for op, cut in self.cuts.items()},
            self.spatial[:, rows],
            None if keys is None else [keys[i] for i in picked],
            None if mappings is None else [mappings[i] for i in picked],
            self._atoms,
        )


def build_row(
    layer: LayerSpec,
    spatial: SpatialMapping,
    loops: Dict[Tuple[int, int], Loop],
    key: Tuple,
) -> Mapping:
    """The :class:`Mapping` of ``layer`` under ``spatial`` whose
    :attr:`~Mapping.cache_key` is ``key``, built of the ``loops`` objects
    (one per ``(dim code, size)``)."""
    __, __, dim_row, size_row, cut = key
    mapping = Mapping(
        layer, spatial,
        TemporalMapping(
            tuple(map(loops.__getitem__, zip(dim_row, size_row))),
            dict(zip(Operand, cut)),
        ),
    )
    # The key is the row it was built from: seed cache_key's memo.
    object.__setattr__(mapping, "_cache_key", key)
    return mapping


def pack(mappings) -> MappingBlock:
    """``mappings`` (one layer) as a :class:`MappingBlock`; a block is
    returned as it is.

    Raises :class:`BatchLoweringError` when the mappings do not share one
    layer.
    """
    if isinstance(mappings, MappingBlock):
        return mappings
    layer = mappings[0].layer
    for mapping in mappings:
        if mapping.layer is not layer and mapping.layer != layer:
            raise BatchLoweringError("batch mappings must share one layer")
    n = len(mappings)
    temporals = [mapping.temporal for mapping in mappings]
    lengths = [len(temporal.loops) for temporal in temporals]
    width = max(lengths)
    dims = np.array([
        [DIM_CODE[loop.dim] for loop in temporal.loops] + [-1] * (width - length)
        for temporal, length in zip(temporals, lengths)
    ], dtype=np.int64).reshape(n, width)
    sizes = np.array([
        [loop.size for loop in temporal.loops] + [1] * (width - length)
        for temporal, length in zip(temporals, lengths)
    ], dtype=np.int64).reshape(n, width)
    cuts: Dict[Operand, np.ndarray] = {}
    for op in Operand:
        rows = [temporal.cuts[op] for temporal in temporals]
        most = max(map(len, rows))
        cuts[op] = np.array(
            [row + (-1,) * (most - len(row)) for row in rows], dtype=np.int64
        ).reshape(n, most)
    spatial = np.array(
        [[mapping.spatial.factor(dim) for dim in ALL_DIMS] for mapping in mappings],
        dtype=np.int64,
    ).T
    return MappingBlock(
        layer, dims, sizes, cuts, spatial, mappings=mappings,
    )
