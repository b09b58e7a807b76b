"""A latency search builds mapping objects only for its block winners.

The mapper's candidates stay int columns (``MappingBlock``) through
lowering, cache keys, the depth check and the bound-first ``best_of``; a
row becomes a ``Mapping`` only when it wins its block. ``mappings()`` is a
view that builds every row of the same blocks, in the same order. The
column checks and the canonical dedup form equal the per-row code they
replaced: the mapping constructors and a per-row loop.
"""

import random

import numpy as np
import pytest

from repro.dse.mapper import (
    MapperConfig,
    TemporalMapper,
    _canonical_sizes,
    order_columns,
)
from repro.hardware.presets import case_study_accelerator
from repro.mapping.loop import Loop
from repro.mapping.mapping import Mapping
from repro.mapping.temporal import TemporalMapping
from repro.workload.dims import ALL_DIMS
from repro.workload.generator import bkc_sweep, dense_layer
from repro.workload.operand import Operand

CASE2 = bkc_sweep(values=(8, 128, 512))


@pytest.mark.parametrize("batch_size", [256, 16])
def test_best_mapping_builds_one_mapping_per_block_winner(batch_size, monkeypatch):
    preset = case_study_accelerator()
    config = MapperConfig(max_enumerated=64, samples=64, seed=0, batch_size=batch_size)
    built = []
    winners = []
    post_init = Mapping.__post_init__
    block_best = TemporalMapper._block_best

    def counting_post_init(self):
        built.append(self)
        post_init(self)

    def counting_block_best(self, block, incumbent):
        found = block_best(self, block, incumbent)
        winners.append(found[0] is not None)
        return found

    monkeypatch.setattr(Mapping, "__post_init__", counting_post_init)
    monkeypatch.setattr(TemporalMapper, "_block_best", counting_block_best)
    blocks = 0
    for layer in CASE2:
        mapper = TemporalMapper(preset.accelerator, preset.spatial_unrolling, config)
        del built[:], winners[:]
        best = mapper.best_mapping(layer)
        blocks += len(winners)
        assert 1 <= len(built) <= sum(winners), layer.name
        assert best.mapping is built[-1]
    if batch_size == 16:
        assert blocks > len(CASE2)  # several blocks per search


def test_mappings_are_the_rows_of_the_blocks_in_order():
    preset = case_study_accelerator()
    config = MapperConfig(max_enumerated=64, samples=64, seed=3, batch_size=20)
    layer = CASE2[5]
    mapper = TemporalMapper(preset.accelerator, preset.spatial_unrolling, config)
    rows = [row for block in mapper.blocks(layer) for row in block]
    streamed = list(TemporalMapper(
        preset.accelerator, preset.spatial_unrolling, config
    ).mappings(layer))
    assert [m.fingerprint() for m in rows] == [m.fingerprint() for m in streamed]
    assert [len(block) for block in mapper.blocks(layer)][:-1] == [20] * (len(rows) // 20)


def _canonical_loop(dims, sizes, cuts):
    """The per-row loop the vectorized canonical form replaced: sort the
    sizes of every maximal run of equal dimensions no cut splits."""
    boundaries = {c for cut in cuts for c in cut}
    canon, i = [], 0
    while i < len(dims):
        j = i + 1
        while j < len(dims) and dims[j] == dims[i] and j not in boundaries:
            j += 1
        canon.extend(sorted(sizes[i:j]))
        i = j
    return tuple(canon)


@pytest.mark.parametrize("seed", range(4))
def test_canonical_sizes_equal_the_per_row_loop(seed):
    preset = case_study_accelerator()
    config = MapperConfig(max_enumerated=50, samples=200, seed=seed, lpf_limit=seed or None)
    mapper = TemporalMapper(preset.accelerator, preset.spatial_unrolling, config)
    layer = dense_layer(96, 192, 20) if seed % 2 else dense_layer(60, 96, 36)
    orders = list(mapper.orders(layer))
    dims, sizes, lengths = order_columns(orders)
    cuts = mapper.allocate_block(layer, dims, sizes, lengths)
    got = _canonical_sizes(dims, sizes, cuts).tolist()
    for row, canon in enumerate(got):
        cut = tuple(tuple(cuts[op][row].tolist()) for op in Operand)
        assert tuple(canon) == _canonical_loop(
            dims[row].tolist(), sizes[row].tolist(), cut
        )


def test_valid_rows_accept_what_the_mapping_constructors_accept():
    preset = case_study_accelerator()
    mapper = TemporalMapper(
        preset.accelerator, preset.spatial_unrolling,
        MapperConfig(max_enumerated=64, samples=64),
    )
    layer = dense_layer(64, 128, 1200)
    dims, sizes, lengths = order_columns(list(mapper.orders(layer)))
    cuts = mapper.allocate_block(layer, dims, sizes, lengths)
    rng = random.Random(0)
    rows = len(dims)
    for row in range(0, rows, 2):  # corrupt every other row one way
        kind = rng.choice(("size", "range", "order"))
        op = rng.choice(list(Operand))
        if kind == "size":
            sizes[row, rng.randrange(sizes.shape[1])] *= 2
        elif kind == "range" and cuts[op].shape[1]:
            cuts[op][row, -1] = lengths[row] + 1
        elif cuts[op].shape[1] > 1:
            cuts[op][row, 0] = cuts[op][row, 1] + 1
    bounds = np.array([mapper.spatial.temporal_bound(dim, layer) for dim in ALL_DIMS])
    valid = mapper._valid_rows(dims, sizes, lengths, cuts, bounds)
    for row in range(rows):
        loops = tuple(Loop(ALL_DIMS[d], s) for d, s in zip(dims[row], sizes[row].tolist()))
        try:
            Mapping(layer, mapper.spatial, TemporalMapping(
                loops, {op: tuple(cuts[op][row].tolist()) for op in Operand}
            ))
            accepted = True
        except ValueError:  # MappingError is a ValueError
            accepted = False
        assert valid[row] == accepted, row
    assert not valid.all() and valid.any()
