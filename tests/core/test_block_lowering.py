"""A mapper block lowers to the arrays of its rows' mapping objects.

The mapper hands the engine its candidates as a
:class:`~repro.mapping.block.MappingBlock`: int columns that become
``Mapping`` objects only when indexed. Lowering reads those columns
directly, so for every row the ``_Lowered`` arrays of the block must equal
those of the same rows built as mappings and packed back into columns
(:func:`~repro.mapping.block.pack`), and every row's key must equal the
``Mapping.cache_key`` of a mapping rebuilt from the row's parts (a built
row's own key memo starts from the row's key).
"""

import random

import numpy as np
import pytest

from repro.core.batch import BatchEvaluator, _Lowered
from repro.dse.mapper import MapperConfig, TemporalMapper
from repro.hardware.presets import (
    case_study_accelerator,
    inhouse_accelerator,
    shared_lb_accelerator,
)
from repro.mapping.block import MappingBlock, pack
from repro.mapping.mapping import Mapping
from repro.verify.generators import GeneratorConfig, sample_cases
from repro.workload.generator import dense_layer
from repro.workload.operand import Operand

from tests.core.test_deep_output_chain import deep_output_machine
from tests.core.test_deep_weight_chain import deep_weight_machine

CASE1_LAYER = dense_layer(64, 128, 1200)
SMALL = MapperConfig(max_enumerated=64, samples=64, batch_size=48)


def _presets():
    for preset in (case_study_accelerator(), inhouse_accelerator(), shared_lb_accelerator()):
        yield (preset.accelerator.name, preset.accelerator, preset.spatial_unrolling,
               CASE1_LAYER, SMALL)


def _generated():
    config = GeneratorConfig()
    seen = set()
    for seed in (0, 1):
        for case in sample_cases(seed, 12, config):
            if case.layer.name in seen:
                continue
            seen.add(case.layer.name)
            yield (case.case_id, case.accelerator, case.spatial_dict, case.layer,
                   MapperConfig(max_enumerated=config.mapper_enumerated,
                                samples=config.mapper_samples, seed=seed))


def _others():
    case = case_study_accelerator()
    yield ("lpf-limit", case.accelerator, case.spatial_unrolling, dense_layer(60, 96, 36),
           MapperConfig(max_enumerated=100, samples=200, seed=5, lpf_limit=2,
                        batch_size=64))
    yield ("deep-weight", deep_weight_machine(), {}, dense_layer(4, 16, 8), SMALL)
    yield ("deep-output", deep_output_machine(), {}, dense_layer(4, 4, 8), SMALL)


CASES = [*_presets(), *_generated(), *_others()]


def _arrays(low):
    """Every array lowering derives, by name."""
    arrays = {
        "prefix_all": low.prefix_all, "prefix_dim": low.prefix_dim,
        "total_cc": low.total_cc, "pad": low.pad, "prefix_ir_o": low.prefix_ir_o,
        "spatial": low.spatial,
    }
    for op in Operand:
        arrays[f"ir_mask.{op}"] = low.ir_mask[op]
        arrays[f"nxt.{op}"] = low.nxt[op]
        arrays[f"prv.{op}"] = low.prv[op]
        arrays[f"cuts.{op}"] = low.cuts[op]
        arrays[f"edge.{op}"] = low.compute_edge_elements(op)
        for level in range(low.plan.depths[op]):
            arrays[f"elements.{op}.{level}"] = low.elements(op, level)
    return arrays


@pytest.mark.parametrize(
    "name, accelerator, spatial, layer, config", CASES, ids=[c[0] for c in CASES]
)
def test_block_lowers_like_its_packed_rows(name, accelerator, spatial, layer, config):
    mapper = TemporalMapper(accelerator, spatial, config)
    plan = BatchEvaluator(accelerator).plan
    blocks = list(mapper.blocks(layer))
    if not blocks:
        pytest.skip("no mapping")
    for block in blocks:
        assert isinstance(block, MappingBlock)
        rows = list(block)
        assert all(row is not other for row, other in zip(rows, block))  # built per index
        packed = pack(rows)
        assert packed.cache_keys() == block.cache_keys()
        fresh = [Mapping(row.layer, row.spatial, row.temporal) for row in rows]
        assert block.cache_keys() == [mapping.cache_key for mapping in fresh]
        assert [row.cache_key for row in rows] == block.cache_keys()
        got = _arrays(_Lowered(plan, layer, block))
        want = _arrays(_Lowered(plan, layer, rows))
        assert got.keys() == want.keys()
        for key in want:
            assert np.array_equal(got[key], want[key]), key


def test_a_row_subset_lowers_like_its_rows():
    """``take`` keeps the block's width; padding-free rows lower alike."""
    name, accelerator, spatial, layer, config = CASES[0]
    block = next(TemporalMapper(accelerator, spatial, config).blocks(layer))
    picked = sorted(random.Random(0).sample(range(len(block)), 9))
    part = block.take(np.array(picked))
    rows = [block[i] for i in picked]
    assert part.cache_keys() == [
        Mapping(row.layer, row.spatial, row.temporal).cache_key for row in rows
    ]
    plan = BatchEvaluator(accelerator).plan
    got, want = _arrays(_Lowered(plan, layer, part)), _arrays(_Lowered(plan, layer, rows))
    for key in want:
        assert np.array_equal(got[key], want[key]), key
