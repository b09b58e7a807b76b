"""Pinned output of the vectorized batch core on seeded Case 2 sweeps.

Every report of a seeded Case 2 workload sweep (``bkc_sweep``, each
layer's mapper candidates evaluated as one batch) is folded into one
SHA-256 over ``repr`` of the fields the ledger, rankings and bottleneck
lists consume. Any change to lowering, Steps 1-3 or report assembly
that moves one bit of one lane fails here, even when batch/scalar parity
still holds because both paths moved together.

The lowering oracle below checks the memoized per-``(operand, boundary)``
footprint elements against the scalar
:func:`~repro.mapping.footprint.operand_footprint_elements`, lane by lane,
on ragged batches (mixed loop counts, a 0-loop lane, all-size-1 layers).
"""

from __future__ import annotations

import hashlib
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.batch import BatchEvaluator, _Lowered
from repro.core.step1 import ModelOptions
from repro.dse.mapper import MapperConfig, TemporalMapper
from repro.hardware.presets import (
    case_study_accelerator,
    inhouse_accelerator,
    shared_lb_accelerator,
)
from repro.mapping.footprint import operand_footprint_elements
from repro.mapping.loop import Loop
from repro.mapping.mapping import Mapping
from repro.mapping.spatial import SpatialMapping
from repro.mapping.temporal import TemporalMapping
from repro.testing import toy_accelerator
from repro.workload.dims import ALL_DIMS, LoopDim
from repro.workload.generator import bkc_sweep
from repro.workload.layer import LayerSpec, LayerType
from repro.workload.operand import Operand

OPTIONS = {
    "default": ModelOptions(),
    "paper": ModelOptions(
        served_rule="paper", combine_rule="paper", paper_period_count=True
    ),
    "sum-noext": ModelOptions(
        served_rule="sum", residency_extension=False, compute_edges=False
    ),
}

#: case -> (machine, options, sweep values, samples, reports, sha256).
PINNED = {
    "case-default": (
        case_study_accelerator, "default", (8, 128, 512), 192, 2512,
        "8c2171ef221a1655cf18e2f0f8fcc6d62f2d5680d1949eacea0b2f18fb8ecbd3",
    ),
    "case-paper": (
        case_study_accelerator, "paper", (8, 128, 512), 192, 2512,
        "28c942961c8b174140207a5ffc76a8d60ec001deed677976bcb6fdc7f1043c18",
    ),
    "case-sum-noext": (
        case_study_accelerator, "sum-noext", (8, 128, 512), 192, 2512,
        "367248030cc020d6b073abf034904978096b91ec7f4b18fc4fddce0116e2c97c",
    ),
    "inhouse-default": (
        inhouse_accelerator, "default", (8, 128, 512), 192, 2308,
        "0eb74de31651a7d90ef7a7edd140719821b5c5c1bb30e0b695fd42896a219427",
    ),
    "shared-lb-default": (
        shared_lb_accelerator, "default", (8, 512), 48, 222,
        "cc76b5d952c4d029c8cd5f6e6fe78bb5be0538b2db2a0923eaa597f47b265a0f",
    ),
}


def _sweep_digest(machine, options: ModelOptions, values, samples: int):
    preset = machine()
    evaluator = BatchEvaluator(preset.accelerator, options)
    digest = hashlib.sha256()
    count = 0
    for layer in bkc_sweep(values=values):
        mapper = TemporalMapper(
            preset.accelerator,
            preset.spatial_unrolling,
            MapperConfig(max_enumerated=64, samples=samples, seed=7),
        )
        for r in evaluator.evaluate(list(mapper.mappings(layer))).reports:
            digest.update(repr((
                r.total_cycles, r.ss_overall, r.preload, r.offload,
                r.scenario, r.served_stalls, r.integration,
            )).encode())
            count += 1
    return count, digest.hexdigest()


@pytest.mark.parametrize("case", sorted(PINNED))
def test_batch_reports_match_the_pinned_digest(case):
    machine, options, values, samples, count, sha = PINNED[case]
    assert _sweep_digest(machine, OPTIONS[options], values, samples) == (count, sha)



# --------------------------------------------------------------------- #
# Lowering oracle
# --------------------------------------------------------------------- #

MACHINES = {
    "case-study": case_study_accelerator().accelerator,
    "inhouse": inhouse_accelerator().accelerator,
    "toy": toy_accelerator(),
}


@st.composite
def ragged_batches(draw):
    """(machine, lanes of one layer with mixed loop counts).

    Lane 0 unrolls every dimension fully in space, so it has no temporal
    loop; the others split each dimension's remaining iterations into a
    random number of loops, in a random order with random cuts.
    """
    accelerator = MACHINES[draw(st.sampled_from(sorted(MACHINES)))]
    depthwise = draw(st.booleans())
    sizes = {dim: draw(st.integers(1, 6)) for dim in ALL_DIMS}
    if depthwise:
        sizes[LoopDim.C] = 1
    layer = LayerSpec(
        LayerType.DEPTHWISE if depthwise else LayerType.CONV2D,
        sizes,
        stride_x=draw(st.integers(1, 2)),
        dilation_y=draw(st.integers(1, 2)),
    )
    lanes = []
    for lane in range(draw(st.integers(1, 6))):
        spatial = {}
        loops = []
        for dim in ALL_DIMS:
            factor = sizes[dim] if lane == 0 else draw(st.integers(1, sizes[dim]))
            spatial[dim] = factor
            bound = math.ceil(sizes[dim] / factor)
            while bound > 1:
                split = draw(st.sampled_from(
                    [d for d in range(2, bound + 1) if bound % d == 0]
                ))
                loops.append(Loop(dim, split))
                bound //= split
        order = tuple(draw(st.permutations(loops)))
        cuts = {
            operand: tuple(sorted(draw(st.lists(
                st.integers(0, len(order)),
                min_size=accelerator.hierarchy.depth(operand) - 1,
                max_size=accelerator.hierarchy.depth(operand) - 1,
            ))))
            for operand in Operand
        }
        lanes.append(
            Mapping(layer, SpatialMapping(spatial), TemporalMapping(order, cuts))
        )
    return accelerator, draw(st.permutations(lanes))


@settings(max_examples=150, deadline=None)
@given(ragged_batches())
def test_lowered_footprints_equal_the_scalar_footprint_lane_by_lane(batch):
    accelerator, mappings = batch
    low = _Lowered(BatchEvaluator(accelerator).plan, mappings[0].layer, mappings)
    assert min(len(m.temporal.loops) for m in mappings) == 0
    for operand in Operand:
        for level in range(accelerator.hierarchy.depth(operand)):
            got = low.elements(operand, level)
            # Memoized: every later ask gets the same array back.
            assert low.elements(operand, level) is got
            want = [
                operand_footprint_elements(
                    m.layer, operand, m.temporal, m.spatial, level
                )
                for m in mappings
            ]
            assert got.tolist() == want, (operand, level)


def test_all_size_one_layer_lowers_to_zero_loops():
    layer = LayerSpec(LayerType.CONV2D, {})
    accelerator = MACHINES["case-study"]
    cuts = {
        op: (0,) * (accelerator.hierarchy.depth(op) - 1) for op in Operand
    }
    mappings = [Mapping(layer, SpatialMapping({}), TemporalMapping((), cuts))] * 3
    low = _Lowered(BatchEvaluator(accelerator).plan, layer, mappings)
    assert low.L == 0 and low.total_cc.tolist() == [1, 1, 1]
    for operand in Operand:
        for level in range(accelerator.hierarchy.depth(operand)):
            assert low.elements(operand, level).tolist() == [1, 1, 1]
