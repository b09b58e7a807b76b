"""Shared fixtures and builders for the test suite.

The machine/mapping builders live in :mod:`repro.testing` (they are part of
the library's public testing utilities); this conftest re-exports them for
terse test imports and adds the pytest fixtures.
"""

from __future__ import annotations

from typing import Mapping as TMapping, Sequence

import pytest

from repro.dse.mapper import MapperConfig, TemporalMapper
from repro.hardware.presets import KB, Preset, build_accelerator, case_study_accelerator
from repro.mapping.loop import Loop
from repro.mapping.mapping import Mapping
from repro.mapping.spatial import SpatialMapping
from repro.mapping.temporal import TemporalMapping
from repro.testing import loops, make_mapping, toy_accelerator  # noqa: F401
from repro.workload.dims import LoopDim
from repro.workload.generator import dense_layer
from repro.workload.layer import LayerSpec
from repro.workload.operand import Operand


@pytest.fixture
def case_preset() -> Preset:
    """The scaled-down Section-V machine."""
    return case_study_accelerator()


@pytest.fixture
def case1_layer() -> LayerSpec:
    """The Case-study-1 layer (CC_ideal = 38400 on the 256-MAC machine)."""
    return dense_layer(64, 128, 1200)


@pytest.fixture
def small_layer() -> LayerSpec:
    """A small Dense layer for fast end-to-end tests."""
    return dense_layer(16, 32, 64)


def uniform_levels(
    layer: LayerSpec,
    spatial: TMapping[LoopDim, int],
    order: Sequence[Loop],
    cuts: TMapping[Operand, Sequence[int]],
) -> Mapping:
    """Mapping from a single global order plus explicit per-operand cuts."""
    temporal = TemporalMapping(tuple(order), {op: tuple(c) for op, c in cuts.items()})
    return Mapping(layer, SpatialMapping(spatial), temporal)


def infeasible_mapping() -> tuple:
    """A machine with 4 KB/2 KB local buffers and a case-study mapping
    that overflows them: deep enough to evaluate, refused by ``check``."""
    small = build_accelerator(
        "small-lb", macs_k=16, macs_b=8, macs_c=2,
        w_lb_bits=4 * KB, i_lb_bits=2 * KB,
    )
    preset = case_study_accelerator()
    mapper = TemporalMapper(
        preset.accelerator, preset.spatial_unrolling,
        MapperConfig(max_enumerated=4, samples=0),
    )
    return small, next(iter(mapper.mappings(dense_layer(64, 128, 1200))))
