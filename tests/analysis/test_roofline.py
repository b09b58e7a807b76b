"""Roofline analysis."""

import pytest

from repro.analysis.roofline import (
    RooflinePoint,
    compare_with_roofline,
    roofline_point,
    roofline_sweep,
)
from repro.dse.mapper import MapperConfig, TemporalMapper
from repro.workload.generator import dense_layer


@pytest.fixture(scope="module")
def setup(request):
    from repro.hardware.presets import case_study_accelerator

    preset = case_study_accelerator()
    layer = dense_layer(64, 128, 1200)
    mapper = TemporalMapper(
        preset.accelerator, preset.spatial_unrolling,
        MapperConfig(max_enumerated=120, samples=80),
    )
    best = mapper.best_mapping(layer)
    return preset.accelerator, best.mapping, best.report


def test_point_coordinates(setup):
    acc, mapping, __ = setup
    point = roofline_point(acc, mapping)
    assert point.macs == 64 * 128 * 1200
    assert point.boundary_bits > 0
    assert point.peak_macs_per_cycle == 256
    assert point.boundary_bw_bits == 256  # rd + wr ports
    assert point.bound in ("compute", "memory")
    assert "OI=" in point.describe()


def test_attainable_is_min_of_roofs():
    compute_bound = RooflinePoint(
        macs=1_000_000, boundary_bits=1_000.0,
        peak_macs_per_cycle=256, boundary_bw_bits=128,
    )
    assert compute_bound.bound == "compute"
    assert compute_bound.attainable_macs_per_cycle == 256
    memory_bound = RooflinePoint(
        macs=1_000, boundary_bits=1_000_000.0,
        peak_macs_per_cycle=256, boundary_bw_bits=128,
    )
    assert memory_bound.bound == "memory"
    assert memory_bound.attainable_macs_per_cycle == pytest.approx(0.128)


def test_model_never_beats_roofline(setup):
    acc, mapping, report = setup
    comparison = compare_with_roofline(acc, mapping, report)
    assert comparison.model_cycles >= comparison.roofline_cycles * (1 - 1e-9)
    assert comparison.roofline_optimism >= 1 - 1e-9
    assert comparison.stall_beyond_roofline >= 0


def test_reuse_raises_operational_intensity(setup):
    """A mapping with more GB reuse has higher OI than a streaming one."""
    acc, best_mapping, __ = setup
    from repro.dse.mapper import TemporalMapper as TM

    preset_spatial = best_mapping.spatial
    mapper = TM(acc, preset_spatial, MapperConfig(max_enumerated=0, samples=4, seed=1))
    layer = best_mapping.layer
    sampled = next(mapper.mappings(layer))
    points = roofline_sweep(acc, {"best": best_mapping, "sampled": sampled})
    assert points["best"].operational_intensity > 0
    # The optimized mapping never moves more GB bits than a random one by
    # more than noise (it was chosen to minimize stalls, which correlate).
    assert (
        points["best"].boundary_bits
        <= points["sampled"].boundary_bits * 1.5
    )


def test_infinite_oi_for_zero_traffic():
    point = RooflinePoint(
        macs=100, boundary_bits=0.0, peak_macs_per_cycle=4, boundary_bw_bits=8,
    )
    assert point.operational_intensity == float("inf")
    assert point.bound == "compute"
