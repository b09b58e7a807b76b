"""Pinned candidate streams of small seeded searches.

The mapper's candidate stream is a pure function of (machine, spatial
unrolling, layer, config): the same orders, allocated the same way, deduped
in the same order. These cases pin that stream byte for byte — the
fingerprints of the emitted mappings in yield order, the mapper funnel's
provenance counts and ``engine.stats.dedup_skipped`` — so a change to
allocation or dedup that reorders, drops or adds a candidate fails here
even when the winner happens to survive. Each case samples (its space is
above ``max_enumerated``), so seed orders, the enumeration prefix and
chunked random samples with cross-chunk duplicates are all exercised.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.dse.mapper import MapperConfig, TemporalMapper
from repro.hardware.presets import case_study_accelerator, inhouse_accelerator
from repro.observability.campaign import CampaignRecorder
from repro.observability.telemetry import use_telemetry
from repro.workload.dims import LoopDim
from repro.workload.generator import dense_layer
from repro.workload.layer import LayerSpec, LayerType


def _conv() -> LayerSpec:
    return LayerSpec(
        LayerType.CONV2D,
        {LoopDim.B: 1, LoopDim.K: 32, LoopDim.C: 24, LoopDim.OX: 14,
         LoopDim.OY: 14, LoopDim.FX: 3, LoopDim.FY: 3},
        stride_x=2,
    )


CASES = {
    "case-dense": (
        case_study_accelerator, lambda: dense_layer(96, 192, 20),
        MapperConfig(max_enumerated=100, samples=400, seed=11, sample_chunk=32),
    ),
    "case-dense-lpf2": (
        case_study_accelerator, lambda: dense_layer(60, 96, 36),
        MapperConfig(max_enumerated=100, samples=300, seed=5, sample_chunk=16,
                     lpf_limit=2),
    ),
    "inhouse-conv": (
        inhouse_accelerator, _conv,
        MapperConfig(max_enumerated=200, samples=300, seed=3, sample_chunk=64),
    ),
}

#: case -> (emitted, sha256 of the newline-joined fingerprints, first
#: fingerprint, funnel enumerated, funnel provenance, dedup_skipped).
PINNED = {
    "case-dense": (
        291, "6a86ad8ba580377977e1149d4e98d7f528042e95cff4d2eac1030408bf661849",
        "e4eb634311eaf8e76374b1f71a8a800d6b5d6250b7b30acf47e5ade86a2f2987",
        400, {"canonical-equivalent": 102, "duplicate": 7}, 102,
    ),
    "case-dense-lpf2": (
        171, "ec515b74a6f6cfa0515cb2317e8d0ad27a1becff257c67b2d39e78c89be98549",
        "f3883a1088ce8254dd3fe7b7881c077205d58d0e77d955a9a995cb24fb4b6250",
        300, {"canonical-equivalent": 79, "duplicate": 50}, 79,
    ),
    "inhouse-conv": (
        232, "bbecc6a3b2b70f900e9d0aeb04fe6f8458f9593e27337c4ca5e106dab0fc537a",
        "3d52c24c59beea74ff12816b8272bb5d882a79432823de10fc09bd2e6cc4e2f2",
        300, {"canonical-equivalent": 66, "duplicate": 2}, 66,
    ),
}


def _mapper(name):
    preset, layer, config = CASES[name]
    machine = preset()
    return TemporalMapper(machine.accelerator, machine.spatial_unrolling, config), layer()


@pytest.mark.parametrize("name", sorted(CASES))
def test_candidate_stream_is_pinned(name):
    mapper, layer = _mapper(name)
    campaign = CampaignRecorder("pin", clock=lambda: 0.0)
    with use_telemetry(campaign=campaign):
        fingerprints = [m.fingerprint() for m in mapper.mappings(layer)]
    funnel = campaign.phase("mapper")
    emitted, digest, first, enumerated, provenance, skipped = PINNED[name]
    assert len(fingerprints) == emitted
    assert fingerprints[0] == first
    assert hashlib.sha256("\n".join(fingerprints).encode()).hexdigest() == digest
    assert funnel.enumerated == enumerated
    # admit = duplicate + canonical-equivalent + mapping-error + emitted.
    assert funnel.provenance == provenance
    assert mapper.engine.stats.dedup_skipped == skipped


#: case -> (best objective, fingerprints of the top 3 in rank order).
PINNED_TOP = {
    "case-dense": (5114.0, [
        "30e614f00b550d851ade6f599df2c451cce982d76e0ec537eafb844b6f24b14e",
        "f0e5bb58af029559218f958771c1f53b5481bca2abaf1e5ad2216d791543441a",
        "830230b2d878a1c8346397c12ae7962b03d2efa8f2de19f896bcdaa2a005c140",
    ]),
    "inhouse-conv": (42625.0, [
        "d8584446eee59d6b7c031790342581cd180f48e3d01b8b1cb62bc2af080d00c7",
        "799a087a5b104646d18435cc85e9baaa1fb41846a0feeb8570baf86e64b6b508",
        "09a096daddaca515c7875f5f8e50917b1831ca6561182b4d165a290e7c6fb54a",
    ]),
}


@pytest.mark.parametrize("name", sorted(PINNED_TOP))
def test_search_top_k_is_pinned(name):
    mapper, layer = _mapper(name)
    results = mapper.search(layer)
    best, top = PINNED_TOP[name]
    assert results[0].objective == best
    assert [r.mapping.fingerprint() for r in results[:3]] == top
