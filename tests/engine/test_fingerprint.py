"""Fingerprint stability: equal objects agree, any mutation disagrees."""

import dataclasses
import json
from pathlib import Path

import pytest

from repro.core.step1 import ModelOptions
from repro.core.sensitivity import scale_memory_bandwidth, scale_memory_capacity
from repro.dse.mapper import MapperConfig, TemporalMapper
from repro.fingerprint import canonical_payload, stable_fingerprint
from repro.hardware.presets import case_study_accelerator, inhouse_accelerator
from repro.hardware.serde import (
    preset_fingerprint,
    preset_from_json,
    preset_to_json,
)
from repro.mapping.loop import Loop
from repro.mapping.mapping import Mapping
from repro.mapping.spatial import SpatialMapping
from repro.mapping.temporal import TemporalMapping
from repro.workload.dims import LoopDim
from repro.workload.generator import dense_layer
from repro.workload.operand import Operand


@pytest.fixture
def preset():
    return case_study_accelerator()


@pytest.fixture
def mapping(preset):
    mapper = TemporalMapper(
        preset.accelerator,
        preset.spatial_unrolling,
        MapperConfig(max_enumerated=50, samples=30),
    )
    return next(iter(mapper.mappings(dense_layer(16, 32, 64))))


# --------------------------------------------------------------------- #
# Equality across construction paths
# --------------------------------------------------------------------- #

def test_same_preset_built_twice_agrees(preset):
    assert (
        preset.accelerator.fingerprint()
        == case_study_accelerator().accelerator.fingerprint()
    )


def test_serde_round_trip_agrees(preset):
    restored = preset_from_json(preset_to_json(preset))
    assert restored.accelerator.fingerprint() == preset.accelerator.fingerprint()
    assert preset_fingerprint(restored) == preset_fingerprint(preset)


def test_dataclass_replace_copy_agrees(preset):
    copy = dataclasses.replace(preset.accelerator)
    assert copy is not preset.accelerator
    assert copy.fingerprint() == preset.accelerator.fingerprint()


def test_mapping_built_twice_agrees(preset, mapping):
    mapper = TemporalMapper(
        preset.accelerator,
        preset.spatial_unrolling,
        MapperConfig(max_enumerated=50, samples=30),
    )
    again = next(iter(mapper.mappings(dense_layer(16, 32, 64))))
    assert again.fingerprint() == mapping.fingerprint()


def test_options_fingerprint_stable():
    assert stable_fingerprint(ModelOptions()) == stable_fingerprint(ModelOptions())


# --------------------------------------------------------------------- #
# Sensitivity to mutation
# --------------------------------------------------------------------- #

def test_different_machines_disagree(preset):
    assert (
        preset.accelerator.fingerprint()
        != inhouse_accelerator().accelerator.fingerprint()
    )


def test_bandwidth_mutation_changes_fingerprint(preset):
    scaled = scale_memory_bandwidth(preset.accelerator, "GB", 999.0)
    assert scaled.fingerprint() != preset.accelerator.fingerprint()


def test_capacity_mutation_changes_fingerprint(preset):
    old = preset.accelerator.memory_by_name("GB").instance.size_bits
    scaled = scale_memory_capacity(preset.accelerator, "GB", old * 2)
    assert scaled.fingerprint() != preset.accelerator.fingerprint()


def test_name_mutation_changes_fingerprint(preset):
    renamed = dataclasses.replace(preset.accelerator, name="other")
    assert renamed.fingerprint() != preset.accelerator.fingerprint()


def test_different_mappings_disagree(preset):
    mapper = TemporalMapper(
        preset.accelerator,
        preset.spatial_unrolling,
        MapperConfig(max_enumerated=50, samples=30),
    )
    seen = {m.fingerprint() for m in mapper.mappings(dense_layer(16, 32, 64))}
    assert len(seen) > 1  # distinct mappings hash apart


def test_options_mutation_changes_fingerprint():
    base = ModelOptions()
    field = dataclasses.fields(ModelOptions)[0].name
    flipped = dataclasses.replace(base, **{field: not getattr(base, field)})
    assert stable_fingerprint(flipped) != stable_fingerprint(base)


# --------------------------------------------------------------------- #
# Canonicalization details
# --------------------------------------------------------------------- #

def test_dict_insertion_order_is_canonicalized():
    assert stable_fingerprint({"a": 1, "b": 2}) == stable_fingerprint(
        {"b": 2, "a": 1}
    )


def test_set_order_is_canonicalized():
    assert canonical_payload({3, 1, 2}) == canonical_payload({2, 3, 1})


def test_fingerprint_is_memoized(preset):
    acc = preset.accelerator
    assert acc.fingerprint() is acc.fingerprint()


# --------------------------------------------------------------------- #
# Pinned digests
# --------------------------------------------------------------------- #
# The engine cache, the ledger's identity columns, ResultStore warm starts
# and benchmarks/baseline_pinned.jsonl all key on these digests, so a
# change to the canonical encoding must be deliberate and show up here.

CASE_STUDY_FP = "aa1e2f5c128a79124ca6bafbb9a1580a2e0e49d35b9ceeb77335f2da801b8c69"
CASE_STUDY_PRESET_FP = "de4e188e56ddf8ce72251d9403c6713019477544d69169b2e9a9ca1e9326d093"
DEFAULT_OPTIONS_FP = "56df8463148583c1d14dd9b81fa4c55c2cf1bd47f5d6e594104a508d7e07f85a"
CASE1_MAPPING_B_FP = "abbf77bd0009c4154a94375cd8e536e562e1bd9c90562100922ff82d9aa9e306"

BASELINE_LEDGER = Path(__file__).resolve().parents[2] / "benchmarks" / "baseline_pinned.jsonl"


def test_pinned_machine_and_options_digests(preset):
    assert preset.accelerator.fingerprint() == CASE_STUDY_FP
    assert preset_fingerprint(preset) == CASE_STUDY_PRESET_FP
    assert stable_fingerprint(ModelOptions()) == DEFAULT_OPTIONS_FP


def test_pinned_case1_mapping_digest(preset):
    """Case 1 Mapping B: all C loops innermost, cuts given explicitly."""
    order = (
        [(LoopDim.C, f) for f in (2, 2, 2, 3, 5, 5)]
        + [(LoopDim.K, 2)] * 3
        + [(LoopDim.B, 2)] * 3
    )
    temporal = TemporalMapping(
        tuple(Loop(dim, size) for dim, size in order),
        {Operand.W: (0, 5), Operand.I: (0, 5), Operand.O: (6,)},
    )
    mapping = Mapping(
        dense_layer(64, 128, 1200), SpatialMapping(preset.spatial_unrolling), temporal
    )
    assert mapping.fingerprint() == CASE1_MAPPING_B_FP


def test_baseline_ledger_identity_matches_preset(preset):
    """The committed regression baseline still names this machine, and
    its Case 1 Mapping B row this mapping."""
    rows = {
        row["label"]: row
        for row in map(json.loads, BASELINE_LEDGER.read_text().splitlines())
    }
    for label in ("case1-mapping-a", "case1-mapping-b"):
        assert rows[label]["accelerator_fp"] == preset.accelerator.fingerprint()
        assert rows[label]["options_fp"] == stable_fingerprint(ModelOptions())
    assert rows["case1-mapping-b"]["mapping_fp"] == CASE1_MAPPING_B_FP


def test_baseline_paper_row_names_the_generated_case():
    """CI builds the ``s0i14m0~paper`` input by seed and id; its baseline
    row still names that case's machine and mapping, under the paper's
    options."""
    from repro.verify.generators import generate_case

    case = generate_case(0, 14)[0]
    row = next(
        row for row in map(json.loads, BASELINE_LEDGER.read_text().splitlines())
        if row["label"] == "s0i14m0~paper"
    )
    assert case.case_id == "s0i14m0"
    assert row["accelerator_fp"] == case.accelerator.fingerprint()
    assert row["mapping_fp"] == case.mapping.fingerprint()
    assert row["options_fp"] == stable_fingerprint(ModelOptions.paper_faithful())


# --------------------------------------------------------------------- #
# Property tests over generated machines (repro.verify.generators)
# --------------------------------------------------------------------- #

GENERATED = __import__(
    "repro.verify.generators", fromlist=["sample_cases"]
).sample_cases(seed=91, count=15)


@pytest.mark.parametrize("case", GENERATED, ids=lambda c: c.case_id)
def test_generated_accelerator_survives_serde_with_same_fingerprint(case):
    from repro.hardware.serde import accelerator_from_dict, accelerator_to_dict

    restored = accelerator_from_dict(accelerator_to_dict(case.accelerator))
    assert restored.fingerprint() == case.accelerator.fingerprint()


@pytest.mark.parametrize("case", GENERATED, ids=lambda c: c.case_id)
def test_layer_display_name_never_changes_mapping_fingerprint(case):
    """Cache keys must not depend on the human-facing layer label."""
    renamed = dataclasses.replace(case.layer, name="renamed-for-display")
    remapped = dataclasses.replace(case.mapping, layer=renamed)
    assert remapped.fingerprint() == case.mapping.fingerprint()


def test_generated_population_hashes_apart():
    fps = {c.accelerator.fingerprint() for c in GENERATED}
    # 15 random machines collapse to far fewer than 15 distinct designs
    # only if the fingerprint ignores sampled axes.
    assert len(fps) >= 8
