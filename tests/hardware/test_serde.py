"""JSON round-tripping of accelerator descriptions."""

import json

import pytest

from repro.hardware.presets import case_study_accelerator, inhouse_accelerator
from repro.hardware.serde import (
    SerdeError,
    accelerator_from_dict,
    accelerator_to_dict,
    load_preset,
    preset_from_json,
    preset_to_json,
    save_preset,
)
from repro.workload.operand import Operand

from tests.conftest import toy_accelerator


@pytest.mark.parametrize("factory", [case_study_accelerator, inhouse_accelerator])
def test_preset_roundtrip(factory):
    preset = factory()
    text = preset_to_json(preset)
    restored = preset_from_json(text)
    acc0, acc1 = preset.accelerator, restored.accelerator
    assert acc1.name == acc0.name
    assert acc1.mac_array == acc0.mac_array
    assert restored.spatial_unrolling == preset.spatial_unrolling
    assert set(acc1.memory_names()) == set(acc0.memory_names())
    for name in acc0.memory_names():
        m0, m1 = acc0.memory_by_name(name), acc1.memory_by_name(name)
        assert m1.instance == m0.instance
        assert m1.serves == m0.serves
        assert dict(m1.allocation) == dict(m0.allocation)
    for op in Operand:
        assert [l.name for l in acc1.hierarchy.levels(op)] == [
            l.name for l in acc0.hierarchy.levels(op)
        ]


def test_roundtrip_preserves_shared_levels():
    preset = case_study_accelerator()
    restored = preset_from_json(preset_to_json(preset))
    h = restored.accelerator.hierarchy
    # The GB level object must be SHARED across chains after restore.
    assert h.outermost(Operand.W) is h.outermost(Operand.I)
    assert h.outermost(Operand.W) is h.outermost(Operand.O)


def test_roundtrip_model_equivalence(case1_layer):
    """A restored machine produces identical latency reports."""
    from repro.core.model import LatencyModel
    from repro.dse.mapper import MapperConfig, TemporalMapper

    preset = case_study_accelerator()
    restored = preset_from_json(preset_to_json(preset))
    mapper = TemporalMapper(
        preset.accelerator, preset.spatial_unrolling,
        MapperConfig(max_enumerated=10, samples=10),
    )
    mapping = next(mapper.mappings(case1_layer))
    original = LatencyModel(preset.accelerator).evaluate(mapping)
    again = LatencyModel(restored.accelerator).evaluate(mapping)
    assert again.total_cycles == pytest.approx(original.total_cycles)
    assert again.ss_overall == pytest.approx(original.ss_overall)


def test_file_roundtrip(tmp_path):
    preset = case_study_accelerator()
    path = tmp_path / "arch.json"
    save_preset(preset, str(path))
    restored = load_preset(str(path))
    assert restored.accelerator.name == preset.accelerator.name


def test_stall_overlap_roundtrip():
    from repro.hardware.accelerator import StallOverlapConfig
    from repro.hardware.presets import Preset

    acc = toy_accelerator(
        stall_overlap=StallOverlapConfig((frozenset({"GB"}), frozenset({"W-Reg"})))
    )
    restored = preset_from_json(preset_to_json(Preset(acc, {})))
    overlap = restored.accelerator.stall_overlap
    assert overlap.group_of("GB") != overlap.group_of("W-Reg")


def test_error_on_bad_json():
    with pytest.raises(SerdeError, match="invalid JSON"):
        preset_from_json("{nope")


def test_error_on_missing_field():
    with pytest.raises(SerdeError, match="missing required field"):
        accelerator_from_dict({"name": "x"})


def test_error_on_unknown_memory_in_chain():
    preset = case_study_accelerator()
    data = accelerator_to_dict(preset.accelerator)
    data["chains"]["W"][0] = "nonexistent"
    with pytest.raises(SerdeError, match="unknown memory"):
        accelerator_from_dict(data)


def test_error_on_bad_allocation_key():
    preset = case_study_accelerator()
    data = accelerator_to_dict(preset.accelerator)
    data["memories"][0]["allocation"] = {"W.sideways": "rd"}
    with pytest.raises(SerdeError, match="bad allocation key"):
        accelerator_from_dict(data)


def test_auto_allocation_accepted():
    from repro.hardware.port import EndpointKind

    preset = case_study_accelerator()
    data = accelerator_to_dict(preset.accelerator)
    for mem in data["memories"]:
        mem["allocation"] = "auto"
    restored = accelerator_from_dict(data)
    gb = restored.memory_by_name("GB")
    assert all(gb.has_endpoint(Operand.O, kind) for kind in EndpointKind)


def test_serialized_is_valid_json():
    text = preset_to_json(case_study_accelerator())
    data = json.loads(text)
    assert data["mac_array"]["macs_per_pe"] == 2


def _with(**changes):
    """A valid case-study description with top-level fields replaced."""
    data = json.loads(preset_to_json(case_study_accelerator()))
    data.update(changes)
    return json.dumps(data)


def _with_chain(operand, names):
    data = json.loads(preset_to_json(case_study_accelerator()))
    data["chains"][operand] = names
    return json.dumps(data)


MALFORMED = {
    "top-level list": "[]",
    "top-level null": "null",
    "top-level string": '"case-study"',
    "null mac_array": _with(mac_array=None),
    "memories not a list": _with(memories=5),
    "stall_overlap not a list": _with(stall_overlap=3),
    "spatial_unrolling a list": _with(spatial_unrolling=[1, 2]),
    "unknown spatial dim": _with(spatial_unrolling={"Q": 2}),
    "spatial factor not a number": _with(spatial_unrolling={"K": "abc"}),
    "unknown chain operand": _with_chain("X", ["GB"]),
    "offchip bandwidth not a number": _with(offchip_bandwidth="fast"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_description_raises_serde_error(case):
    with pytest.raises(SerdeError):
        preset_from_json(MALFORMED[case])
