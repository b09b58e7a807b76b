"""Every typed field of the JSON schemas refuses a value of another type.

The cases are derived from the schemas themselves: each integer leaf of
a serialized layer, mapping and preset is replaced in turn by ``16.5``,
``true`` and ``"16"``, each boolean leaf of the preset by ``"false"``,
``0`` and ``null``, and each float leaf by ``"128"`` and ``true``; the
parser must raise a ``SerdeError`` that names the field instead of
truncating or coercing the value. Every object and list node of both
presets and of a mapping is replaced by the other container type, with
the same demand. Every object of the layer, mapping and preset schemas
also refuses a key it does not know.
"""

import copy
import re

import pytest

from repro.dse.mapper import MapperConfig, TemporalMapper
from repro.hardware.presets import case_study_accelerator, inhouse_accelerator
from repro.hardware.serde import SerdeError, preset_from_dict, preset_to_dict
from repro.mapping.serde import mapping_from_dict, mapping_to_dict
from repro.workload.generator import dense_layer
from repro.workload.importer import layers_from_json
from repro.workload.serde import layer_from_dict, layer_to_dict

LAYER = dense_layer(32, 64, 600)
PRESET = case_study_accelerator()
MAPPING = next(iter(TemporalMapper(
    PRESET.accelerator, PRESET.spatial_unrolling,
    MapperConfig(max_enumerated=8, samples=0),
).mappings(LAYER)))

SCHEMAS = {
    "layer": (layer_to_dict(LAYER), layer_from_dict),
    "mapping": (mapping_to_dict(MAPPING), lambda d: mapping_from_dict(d, LAYER)),
    "preset": (preset_to_dict(PRESET), preset_from_dict),
}


def _leaves(node, kind, path=()):
    if type(node) is kind:
        yield path
    elif isinstance(node, dict):
        for key, value in node.items():
            yield from _leaves(value, kind, path + (key,))
    elif isinstance(node, list):
        for index, value in enumerate(node):
            yield from _leaves(value, kind, path + (index,))


def _objects(node, path=()):
    if isinstance(node, dict):
        yield path
    if isinstance(node, (dict, list)):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, value in items:
            yield from _objects(value, path + (key,))


def _replaced(schema, path, bad):
    data, parse = SCHEMAS[schema]
    data = copy.deepcopy(data)
    node = data
    for step in path[:-1]:
        node = node[step]
    node[path[-1]] = bad
    return data, parse


CASES = [
    pytest.param(schema, path, bad, id=f"{schema}-{'.'.join(map(str, path))}-{bad!r}")
    for schema, (data, _) in SCHEMAS.items()
    for path in _leaves(data, int)
    for bad in (16.5, True, "16")
]
PRESET_DATA = SCHEMAS["preset"][0]
TYPED_CASES = [
    pytest.param(path, bad, kind, id=f"{'.'.join(map(str, path))}-{bad!r}")
    for kind, bads in (("a boolean", ("false", 0, None)), ("a number", ("128", True)))
    for path in _leaves(PRESET_DATA, bool if kind == "a boolean" else float)
    for bad in bads
]


def test_every_schema_has_integer_fields():
    assert {case.values[0] for case in CASES} == set(SCHEMAS)


@pytest.mark.parametrize("schema, path, bad", CASES)
def test_a_non_integer_in_an_integer_field_is_refused_by_name(schema, path, bad):
    data, parse = _replaced(schema, path, bad)
    field = [step for step in path if isinstance(step, str)][-1]
    with pytest.raises(SerdeError) as err:
        parse(data)
    assert re.search(
        rf"\b{re.escape(field)}\]?(\[\d+\])? must be an integer", str(err.value)
    ), str(err.value)


def test_the_preset_has_boolean_and_float_fields():
    kinds = {case.values[2] for case in TYPED_CASES}
    assert kinds == {"a boolean", "a number"}


@pytest.mark.parametrize("path, bad, kind", TYPED_CASES)
def test_a_mistyped_boolean_or_float_field_is_refused_by_name(path, bad, kind):
    data, parse = _replaced("preset", path, bad)
    field = path[-1]
    with pytest.raises(SerdeError) as err:
        parse(data)
    assert re.search(rf"\b{re.escape(field)} must be {kind}", str(err.value)), (
        str(err.value)
    )


def test_an_integer_in_a_float_field_is_a_number():
    path = next(_leaves(PRESET_DATA, float))
    data, parse = _replaced("preset", path, 128)
    assert parse(data) is not None


OBJECTS = [
    pytest.param(schema, path, id=f"{schema}-{'.'.join(map(str, path)) or 'top'}")
    for schema in ("layer", "mapping", "preset")
    for path in _objects(SCHEMAS[schema][0])
]


@pytest.mark.parametrize("schema, path", OBJECTS)
def test_an_unknown_key_is_refused_by_name(schema, path):
    data, parse = SCHEMAS[schema]
    data = copy.deepcopy(data)
    node = data
    for step in path:
        node = node[step]
    node["bogus_key"] = 1
    with pytest.raises(SerdeError, match="bogus_key"):
        parse(data)


def test_a_misspelled_importer_key_is_refused():
    with pytest.raises(SerdeError, match="strides"):
        layers_from_json(
            '[{"type": "conv", "dims": {"K": 8, "C": 8, "OX": 4, "OY": 4,'
            ' "FX": 3, "FY": 3}, "strides": 2}]'
        )


CONTAINER_SCHEMAS = {
    "case-study": (preset_to_dict(PRESET), preset_from_dict),
    "in-house": (preset_to_dict(inhouse_accelerator()), preset_from_dict),
    "mapping": SCHEMAS["mapping"],
}


def _containers(node, path=()):
    """The path of every object and list below the top of ``node``."""
    for key, value in node.items() if isinstance(node, dict) else enumerate(node):
        if isinstance(value, (dict, list)):
            yield path + (key,)
            yield from _containers(value, path + (key,))


CONTAINERS = [
    pytest.param(schema, path, id=f"{schema}-{'.'.join(map(str, path))}")
    for schema, (data, _) in CONTAINER_SCHEMAS.items()
    for path in _containers(data)
]


def test_every_schema_has_object_and_list_nodes():
    kinds = {
        (case.values[0], type(_node(*case.values)).__name__) for case in CONTAINERS
    }
    assert kinds == {(s, k) for s in CONTAINER_SCHEMAS for k in ("dict", "list")}


def _node(schema, path):
    node = CONTAINER_SCHEMAS[schema][0]
    for step in path:
        node = node[step]
    return node


@pytest.mark.parametrize("schema, path", CONTAINERS)
def test_a_wrong_container_type_is_refused_by_name(schema, path):
    data, parse = CONTAINER_SCHEMAS[schema]
    data = copy.deepcopy(data)
    node = data
    for step in path[:-1]:
        node = node[step]
    wanted = "an object" if isinstance(node[path[-1]], dict) else "a list"
    node[path[-1]] = [] if wanted == "an object" else {}
    field = [step for step in path if isinstance(step, str)][-1]
    index = rf"\[{path[-1]}\]" if isinstance(path[-1], int) else ""
    with pytest.raises(SerdeError) as err:
        parse(data)
    message = str(err.value)
    assert "object has no attribute" not in message
    assert re.search(
        rf"\b{re.escape(field)}\]?{index} must be {wanted}", message
    ), message


@pytest.mark.parametrize("patch, message", [
    ({"name": 5}, "name must be a string, got 5"),
    ({"memories": [[1]]}, "memories[0] must be an object, got [1]"),
    ({"chains": []}, "chains must be an object, got []"),
    ({"chains": {"W": "GB"}}, "chains[W] must be a list, got 'GB'"),
    ({"stall_overlap": ["GB"]}, "stall_overlap[0] must be a list, got 'GB'"),
    ({"stall_overlap": [["GB"], ["NOPE"]]},
     "stall_overlap[1] names unknown memory 'NOPE'"),
], ids=["name", "memory", "chains", "chain", "overlap-flat", "overlap-unknown"])
def test_a_coerced_or_misleading_accelerator_field_is_refused(patch, message):
    data = dict(copy.deepcopy(PRESET_DATA), **patch)
    with pytest.raises(SerdeError, match=re.escape(message)):
        preset_from_dict(data)


def test_a_string_of_operands_is_not_a_serves_list():
    data = copy.deepcopy(PRESET_DATA)
    data["memories"][-1]["serves"] = "IOW"
    with pytest.raises(SerdeError, match=re.escape("serves must be a list, got 'IOW'")):
        preset_from_dict(data)


@pytest.mark.parametrize("data, message", [
    ([1], "mapping must be an object, got [1]"),
    (dict(SCHEMAS["mapping"][0], spatial=[]), "spatial must be an object, got []"),
    (dict(SCHEMAS["mapping"][0], cuts=[1]), "cuts must be an object, got [1]"),
], ids=["mapping", "spatial", "cuts"])
def test_a_non_object_mapping_part_is_refused_by_name(data, message):
    with pytest.raises(SerdeError, match=re.escape(message)):
        mapping_from_dict(data, LAYER)
