"""Every typed field of the JSON schemas refuses a value of another type.

The cases are derived from the schemas themselves: each integer leaf of
a serialized layer, mapping and preset is replaced in turn by ``16.5``,
``true`` and ``"16"``, each boolean leaf of the preset by ``"false"``,
``0`` and ``null``, and each float leaf by ``"128"`` and ``true``; the
parser must raise a ``SerdeError`` that names the field instead of
truncating or coercing the value. Every object of the layer and preset
schemas also refuses a key it does not know.
"""

import copy
import re

import pytest

from repro.dse.mapper import MapperConfig, TemporalMapper
from repro.hardware.presets import case_study_accelerator
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
    for schema in ("layer", "preset")
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
