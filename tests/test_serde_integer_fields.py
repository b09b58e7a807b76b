"""Every integer field of the JSON schemas refuses a non-integer.

The cases are derived from the schemas themselves: each integer leaf of
a serialized layer, mapping and preset is replaced in turn by ``16.5``,
``true`` and ``"16"``, and the parser must raise a ``SerdeError`` that
names the field instead of truncating or coercing the value.
"""

import copy
import re

import pytest

from repro.dse.mapper import MapperConfig, TemporalMapper
from repro.hardware.presets import case_study_accelerator
from repro.hardware.serde import SerdeError, preset_from_dict, preset_to_dict
from repro.mapping.serde import mapping_from_dict, mapping_to_dict
from repro.workload.generator import dense_layer
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


def _integer_leaves(node, path=()):
    if type(node) is int:
        yield path
    elif isinstance(node, dict):
        for key, value in node.items():
            yield from _integer_leaves(value, path + (key,))
    elif isinstance(node, list):
        for index, value in enumerate(node):
            yield from _integer_leaves(value, path + (index,))


CASES = [
    pytest.param(schema, path, bad, id=f"{schema}-{'.'.join(map(str, path))}-{bad!r}")
    for schema, (data, _) in SCHEMAS.items()
    for path in _integer_leaves(data)
    for bad in (16.5, True, "16")
]


def test_every_schema_has_integer_fields():
    assert {case.values[0] for case in CASES} == set(SCHEMAS)


@pytest.mark.parametrize("schema, path, bad", CASES)
def test_a_non_integer_in_an_integer_field_is_refused_by_name(schema, path, bad):
    data, parse = SCHEMAS[schema]
    data = copy.deepcopy(data)
    node = data
    for step in path[:-1]:
        node = node[step]
    node[path[-1]] = bad
    field = [step for step in path if isinstance(step, str)][-1]
    with pytest.raises(SerdeError) as err:
        parse(data)
    assert re.search(
        rf"\b{re.escape(field)}\]?(\[\d+\])? must be an integer", str(err.value)
    ), str(err.value)
