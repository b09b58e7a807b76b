"""Hostile-input walk over every dataclass read at a JSON boundary.

The cases come from the reader's own table (:func:`repro.fields.fields_of`):
for each checked field of every class read through
:func:`repro.fields.read_fields` — ledger rows, progress events, protocol
messages, served model options and corpus files — every JSON value of
another kind is put into an otherwise valid input, and the boundary must
raise its own error naming the field. A field added to any of these
classes is walked without a new case; a null in a field with a default
reads as the default, so it is not a wrong value there.
"""

import json
import pathlib
from typing import Tuple

import pytest

from repro.core.step1 import ModelOptions
from repro.fields import fields_of, kind_of
from repro.hardware.serde import SerdeError
from repro.observability.ledger import LedgerSchemaError, RunRecord
from repro.observability.progress import EVENT_TYPES, ProgressFormatError, event_from_dict
from repro.serve import protocol
from repro.serve.protocol import ProtocolError
from repro.verify.corpus import CaseFile, case_from_dict

CORPUS_CASE = sorted((pathlib.Path(__file__).parent / "verify" / "corpus").glob("*.json"))[0]

#: One JSON value of each kind the reader tells apart.
JSON_VALUES = (5, 2.5, True, "x", [1], [[1.5]], ["x"], {"k": "v"}, {"k": 1.5}, None)


def _valid(cls):
    """Each required field of ``cls`` with the first value it accepts."""
    return {
        name: next(value for value in JSON_VALUES if check is None or check(value))
        for name, check, __, required in fields_of(cls)
        if required
    }


def _frame_reader(type_name):
    def read(data):
        return protocol.decode(json.dumps({"v": protocol.PROTOCOL_VERSION,
                                           "type": type_name, **data}))
    return read


def _event_reader(cls):
    return lambda data: event_from_dict({"type": cls.__name__, **data})


#: (class, a valid input, the boundary's reader, its error type).
BOUNDARIES = [
    (RunRecord, {}, RunRecord.from_dict, LedgerSchemaError),
    *[(cls, _valid(cls), _event_reader(cls), ProgressFormatError)
      for cls in EVENT_TYPES.values()],
    *[(cls, _valid(cls), _frame_reader(name), ProtocolError)
      for name, cls in protocol._TYPES.items()],
    (ModelOptions, {}, protocol.options_from_dict, ProtocolError),
    (CaseFile, json.loads(CORPUS_CASE.read_text()), case_from_dict, SerdeError),
]


def _walk():
    for cls, valid, read, error in BOUNDARIES:
        for name, check, kind, required in fields_of(cls):
            if check is None:  # an Any field is tolerant by design
                continue
            for value in JSON_VALUES:
                if check(value) or (value is None and not required):
                    continue
                yield pytest.param(
                    valid, read, error, name, kind, value,
                    id=f"{cls.__name__}.{name}={value!r}",
                )


CASES = list(_walk())


def test_the_walk_covers_every_boundary():
    walked = {case.id.split(".")[0] for case in CASES}
    assert walked == {cls.__name__ for cls, *__ in BOUNDARIES}


@pytest.mark.parametrize("valid, read, error, name, kind, value", CASES)
def test_every_checked_field_refuses_a_value_of_another_kind(
    valid, read, error, name, kind, value
):
    read(dict(valid))  # the input is valid before the substitution
    with pytest.raises(error) as err:
        read(dict(valid, **{name: value}))
    message = str(err.value)
    if name == "schema" and "unsupported schema" in message:
        return  # the corpus schema gate answers before the field read
    assert f"field {name!r} must be {kind}, got {value!r:.40}" in message, message


def test_an_annotation_no_json_kind_reads_is_refused():
    """A field cannot go unchecked by accident: only ``Any`` is unchecked."""
    with pytest.raises(TypeError, match="no JSON kind"):
        kind_of(Tuple[int, int])
