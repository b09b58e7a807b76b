"""Corpus serialization: serde round trip plus fingerprint drift detection.

A corpus file is outside input: a file that is not JSON, not an object,
of another schema or with a field of the wrong JSON type is a
``SerdeError`` naming the file and the field, and ``verify`` reports it
in one line with exit code 2.
"""

import json
import pathlib
import re

import pytest

from repro.cli import main
from repro.core.model import LatencyModel
from repro.hardware.serde import SerdeError
from repro.verify.corpus import (
    case_from_dict,
    case_to_dict,
    load_corpus,
    save_case,
)
from repro.verify.generators import sample_cases
from repro.verify.properties import check_case

COMMITTED_CORPUS = pathlib.Path(__file__).parent / "corpus"


def test_case_roundtrip(tmp_path):
    case = sample_cases(seed=3, count=1)[0]
    path = save_case(
        case, tmp_path,
        comment="roundtrip test",
        properties=("model_tracks_simulator",),
    )
    loaded = load_corpus(tmp_path)
    assert len(loaded) == 1
    entry = loaded[0]
    assert entry.path == path
    assert entry.comment == "roundtrip test"
    assert entry.properties == ("model_tracks_simulator",)
    assert entry.case.case_id == case.case_id
    assert entry.case.accelerator.fingerprint() == case.accelerator.fingerprint()
    assert entry.case.mapping.fingerprint() == case.mapping.fingerprint()
    before = LatencyModel(case.accelerator).evaluate(
        case.mapping, validate=False
    )
    after = LatencyModel(entry.case.accelerator).evaluate(
        entry.case.mapping, validate=False
    )
    assert before.total_cycles == after.total_cycles


def test_pairs_roundtrip_and_absent_pairs_tolerated(tmp_path):
    """Counterexamples record which oracle pair disagreed; files written
    before the field existed load back with no pairs."""
    case = sample_cases(seed=3, count=1)[0]
    path = save_case(
        case, tmp_path,
        comment="pairs test",
        properties=("three_way_agreement",),
        pairs=("event/rtl",),
    )
    (entry,) = load_corpus(tmp_path)
    assert entry.pairs == ("event/rtl",)
    # Strip the field — the pre-pairs on-disk form — and reload.
    data = json.loads(path.read_text())
    del data["pairs"]
    assert case_from_dict(data).pairs == ()


def test_fingerprint_drift_is_rejected(tmp_path):
    case = sample_cases(seed=3, count=1)[0]
    path = save_case(case, tmp_path, comment="drift test")
    data = json.loads(path.read_text())
    data["fingerprints"]["accelerator"] = "0" * 64
    with pytest.raises(SerdeError, match="drifted"):
        case_from_dict(data, path=path)


def test_unsupported_schema_is_rejected():
    case = sample_cases(seed=3, count=1)[0]
    data = case_to_dict(case)
    data["schema"] = 99
    with pytest.raises(SerdeError, match="schema"):
        case_from_dict(data)


def test_load_corpus_of_missing_directory_is_empty(tmp_path):
    assert load_corpus(tmp_path / "nope") == []


def test_committed_corpus_replays_clean():
    entries = load_corpus(COMMITTED_CORPUS)
    assert entries, "the committed corpus must not be empty"
    for entry in entries:
        # Every sentinel documents why it is interesting...
        assert entry.comment, entry.path
        # ...and passes the suite at the production tolerance.
        assert not check_case(entry.case), entry.path


COMMITTED_CASE = sorted(COMMITTED_CORPUS.glob("*.json"))[0]


@pytest.mark.parametrize("field, value, message", [
    ("properties", "abc", "field 'properties' must be a list of strings, got 'abc'"),
    ("fingerprints", {"mapping": 5},
     "field 'fingerprints' must be an object of strings, got {'mapping': 5}"),
    ("case_id", 5, "field 'case_id' must be a string, got 5"),
    ("comment", ["x"], "field 'comment' must be a string, got ['x']"),
    ("layer", [1], "field 'layer' must be an object, got [1]"),
    ("schema", 2, "unsupported schema 2"),
    ("schema", True, "field 'schema' must be an integer, got True"),
], ids=["properties", "fingerprints", "case-id", "comment", "layer", "schema",
        "schema-bool"])
def test_a_mistyped_corpus_field_is_a_serde_error_naming_file_and_field(
    tmp_path, field, value, message
):
    data = json.loads(COMMITTED_CASE.read_text())
    data[field] = value
    path = tmp_path / COMMITTED_CASE.name
    path.write_text(json.dumps(data))
    with pytest.raises(SerdeError) as err:
        load_corpus(tmp_path)
    assert str(err.value) == f"corpus case {path}: {message}"


@pytest.mark.parametrize("text, message", [
    ("[1]", "must be a JSON object, got [1]"),
    ('{"schema": 1, "case', "invalid JSON: "),
], ids=["list", "truncated"])
def test_a_corpus_file_that_is_no_case_object_is_a_serde_error(tmp_path, text, message):
    path = tmp_path / "case.json"
    path.write_text(text)
    with pytest.raises(SerdeError, match=re.escape(f"corpus case {path}: {message}")):
        load_corpus(tmp_path)


def test_verify_reports_a_corrupted_corpus_file_in_one_line(tmp_path, capsys):
    data = json.loads(COMMITTED_CASE.read_text())
    data["properties"] = "abc"
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / COMMITTED_CASE.name).write_text(json.dumps(data))
    with pytest.raises(SystemExit) as exit_:
        main(["verify", "--corpus", str(corpus), "--corpus-only",
              "--ledger", str(tmp_path / "verify.sqlite")])
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1, err
    assert "Traceback" not in err
    assert "field 'properties' must be a list of strings" in err
