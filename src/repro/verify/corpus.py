"""The persisted regression corpus of shrunk verification failures.

Every counterexample the harness shrinks is serialized to one JSON file —
accelerator, layer and mapping in the schemas of
:mod:`repro.hardware.serde`, :mod:`repro.workload.serde` and
:mod:`repro.mapping.serde`, plus the content fingerprints at save time —
and committed under ``tests/verify/corpus/``. CI replays the whole
directory on every run: a corpus case that starts violating again is a
regression, caught deterministically and without any random search.

A corpus file carries a mandatory ``comment`` explaining *why* the case is
interesting (what it once broke, or what tolerance edge it sits on), so
the directory doubles as a catalogue of the model's known hard corners.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
from typing import Dict, List, Optional, Sequence, Tuple

from repro.hardware.serde import (
    SerdeError,
    accelerator_from_dict,
    accelerator_to_dict,
)
from repro.mapping.serde import mapping_from_dict, mapping_to_dict
from repro.verify.generators import Case
from repro.workload.serde import layer_from_dict, layer_to_dict

SCHEMA_VERSION = 1


@dataclasses.dataclass(frozen=True)
class CorpusCase:
    """One committed regression case plus its provenance metadata.

    ``pairs`` records which differential comparison disagreed when the
    case was saved (``"event/rtl"``, ``"model/rtl"``, ``"model/event"``);
    empty for algebraic failures and for files predating the three-way
    oracle (the field is schema-tolerant: absent reads as ``()``).
    """

    case: Case
    comment: str
    properties: Tuple[str, ...]
    pairs: Tuple[str, ...] = ()
    path: Optional[pathlib.Path] = None


# --------------------------------------------------------------------------- #
# Case files


def case_to_dict(
    case: Case,
    comment: str = "",
    properties: Sequence[str] = (),
    pairs: Sequence[str] = (),
) -> Dict:
    """Serialize one case (plus provenance) to a JSON-ready dict."""
    return {
        "schema": SCHEMA_VERSION,
        "case_id": case.case_id,
        "comment": comment,
        "properties": list(properties),
        "pairs": list(pairs),
        "accelerator": accelerator_to_dict(case.accelerator),
        "layer": layer_to_dict(case.layer),
        "mapping": mapping_to_dict(case.mapping),
        "fingerprints": {
            "accelerator": case.accelerator.fingerprint(),
            "mapping": case.mapping.fingerprint(),
        },
    }


def case_from_dict(data: Dict, path: Optional[pathlib.Path] = None) -> CorpusCase:
    """Restore a corpus case, verifying the recorded fingerprints.

    A fingerprint mismatch means the serde schemas (or the fingerprint
    inputs) drifted since the case was saved — the corpus file must be
    regenerated, not silently reinterpreted.
    """
    if data.get("schema") != SCHEMA_VERSION:
        raise SerdeError(
            f"corpus case {path or '?'}: unsupported schema {data.get('schema')!r}"
        )
    accelerator = accelerator_from_dict(data["accelerator"])
    layer = layer_from_dict(data["layer"])
    mapping = mapping_from_dict(data["mapping"], layer)
    case = Case(
        accelerator=accelerator,
        spatial=tuple(sorted(mapping.spatial.unrolling.items())),
        layer=layer,
        mapping=mapping,
        case_id=str(data["case_id"]),
    )
    recorded = data.get("fingerprints", {})
    actual = {
        "accelerator": accelerator.fingerprint(),
        "mapping": mapping.fingerprint(),
    }
    for key, want in recorded.items():
        if actual.get(key) != want:
            raise SerdeError(
                f"corpus case {path or case.case_id}: {key} fingerprint drifted "
                f"(recorded {want[:12]}…, recomputed {actual.get(key, '')[:12]}…); "
                "regenerate the corpus file"
            )
    return CorpusCase(
        case=case,
        comment=str(data.get("comment", "")),
        properties=tuple(data.get("properties", ())),
        pairs=tuple(data.get("pairs", ())),
        path=path,
    )


def save_case(
    case: Case,
    directory: pathlib.Path,
    comment: str,
    properties: Sequence[str] = (),
    pairs: Sequence[str] = (),
) -> pathlib.Path:
    """Write one case into the corpus directory (filename from content)."""
    directory = pathlib.Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    digest = case.mapping.fingerprint()[:10]
    path = directory / f"{case.case_id.replace('~', '-')}-{digest}.json"
    payload = case_to_dict(
        case, comment=comment, properties=properties, pairs=pairs
    )
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def load_corpus(directory: pathlib.Path) -> List[CorpusCase]:
    """All corpus cases in ``directory`` (sorted by filename; [] if absent)."""
    directory = pathlib.Path(directory)
    if not directory.is_dir():
        return []
    out: List[CorpusCase] = []
    for path in sorted(directory.glob("*.json")):
        out.append(case_from_dict(json.loads(path.read_text()), path=path))
    return out
