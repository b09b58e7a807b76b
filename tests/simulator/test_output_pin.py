"""Pinned outputs of the event simulator.

The other simulator tests check hand-built cases approximately, or compare
the fast-forward with stepping in the same build. This one folds the exact
``repr`` of every :class:`SimulationResult` over three sets into one
SHA-256, so any change to how streams are lowered or executed that moves a
single bit of a cycle count, a port's busy bits, the event count or the
trace fails here:

* the E5 best mapping of each of the 12 Im2Col-lowered
  ``validation_layers()`` on the in-house chip;
* ``sample_cases`` seeds 0-2, 60 cases each;
* the corpus cases, run with a :class:`TraceRecorder`, with the number of
  traced jobs and their total bits.

``repr`` of a float is its shortest round-trip form, so equal digests mean
bit-identical results (``port_busy`` order included).
"""

import hashlib
import pathlib

from repro.dse.mapper import MapperConfig, TemporalMapper
from repro.hardware.presets import inhouse_accelerator
from repro.simulator.engine import CycleSimulator
from repro.simulator.trace import TraceRecorder
from repro.verify.corpus import load_corpus
from repro.verify.generators import sample_cases
from repro.workload.im2col import im2col
from repro.workload.networks import validation_layers

CORPUS = pathlib.Path(__file__).parent.parent / "verify" / "corpus"
E5_CONFIG = MapperConfig(max_enumerated=200, samples=150, seed=0)

DIGESTS = {
    "validation": "452e6645106a77205ce7e72b2973cd805e887de864e5ff38df18742fbde36463",
    "generated": "9acb358fa7e409321e484b29c59c165b15ae69cc80da86ee2aba3d28b02b3088",
    "corpus": "61ac2ea4a5e21621c39cec7b6d7e0f64cbd753095211063dd9c3e63ee2bf8e1f",
}


def _digest(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _validation_lines():
    preset = inhouse_accelerator()
    lines = []
    for layer in validation_layers():
        mapper = TemporalMapper(preset.accelerator, preset.spatial_unrolling, E5_CONFIG)
        mapping = mapper.best_mapping(im2col(layer)).mapping
        result = CycleSimulator(preset.accelerator, mapping).run()
        lines.append(f"{layer.name} {result!r}")
    return lines


def _generated_lines():
    return [
        f"{case.case_id} {CycleSimulator(case.accelerator, case.mapping).run()!r}"
        for seed in range(3)
        for case in sample_cases(seed=seed, count=60)
    ]


def _corpus_lines():
    lines = []
    for entry in load_corpus(CORPUS):
        case = entry.case
        trace = TraceRecorder()
        result = CycleSimulator(case.accelerator, case.mapping, trace=trace).run()
        bits = sum(job.bits for job in trace.jobs)
        lines.append(f"{entry.path.name} {result!r} {len(trace.jobs)} {bits!r}")
    return lines


def test_validation_layers_pinned():
    assert _digest(_validation_lines()) == DIGESTS["validation"]


def test_generated_cases_pinned():
    assert _digest(_generated_lines()) == DIGESTS["generated"]


def test_traced_corpus_pinned():
    assert _digest(_corpus_lines()) == DIGESTS["corpus"]
