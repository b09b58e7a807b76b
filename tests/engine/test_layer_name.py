"""A cached answer is named for the layer asked about.

Cache keys hold the layer's fingerprint, which leaves its name out, so
a layer of the same shape under another name hits the first layer's
entry. Every hit must still report the name of the layer asked about,
as a fresh evaluation would, and a hit for the same name must return
the cached report itself, not a copy.
"""

import dataclasses

from repro import api
from repro.dse.mapper import MapperConfig, TemporalMapper
from repro.engine import EvaluationEngine
from repro.hardware.presets import case_study_accelerator
from repro.workload.generator import dense_layer

PRESET = case_study_accelerator()
LAYER = dense_layer(16, 32, 64)
RENAMED = dense_layer(16, 32, 64, name="renamed")
CONFIG = MapperConfig(max_enumerated=40, samples=0)


def _mappings():
    mapper = TemporalMapper(PRESET.accelerator, PRESET.spatial_unrolling, CONFIG)
    mapping = next(iter(mapper.mappings(LAYER)))
    return mapping, dataclasses.replace(mapping, layer=RENAMED)


def test_single_evaluation_hits_carry_the_asked_name():
    engine = EvaluationEngine.from_preset(PRESET)
    mapping, renamed = _mappings()
    first = engine.evaluate(mapping)
    assert engine.evaluate(renamed).layer_name == "renamed"
    assert engine.evaluate(mapping) is first
    energy = engine.evaluate_energy(mapping)
    assert engine.evaluate_energy(renamed).layer_name == "renamed"
    assert engine.evaluate_energy(mapping) is energy
    assert engine.stats.cache_hits == 4
    assert engine.stats.evaluations == 1


def test_batch_hits_carry_the_asked_name():
    engine = EvaluationEngine.from_preset(PRESET)
    mapping, renamed = _mappings()
    (first,) = engine.evaluate_many([mapping], with_energy=True)
    (hit,) = engine.evaluate_many([renamed], with_energy=True)
    assert hit.cache_hit
    assert (hit.report.layer_name, hit.energy.layer_name) == ("renamed", "renamed")
    assert hit.report.total_cycles == first.report.total_cycles
    (again,) = engine.evaluate_many([mapping], with_energy=True)
    assert (again.report, again.energy) == (first.report, first.energy)
    best = engine.best_of([renamed]).best
    assert best.cache_hit and best.report.layer_name == "renamed"


def test_searches_answer_for_the_asked_layer():
    engine = EvaluationEngine.from_preset(PRESET)
    first = api.evaluate(LAYER, engine=engine, config=CONFIG)
    # The whole search is memoized: the hit is re-bound to RENAMED.
    report = api.evaluate(RENAMED, engine=engine, config=CONFIG)
    assert (first.layer_name, report.layer_name) == ("dense(16,32,64)", "renamed")
    (top,) = api.search(RENAMED, engine=engine, config=CONFIG, top=1)
    assert (top.report.layer_name, top.mapping.layer.name) == ("renamed", "renamed")
    # Another search config misses the memo; its mapper blocks hit the
    # per-mapping cache entries LAYER's search left.
    other = dataclasses.replace(CONFIG, keep_top=3)
    hits = engine.stats.cache_hits
    mapper = TemporalMapper(
        PRESET.accelerator, PRESET.spatial_unrolling, other, engine=engine
    )
    best = mapper.best_mapping(RENAMED)
    assert engine.stats.cache_hits > hits
    assert best.cache_hit
    assert (best.report.layer_name, best.mapping.layer.name) == ("renamed", "renamed")
    assert best.report.total_cycles == first.total_cycles
