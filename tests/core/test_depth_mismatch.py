"""Mappings whose level count differs from the machine's memory depth.

The model reads a mapping's levels with ``TemporalMapping.level_bounds``
semantics. A deeper mapping's extra cuts are never asked for, so it
evaluates, and the batch core lowers it to the reference's numbers. A
shallower mapping lacks a level the machine has: every entry point
raises a ``MappingError`` carrying ``check_capacity``'s depth message.
"""

import dataclasses

import pytest

from repro.core.model import LatencyModel
from repro.dse.mapper import MapperConfig, TemporalMapper
from repro.engine import EvaluationEngine
from repro.hardware.presets import case_study_accelerator
from repro.mapping.mapping import Mapping, MappingError, check_capacity
from repro.mapping.temporal import TemporalMapping
from repro.workload.generator import dense_layer
from repro.workload.operand import Operand


def _mappings(count=6):
    preset = case_study_accelerator()
    mapper = TemporalMapper(
        preset.accelerator, preset.spatial_unrolling,
        MapperConfig(max_enumerated=count, samples=0),
    )
    mappings = list(mapper.mappings(dense_layer(32, 64, 600)))[:count]
    assert len(mappings) == count
    return preset.accelerator, mappings


def _recut(mapping, operand, cuts):
    all_cuts = dict(mapping.temporal.cuts)
    all_cuts[operand] = tuple(cuts)
    return Mapping(
        mapping.layer, mapping.spatial,
        TemporalMapping(mapping.temporal.loops, all_cuts),
    )


def test_a_shallow_mapping_raises_a_typed_depth_error():
    accelerator, (mapping, good, *__) = _mappings()
    shallow = _recut(mapping, Operand.W, ())
    message = "; ".join(check_capacity(shallow, accelerator))
    assert message.startswith("W: mapping assumes 1 levels")

    with pytest.raises(MappingError) as exc:
        LatencyModel(accelerator).evaluate(shallow, validate=False)
    assert str(exc.value) == message
    with pytest.raises(MappingError) as exc:
        EvaluationEngine(accelerator).evaluate(shallow, validate=False)
    assert str(exc.value) == message
    outcomes = EvaluationEngine(accelerator).evaluate_many([shallow, good])
    assert outcomes[0] is None
    assert outcomes[1].report.total_cycles == (
        LatencyModel(accelerator).evaluate(good).total_cycles
    )


@pytest.mark.parametrize("offchip", [None, 64.0], ids=["onchip", "offchip"])
def test_a_deeper_mapping_evaluates_like_the_reference(offchip):
    accelerator, mappings = _mappings()
    accelerator = dataclasses.replace(accelerator, offchip_bandwidth=offchip)
    deeper = []
    for mapping in mappings:
        cuts = mapping.temporal.cuts[Operand.W]
        extra = (cuts[-1] + len(mapping.temporal.loops)) // 2
        deeper.append(_recut(mapping, Operand.W, cuts + (extra,)))
    model = LatencyModel(accelerator)
    engine = EvaluationEngine(accelerator)
    outcomes = engine.evaluate_many(deeper + mappings)
    engine.cache.clear()  # the single evaluations below run cold
    for mapping, outcome in zip(deeper + mappings, outcomes):
        expected = model.evaluate(mapping, validate=False)
        assert outcome.report.total_cycles == expected.total_cycles
        assert outcome.report.served_stalls == expected.served_stalls
        assert engine.evaluate(mapping, validate=False) == expected
