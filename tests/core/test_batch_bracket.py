"""The batch core's MUW bracket contains every union it stands in for.

``BatchEvaluator.best`` prunes on a latency bracket built from a floor
and a ceiling of each open ``MUW_comb``. Both must hold for every value
``union_length_params`` can return, including its hyperperiod path,
which repeats each window across the whole horizon and so exceeds
``sum_u MUW_u`` when a stream's ``repeats`` stop short of it.
"""

import random

import numpy as np
import pytest

from repro.core.batch import BatchEvaluator
from repro.core.step1 import ModelOptions
from repro.core.windows import union_length_params
from repro.dse.mapper import MapperConfig, TemporalMapper
from repro.hardware.presets import case_study_accelerator, inhouse_accelerator
from repro.verify.generators import GeneratorConfig, case_mappings, random_accelerator, random_layer
from repro.workload.generator import bkc_sweep


def _preset_batches():
    for preset in (case_study_accelerator(), inhouse_accelerator()):
        for layer in list(bkc_sweep(values=(8, 128, 512)))[::4]:
            mapper = TemporalMapper(
                preset.accelerator, preset.spatial_unrolling,
                MapperConfig(max_enumerated=64, samples=64),
            )
            yield preset.accelerator, list(mapper.mappings(layer))


def _generated_batches(count=40):
    config = GeneratorConfig()
    for index in range(count):
        rng = random.Random(f"bracket/{index}")
        accelerator, spatial = random_accelerator(rng, config)
        layer = random_layer(rng, config, name=f"b{index}")
        yield accelerator, case_mappings(accelerator, spatial, layer, config, limit=40)


@pytest.mark.parametrize("options", [ModelOptions(), ModelOptions.paper_faithful()],
                         ids=["truncated-repeats", "full-repeats"])
def test_open_muw_lies_in_its_bracket_and_latency_in_its(options):
    opened = 0
    for accelerator, mappings in [*_preset_batches(), *_generated_batches()]:
        if not mappings:
            continue
        evaluator = BatchEvaluator(accelerator, options)
        low = evaluator._lower(mappings)
        step1 = evaluator._step1(low)
        bounds = evaluator._step2_ports(low, step1, resolve=np.zeros(low.n, dtype=bool))
        exact = evaluator._step2_ports(low, step1)
        for g, lanes in enumerate(bounds.open):
            opened += lanes.size
            assert np.all(bounds.floor[g][lanes] <= exact.muw[g][lanes])
            assert np.all(exact.muw[g][lanes] <= bounds.muw[g][lanes])
            closed = np.setdiff1d(np.arange(low.n), lanes)
            assert np.array_equal(bounds.muw[g][closed], exact.muw[g][closed])
        lo, hi = evaluator.bracket(mappings)
        cc = evaluator.evaluate(mappings, materialize=False).total_cycles
        assert np.all(lo <= cc) and np.all(cc <= hi)
    assert opened > 20  # the bracket was exercised


def test_the_hyperperiod_union_can_exceed_the_summed_windows():
    # Two windows whose repeats stop one period short (Z - 1): the
    # hyperperiod path counts the missing last spans, so the ceiling must
    # count every span that starts inside the horizon, not sum_u MUW_u.
    windows = [(4.0, 1.0, 3.0, 3), (8.0, 2.0, 0.0, 1)]
    horizon = 16.0
    union = union_length_params(windows, horizon)
    summed = sum(active * repeats for __, active, ___, repeats in windows)
    assert union > summed
    ceiling = sum(active * np.ceil(horizon / period) for period, active, __, ___ in windows)
    assert union <= min(ceiling, horizon)
