"""E12 — the Section-I speed argument: analytical beats cycle-level.

"Analytical models are preferred for early-phase DSE, thanks to their fast
run-time (orders of magnitude faster than others)." The analytical model's
cost is set by the number of DTLs — *independent of the layer's cycle
count* — while a cycle-level simulator scales with the number of transfer
jobs (~ cycles). This bench measures both runtimes across a 64x range of
layer sizes and asserts the scaling separation.
"""

import time

import pytest

from repro.core.batch import BatchEvaluator
from repro.core.model import LatencyModel
from repro.engine import EvaluationEngine
from repro.simulator.engine import CycleSimulator
from repro.workload.generator import dense_layer

from benchmarks.conftest import emit_bench_artifact, full_mode, make_mapper


def _timed(fn, repeat=3):
    best = float("inf")
    for __ in range(repeat):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


@pytest.fixture(scope="module")
def scaling_rows(case_preset):
    model = LatencyModel(case_preset.accelerator)
    rows = []
    for c in (150, 600, 2400, 9600):
        layer = dense_layer(64, 128, c)
        mapper = make_mapper(case_preset, enumerated=80, samples=60)
        mapping = mapper.best_mapping(layer).mapping
        model_s = _timed(lambda: model.evaluate(mapping, validate=False))
        sim_s = _timed(lambda: CycleSimulator(case_preset.accelerator, mapping).run(), repeat=1)
        rows.append(
            {
                "cycles": mapping.spatial_cycles,
                "model_s": model_s,
                "sim_s": sim_s,
                "speedup": sim_s / model_s,
            }
        )
    return rows


def test_speed_table(scaling_rows):
    print("\nModel-vs-simulator runtime scaling:")
    print(f"{'CC_spatial':>12s} {'model ms':>10s} {'sim ms':>10s} {'speedup':>9s}")
    for row in scaling_rows:
        print(f"{row['cycles']:12d} {row['model_s'] * 1e3:10.2f} "
              f"{row['sim_s'] * 1e3:10.1f} {row['speedup']:8.0f}x")
    # Orders of magnitude faster on non-trivial layers.
    assert scaling_rows[-1]["speedup"] > 100


def test_model_runtime_nearly_size_independent(scaling_rows):
    """64x more cycles must not cost anywhere near 64x model time."""
    growth = scaling_rows[-1]["model_s"] / scaling_rows[0]["model_s"]
    cycle_growth = scaling_rows[-1]["cycles"] / scaling_rows[0]["cycles"]
    assert growth < cycle_growth / 4


def test_simulator_runtime_grows_with_cycles(scaling_rows):
    assert scaling_rows[-1]["sim_s"] > scaling_rows[0]["sim_s"]


def test_bench_model_largest_layer(benchmark, case_preset):
    layer = dense_layer(64, 128, 9600)
    mapper = make_mapper(case_preset, enumerated=60, samples=40)
    mapping = mapper.best_mapping(layer).mapping
    model = LatencyModel(case_preset.accelerator)
    report = benchmark(model.evaluate, mapping, False)
    assert report.total_cycles > 0


def test_emit_batch_bench_artifact(case_preset):
    """Batch-vs-scalar sweep throughput; writes ``BENCH_batch.json``.

    The SoA batch evaluator must reproduce the scalar model bit-for-bit
    while evaluating a realistic mapper sweep an order of magnitude
    faster — the acceptance bar of the vectorized core. Measured both
    materialized (one ``LatencyReport`` per mapping, what the engine
    consumes) and slim (arrays only, what array-level DSE loops consume).
    """
    layer = dense_layer(64, 128, 1200)
    budget = 4000 if full_mode() else 2000
    mapper = make_mapper(case_preset, enumerated=2 * budget, samples=budget)
    mappings = []
    for mapping in mapper.mappings(layer):
        mappings.append(mapping)
        if len(mappings) >= budget:
            break
    model = LatencyModel(case_preset.accelerator)
    evaluator = BatchEvaluator(case_preset.accelerator)

    t0 = time.perf_counter()
    scalar = [model.evaluate(m, validate=False) for m in mappings]
    scalar_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    batch = evaluator.evaluate(mappings, materialize=True)
    batch_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    slim = evaluator.evaluate(mappings, materialize=False)
    slim_s = time.perf_counter() - t0

    mismatches = sum(
        1 for s, b in zip(scalar, batch.reports)
        if (s.total_cycles, s.ss_overall, s.preload, s.offload, s.scenario)
        != (b.total_cycles, b.ss_overall, b.preload, b.offload, b.scenario)
    )
    n = len(mappings)
    payload = {
        "mappings": n,
        "scalar_us_per_mapping": scalar_s / n * 1e6,
        "batch_us_per_mapping": batch_s / n * 1e6,
        "slim_us_per_mapping": slim_s / n * 1e6,
        "speedup_materialized": scalar_s / batch_s,
        "speedup_slim": scalar_s / slim_s,
        "mismatches": mismatches,
    }
    out = emit_bench_artifact("batch", payload)
    print(f"\nbatch bench written to {out}: "
          f"scalar {payload['scalar_us_per_mapping']:.0f} us/map, "
          f"batch {payload['batch_us_per_mapping']:.1f} us/map "
          f"({payload['speedup_materialized']:.1f}x, "
          f"slim {payload['speedup_slim']:.1f}x)")
    assert mismatches == 0
    assert slim.total_cycles.tolist() == [r.total_cycles for r in scalar]
    assert payload["speedup_materialized"] >= 10.0
    assert payload["speedup_slim"] >= 10.0


def test_emit_engine_bench_artifact(case_preset, tmp_path_factory):
    """Measure the engine's evaluation paths and write ``BENCH_engine.json``.

    CI uploads the file as a build artifact, so engine performance
    (kernel evaluation rate, cache hit cost, repeated-sweep hit rate) is
    tracked per commit. The output path honors ``BENCH_DIR`` (defaults
    to the working directory).
    """
    layer = dense_layer(64, 128, 1200)
    mapper = make_mapper(case_preset, enumerated=80, samples=60)
    mappings = []
    for mapping in mapper.mappings(layer):
        mappings.append(mapping)
        if len(mappings) >= 50:
            break

    cold = EvaluationEngine(case_preset.accelerator)
    t0 = time.perf_counter()
    cold.evaluate_many(mappings)
    cold_s = time.perf_counter() - t0

    warm = EvaluationEngine(case_preset.accelerator)
    warm.evaluate_many(mappings)  # populate
    t0 = time.perf_counter()
    warm.evaluate_many(mappings)  # all hits
    hit_s = time.perf_counter() - t0

    payload = {
        "mappings": len(mappings),
        "uncached_eval_us": cold_s / len(mappings) * 1e6,
        "cache_hit_us": hit_s / len(mappings) * 1e6,
        "hit_vs_eval_speedup": cold_s / hit_s if hit_s else None,
        "stats": warm.stats.snapshot(),
    }
    out = emit_bench_artifact("engine", payload)
    print(f"\nengine bench written to {out}: "
          f"eval {payload['uncached_eval_us']:.0f} us, "
          f"hit {payload['cache_hit_us']:.1f} us")
    assert payload["stats"]["cache_hits"] >= len(mappings)
    assert hit_s < cold_s
