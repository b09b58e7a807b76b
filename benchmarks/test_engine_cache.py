"""Engine cache benchmark.

A network sweep with repeated layer shapes (the common case — residual
stacks, repeated blocks) runs >= 2x faster through one engine than with
a fresh engine (an empty cache) per layer, with identical results.
Repeats hit at two levels: per-mapping latency reports, and whole
memoized search outcomes (both live in the same LRU, keyed by canonical
fingerprints).
"""

import time

from repro.analysis.network import NetworkEvaluator
from repro.dse.mapper import MapperConfig
from repro.engine import EvaluationEngine
from repro.hardware.presets import case_study_accelerator
from repro.workload.generator import dense_layer


def _repeated_network(repeats: int = 6):
    """A network of 4 distinct shapes, each appearing ``repeats`` times
    under distinct names (as in a real topology)."""
    shapes = [(64, 128, 600), (32, 64, 1200), (64, 64, 2400), (16, 128, 900)]
    return [
        dense_layer(b, k, c, name=f"L{i}_rep{r}")
        for r in range(repeats)
        for i, (b, k, c) in enumerate(shapes)
    ]


def _evaluate(preset, layers):
    engine = EvaluationEngine(preset.accelerator)
    evaluator = NetworkEvaluator(
        preset,
        mapper_config=MapperConfig(max_enumerated=80, samples=60),
        engine=engine,
    )
    return evaluator.evaluate(layers), engine.stats


def _evaluate_network():
    """The network through one engine: repeats hit its cache."""
    preset = case_study_accelerator()
    t0 = time.perf_counter()
    result, stats = _evaluate(preset, _repeated_network())
    return time.perf_counter() - t0, result, stats


def _evaluate_layers_cold():
    """Each layer through a fresh engine of its own: nothing hits."""
    preset = case_study_accelerator()
    t0 = time.perf_counter()
    results = [_evaluate(preset, [layer])[0] for layer in _repeated_network()]
    return time.perf_counter() - t0, results


def test_cache_speedup_on_repeated_network():
    uncached_s, uncached = _evaluate_layers_cold()
    cached_s, cached, stats = _evaluate_network()
    speedup = uncached_s / cached_s
    print("\nRepeated-layer network (24 layers, 4 distinct shapes):")
    print(f"  uncached {uncached_s * 1e3:8.1f} ms")
    print(f"  cached   {cached_s * 1e3:8.1f} ms   ({speedup:.2f}x)")
    print(f"  {stats.summary()}")
    # Identical numbers either way...
    assert cached.total_cycles == sum(r.total_cycles for r in uncached)
    assert len(cached.layers) == sum(len(r.layers) for r in uncached)
    # ...but repeats were served from the cache, >= 2x faster end to end.
    assert stats.cache_hits > 0
    assert speedup >= 2.0, f"cache speedup {speedup:.2f}x below the 2x bar"


def test_cache_hits_report_in_stats():
    __, ___, stats = _evaluate_network()
    assert stats.requests == stats.cache_hits + stats.cache_misses
    assert 0.0 < stats.hit_rate < 1.0
    assert stats.phase_seconds  # at least one phase timed
