"""Progress-event overhead: the no-emitter default must be (almost) free.

The telemetry emit sites ride inside every long-running flow — the
engine's per-chunk loop, the mapper's incumbent updates, the sweep's
per-point advance — so their cost with *no* ambient emitter (the
default) decides whether the event stream can stay compiled-in
everywhere. The contract, asserted here and tracked per commit via
``BENCH_progress.json``:

* a disabled site costs what every flow now does unguarded: one
  contextvar read, a ``start_run`` on the null emitter, the ``with``
  enter and exit of the null run and one ``advance``; the
  sites-per-evaluation the flows actually execute stay under 5% of
  kernel time;
* with an emitter *enabled* and a real search running, the slowdown is
  bounded (events are frozen dataclasses fanned to plain callables).
"""

import time

from conftest import emit_bench_artifact, make_mapper
from repro.core.model import LatencyModel
from repro.observability import ProgressEmitter, telemetry, use_telemetry
from repro.workload.generator import dense_layer


def _mappings(case_preset, count: int = 40):
    mapper = make_mapper(case_preset, enumerated=80, samples=60)
    out = []
    for mapping in mapper.mappings(dense_layer(64, 128, 1200)):
        out.append(mapping)
        if len(out) >= count:
            break
    return out


def _time_evaluations(model, mappings, repeats: int = 3) -> float:
    """Best-of-N wall time of one pass over ``mappings`` (seconds)."""
    best = float("inf")
    for __ in range(repeats):
        t0 = time.perf_counter()
        for mapping in mappings:
            model.evaluate(mapping, validate=False)
        best = min(best, time.perf_counter() - t0)
    return best


def _null_site_cost_us(iterations: int = 50_000) -> float:
    """Measured cost of one disabled emit site, in µs.

    A site on the default path does exactly this: one contextvar read,
    ``start_run`` on the null emitter, the ``with`` enter and exit of
    the shared null run, and one ``advance`` inside it.
    """
    from repro.observability import NULL_EMITTER

    assert telemetry().progress is NULL_EMITTER, "benchmark requires the null emitter"
    t0 = time.perf_counter()
    for __ in range(iterations):
        with telemetry().progress.start_run("flow", unit="evals") as run:
            run.advance(1)
    return (time.perf_counter() - t0) / iterations * 1e6


def _time_search(mapper, layer, repeats: int = 3) -> float:
    best = float("inf")
    for __ in range(repeats):
        mapper.engine.cache.clear()
        t0 = time.perf_counter()
        mapper.search(layer)
        best = min(best, time.perf_counter() - t0)
    return best


def test_disabled_progress_overhead_under_5_percent(case_preset):
    mappings = _mappings(case_preset)
    model = LatencyModel(case_preset.accelerator)

    # Warm up allocators/caches before timing anything.
    _time_evaluations(model, mappings, repeats=1)

    disabled_s = _time_evaluations(model, mappings)
    disabled_us = disabled_s / len(mappings) * 1e6

    # Sites per evaluation on the disabled path: the engine joins a run
    # once per batch and advances it once per chunk (chunks hold >= 1
    # mapping), the mapper opens one run per search and reports each
    # incumbent. Charging TWO full sites per single evaluation is a
    # strict upper bound on what any flow executes.
    site_us = _null_site_cost_us()
    sites_per_eval = 2.0
    overhead = (site_us * sites_per_eval) / disabled_us

    # Enabled cost: a real mapper search streaming into a throwaway
    # subscriber, against the identical search with the default emitter.
    layer = dense_layer(64, 128, 1200)
    mapper = make_mapper(case_preset, enumerated=60, samples=40)
    base_search_s = _time_search(mapper, layer)
    emitter = ProgressEmitter()
    sink_count = [0]
    emitter.subscribe(lambda _event: sink_count.__setitem__(0, sink_count[0] + 1))
    with use_telemetry(progress=emitter):
        enabled_search_s = _time_search(mapper, layer)
    enabled_ratio = enabled_search_s / base_search_s

    payload = {
        "mappings": len(mappings),
        "disabled_us_per_eval": disabled_us,
        "null_site_us": site_us,
        "sites_per_eval_upper_bound": sites_per_eval,
        "disabled_overhead_pct": overhead * 100.0,
        "search_s_no_emitter": base_search_s,
        "search_s_with_emitter": enabled_search_s,
        "enabled_slowdown_x": enabled_ratio,
        "events_per_search": sink_count[0] / 3.0,
    }
    out = emit_bench_artifact("progress", payload)
    print(f"\nprogress bench written to {out}: "
          f"null site {site_us:.3f} us "
          f"(+{payload['disabled_overhead_pct']:.3f}% of "
          f"{disabled_us:.0f} us/eval), "
          f"enabled search {enabled_ratio:.2f}x")

    assert overhead < 0.05, (
        f"disabled-progress overhead {overhead:.1%} exceeds the 5% bar"
    )
    assert sink_count[0] > 0  # the enabled search really streamed events
    # Enabled streaming emits real events; it may cost, but not explode.
    assert enabled_ratio < 10.0


def test_null_emitter_path_emits_nothing(case_preset):
    """The ambient default streams no events while evaluating."""
    from repro.observability import NULL_EMITTER

    mappings = _mappings(case_preset, count=3)
    model = LatencyModel(case_preset.accelerator)
    assert telemetry().progress is NULL_EMITTER
    for mapping in mappings:
        model.evaluate(mapping, validate=False)
    assert telemetry().progress is NULL_EMITTER
    assert NULL_EMITTER.current_run() is None
