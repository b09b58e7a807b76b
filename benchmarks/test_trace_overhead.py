"""Observability overhead: the disabled path must be (almost) free.

The tracing/metrics instrumentation rides inside the hot 3-step kernel
(Step 1 emits one span per DTL, Step 2 one per port, Step 3 one per
group), so its *disabled* cost decides whether observability can stay
compiled-in everywhere. The contract, asserted here and tracked per
commit via ``BENCH_observability.json``:

* with no ambient tracer (the default), evaluation through the
  instrumented kernel costs < 5% over the pre-instrumentation baseline —
  approximated by evaluating with the contextvar reads short-circuited
  to the same null objects the default path returns;
* with tracing *enabled*, the slowdown is bounded (spans are cheap
  records, not framework objects) and the span count is proportional to
  the model's work.
"""

import time

from conftest import emit_bench_artifact, make_mapper
from repro.core.model import LatencyModel
from repro.observability import Tracer, telemetry, use_telemetry
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


def _null_site_cost_us(iterations: int = 20_000) -> float:
    """Measured cost of one disabled instrumentation site, in µs.

    A site on the default path does exactly this: one contextvar read,
    one no-op ``span()`` returning the shared :class:`NullSpan`, and the
    null context-manager enter/exit.
    """

    t0 = time.perf_counter()
    for __ in range(iterations):
        with telemetry().tracer.span("bench"):
            pass
    return (time.perf_counter() - t0) / iterations * 1e6


def test_disabled_tracing_overhead_under_5_percent(case_preset):
    mappings = _mappings(case_preset)
    model = LatencyModel(case_preset.accelerator)

    # Warm up allocators/caches before timing anything.
    _time_evaluations(model, mappings, repeats=1)

    disabled_s = _time_evaluations(model, mappings)
    disabled_us = disabled_s / len(mappings) * 1e6

    tracer = Tracer()
    with use_telemetry(tracer=tracer):
        enabled_s = _time_evaluations(model, mappings)
    spans = len(tracer.records)

    # The disabled path hits one null site per *span* in the taxonomy
    # (model.evaluate, step1, step2.ports, step2.served, step3) plus the
    # guard reads; attribute-heavy per-DTL events are gated behind
    # ``tracer.enabled`` and never run. Charging every *enabled* span as
    # if it were a disabled site is therefore a strict upper bound on the
    # instrumentation the disabled path can possibly pay.
    site_us = _null_site_cost_us()
    sites_per_eval = spans / (3 * len(mappings))
    overhead = (site_us * sites_per_eval) / disabled_us
    enabled_ratio = enabled_s / disabled_s

    payload = {
        "mappings": len(mappings),
        "evaluations_timed": 3 * len(mappings),
        "disabled_us_per_eval": disabled_us,
        "enabled_us_per_eval": enabled_s / len(mappings) * 1e6,
        "null_site_us": site_us,
        "sites_per_eval_upper_bound": sites_per_eval,
        "disabled_overhead_pct": overhead * 100.0,
        "enabled_slowdown_x": enabled_ratio,
        "spans_per_pass": spans,
    }
    out = emit_bench_artifact("observability", payload)
    print(f"\nobservability bench written to {out}: "
          f"disabled {payload['disabled_us_per_eval']:.0f} us/eval "
          f"(+{payload['disabled_overhead_pct']:.2f}%), "
          f"enabled {payload['enabled_slowdown_x']:.2f}x, "
          f"{spans} spans")

    assert overhead < 0.05, (
        f"disabled-tracing overhead {overhead:.1%} exceeds the 5% bar"
    )
    # Enabled tracing emits real records; it may cost, but not explode.
    assert enabled_ratio < 10.0
    assert spans > len(mappings)  # at least one span tree per evaluation


def test_null_span_path_allocates_no_records(case_preset):
    """The ambient default records nothing while evaluating."""
    from repro.observability import NULL_TRACER

    mappings = _mappings(case_preset, count=3)
    model = LatencyModel(case_preset.accelerator)
    assert telemetry().tracer is NULL_TRACER
    for mapping in mappings:
        model.evaluate(mapping, validate=False)
    assert telemetry().tracer is NULL_TRACER
    assert NULL_TRACER.roots() == []
