"""Campaign-plane overhead: the no-campaign default must be (almost) free.

The campaign emit sites ride inside every search loop — the mapper's
per-order admit/discard, the climb's per-neighbor accounting, the
sweep's per-point funnel — so their cost with *no* ambient campaign
(the default) decides whether the plane can stay compiled-in. The
contract, asserted here and tracked per commit via
``BENCH_campaign.json``:

* a disabled site costs one contextvar read plus an ``enabled``
  attribute check (the ``telemetry().campaign.enabled`` guard every site
  uses), and the sites-per-evaluation the flows execute stay under 5%
  of kernel time;
* with a campaign *recording*, a real search slows down by a bounded
  factor — funnel updates are plain integer bumps and convergence
  events fire only on improvement.
"""

import time

from conftest import emit_bench_artifact, make_mapper
from repro.core.model import LatencyModel
from repro.observability.campaign import CampaignRecorder
from repro.observability.telemetry import telemetry, use_telemetry
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
    best = float("inf")
    for __ in range(repeats):
        t0 = time.perf_counter()
        for mapping in mappings:
            model.evaluate(mapping, validate=False)
        best = min(best, time.perf_counter() - t0)
    return best


def _null_site_cost_us(iterations: int = 50_000) -> float:
    """Measured cost of one disabled campaign site, in µs."""

    t0 = time.perf_counter()
    for __ in range(iterations):
        if telemetry().campaign.enabled:
            raise AssertionError("benchmark requires the null campaign")
    return (time.perf_counter() - t0) / iterations * 1e6


def _time_search(mapper, layer, repeats: int = 3) -> float:
    best = float("inf")
    for __ in range(repeats):
        mapper.engine.cache.clear()
        t0 = time.perf_counter()
        mapper.search(layer)
        best = min(best, time.perf_counter() - t0)
    return best


def test_disabled_campaign_overhead_under_5_percent(case_preset):
    mappings = _mappings(case_preset)
    model = LatencyModel(case_preset.accelerator)
    _time_evaluations(model, mappings, repeats=1)   # warm up

    disabled_s = _time_evaluations(model, mappings)
    disabled_us = disabled_s / len(mappings) * 1e6

    # Sites per evaluation on the disabled path: the mapper fetches the
    # campaign once per search and once per batch flush; per enumerated
    # order it touches only the (null) funnel whose methods are empty.
    # Charging TWO full guard sites per single evaluation is a strict
    # upper bound on what any flow executes.
    site_us = _null_site_cost_us()
    sites_per_eval = 2.0
    overhead = (site_us * sites_per_eval) / disabled_us

    # Enabled cost: the identical search with a recording campaign.
    layer = dense_layer(64, 128, 1200)
    mapper = make_mapper(case_preset, enumerated=60, samples=40)
    base_search_s = _time_search(mapper, layer)
    campaign = CampaignRecorder("bench")
    with use_telemetry(campaign=campaign):
        enabled_search_s = _time_search(mapper, layer)
    enabled_ratio = enabled_search_s / base_search_s

    payload = {
        "mappings": len(mappings),
        "disabled_us_per_eval": disabled_us,
        "null_site_us": site_us,
        "sites_per_eval_upper_bound": sites_per_eval,
        "disabled_overhead_pct": overhead * 100.0,
        "search_s_no_campaign": base_search_s,
        "search_s_with_campaign": enabled_search_s,
        "enabled_slowdown_x": enabled_ratio,
        "funnel_enumerated": campaign.funnel_totals()["enumerated"],
        "funnel_conserved": 1.0 if campaign.conserved else 0.0,
    }
    out = emit_bench_artifact("campaign", payload)
    print(f"\ncampaign bench written to {out}: "
          f"null site {site_us:.3f} us "
          f"(+{payload['disabled_overhead_pct']:.3f}% of "
          f"{disabled_us:.0f} us/eval), "
          f"recording search {enabled_ratio:.2f}x")

    assert overhead < 0.05, (
        f"disabled-campaign overhead {overhead:.1%} exceeds the 5% bar"
    )
    # The recording search really accounted for its candidates ...
    assert campaign.conserved and campaign.funnel_totals()["enumerated"] > 0
    # ... and integer bumps plus improvement-only events stay bounded.
    assert enabled_ratio < 2.0


def test_null_campaign_path_records_nothing(case_preset):
    """The ambient default accounts nothing while searching."""
    from repro.observability.campaign import NULL_CAMPAIGN

    mapper = make_mapper(case_preset, enumerated=20, samples=10)
    assert telemetry().campaign is NULL_CAMPAIGN
    mapper.search(dense_layer(16, 32, 60))
    assert telemetry().campaign is NULL_CAMPAIGN
    assert NULL_CAMPAIGN.phase("mapper").enumerated == 0
