"""Inter-layer overlap estimation (a first-order cross-layer extension).

The paper's model is intra-layer; its conclusion names cross-layer
scenarios as future work. This module provides the simplest sound
cross-layer refinement on top of the per-layer reports: when layers run
back to back on one core, layer ``i+1``'s **data pre-loading** can overlap
layer ``i``'s computation (its weights/inputs stream into the on-chip
memories while the array is still busy), and layer ``i``'s **offloading**
can overlap layer ``i+1``'s pre-loading on disjoint ports.

The estimate is deliberately conservative about bandwidth: hidden preload
is capped by the *stall slack* of the producing layer — a layer that
already saturates its memory ports cannot absorb a neighbor's preload
traffic for free — using the port-utilization information the reports
carry.

This module is a pure post-processing pass over per-layer reports: it
constructs no models itself; the reports come from an engine-backed
:class:`~repro.analysis.network.NetworkEvaluator` run.
"""

from __future__ import annotations

import dataclasses
from typing import Sequence, Tuple

from repro.analysis.network import LayerResult, NetworkResult
from repro.observability.telemetry import telemetry


@dataclasses.dataclass(frozen=True)
class PipelinedEstimate:
    """Sequential vs overlapped execution of a layer sequence."""

    sequential_cycles: float
    pipelined_cycles: float
    hidden_cycles: float
    per_layer_hidden: Tuple[float, ...]

    @property
    def saving(self) -> float:
        """Fraction of the sequential latency removed by overlap."""
        if self.sequential_cycles <= 0:
            return 0.0
        return self.hidden_cycles / self.sequential_cycles

    def describe(self) -> str:
        """One-line summary."""
        return (
            f"sequential {self.sequential_cycles:.0f} cc -> pipelined "
            f"{self.pipelined_cycles:.0f} cc ({self.saving:.1%} hidden)"
        )


def _absorbable_cycles(result: LayerResult) -> float:
    """How much neighbor traffic layer ``result`` can absorb.

    A layer whose array never stalls still leaves its memory ports partly
    idle; we approximate the absorbable window by the computation phase
    scaled by the array's *utilization headroom is irrelevant here* — what
    matters is port headroom, approximated by the non-stalled fraction of
    the computation phase (a stall means some port is already the
    bottleneck and has no slack to give).
    """
    report = result.report
    comp = report.computation_cycles
    if comp <= 0:
        return 0.0
    stalled_fraction = report.ss_overall / comp
    return comp * max(0.0, 1.0 - stalled_fraction)


def estimate_pipeline(results: Sequence[LayerResult]) -> PipelinedEstimate:
    """Estimate the overlapped latency of ``results`` run back to back.

    Traced as one ``pipeline.estimate`` span with a ``pipeline.layer``
    event per overlapped boundary (absorbable window, hidden preload /
    offload), so cross-layer attribution lands in the same trace as the
    per-layer stall anatomy.
    """
    if not results:
        return PipelinedEstimate(0.0, 0.0, 0.0, ())

    tracer = telemetry().tracer
    with tracer.span("pipeline.estimate") as span:
        sequential = sum(r.report.total_cycles for r in results)
        hidden_per_layer = [0.0] * len(results)
        for i in range(1, len(results)):
            producer = results[i - 1]
            consumer = results[i]
            window = _absorbable_cycles(producer)
            hidden_preload = min(consumer.report.preload, window)
            # Offload of the producer can ride the same window as the
            # consumer's preload only on disjoint directions; be conservative
            # and hide at most half of it.
            hidden_offload = min(producer.report.offload * 0.5, max(
                0.0, window - hidden_preload
            ))
            hidden_per_layer[i] = hidden_preload + hidden_offload
            if tracer.enabled:
                tracer.event(
                    "pipeline.layer",
                    index=i,
                    layer=consumer.report.layer_name,
                    window=window,
                    hidden_preload=hidden_preload,
                    hidden_offload=hidden_offload,
                )
        hidden = sum(hidden_per_layer)
        if tracer.enabled:
            span.set_many(
                layers=len(results),
                sequential_cycles=sequential,
                pipelined_cycles=sequential - hidden,
                hidden_cycles=hidden,
            )
    return PipelinedEstimate(
        sequential_cycles=sequential,
        pipelined_cycles=sequential - hidden,
        hidden_cycles=hidden,
        per_layer_hidden=tuple(hidden_per_layer),
    )


def estimate_network_pipeline(result: NetworkResult) -> PipelinedEstimate:
    """Convenience wrapper over a :class:`NetworkResult`."""
    return estimate_pipeline(list(result.layers))
