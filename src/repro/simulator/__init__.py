"""Event-driven cycle-level reference simulator (validation substrate).

The paper validates its analytical model against RTL simulation of a
taped-out accelerator (Fig. 5c). That chip is not available, so this
package provides the substitute ground truth: a stateful, event-driven
simulator of the same abstract machine. Nothing here shares code with the
closed-form stall equations — stalls *emerge* from simulated port
contention, keep-out windows, refill pipelines and drain deadlines — which
is what makes the model-vs-simulator comparison meaningful.

* :mod:`~repro.simulator.streams` — lowers a mapping onto periodic
  transfer-job streams (refills, flushes, partial-sum read-backs) with
  precise first/last-visit decoding for the output reduction pattern;
  each :class:`JobStream` holds its jobs as columns (gates, thresholds,
  bits, per-port bits, upstream job numbers);
* :mod:`~repro.simulator.engine` — the discrete-event executor, reading
  those columns directly: a compute clock gated by job thresholds,
  processor-sharing port arbitration, and dependency-chained multi-hop
  refills;
* :class:`~repro.simulator.result.SimulationResult` — measured cycles,
  stall anatomy and per-port busy statistics;
* :mod:`~repro.simulator.rtl` — a register-stage-accurate *second* oracle
  (tick-driven, fixed-priority arbiters, its own lowering) that shares no
  evaluation code with the event engine, enabling three-way differential
  verification in :mod:`repro.verify`.
"""

from repro.simulator.engine import CycleSimulator
from repro.simulator.result import SimulationResult, accuracy
from repro.simulator.rtl import RtlSimulationResult, RtlSimulator
from repro.simulator.streams import JobStream, build_streams
from repro.simulator.trace import JobEvent, StallInterval, TraceRecorder

__all__ = [
    "CycleSimulator",
    "JobEvent",
    "JobStream",
    "RtlSimulationResult",
    "RtlSimulator",
    "SimulationResult",
    "StallInterval",
    "TraceRecorder",
    "accuracy",
    "build_streams",
]
