"""Chunk evaluation: the unit of work behind ``EvaluationEngine.evaluate_many``
and ``EvaluationEngine.best_of``.

The engine splits a batch of mappings into chunks and runs each chunk, in
list order and in the calling process, through :func:`evaluate_chunk`:
one call of the vectorized :class:`~repro.core.batch.BatchEvaluator` per
layer in the chunk, or in a latency search one call of its bound-first
``best``.

A traced chunk gives every lane its full report and projects it
(:func:`~repro.core.report.trace_report`) under a chunk-local
:class:`~repro.observability.Tracer`: :func:`evaluate_chunk` returns
those span records alongside the results and the engine merges them
back, in chunk order, under its batch span, each chunk on its own
export track.
"""

from __future__ import annotations

import dataclasses
import time
from typing import List, Optional, Tuple

from repro.core.batch import BatchEvaluator
from repro.core.report import LatencyReport, trace_report
from repro.core.step1 import ModelOptions
from repro.energy.energy_model import EnergyModel, EnergyReport
from repro.engine.cache import PartialResultCache
from repro.hardware.accelerator import Accelerator
from repro.mapping.mapping import Mapping, MappingError, check_depth
from repro.observability.progress import worker_id
from repro.observability.span import SpanRecord
from repro.observability.telemetry import use_telemetry
from repro.observability.tracer import Tracer

#: MUW-union memo shared by every batched chunk this process evaluates.
#: Keys encode all inputs of the memoized computation, so one cache per
#: process is sound across accelerators, options and layers — and it is
#: exactly what makes re-evaluating a perturbed mapping cheap: a
#: hill-climb neighbor reuses most of its parent's window unions.
_PARTIAL_CACHE = PartialResultCache()
#: Per-mapping outcome: (latency report, optional energy report, kernel
#: wall seconds), or None when the mapping raised MappingError.
ChunkOutcomes = List[
    Optional[Tuple[LatencyReport, Optional[EnergyReport], float]]
]


@dataclasses.dataclass(frozen=True)
class ChunkTiming:
    """Per-chunk liveness/timing returned with the chunk's results; the
    engine turns it into progress events and engine stats."""

    worker: str          # "pid:<pid>" of the process that ran the chunk
    wall_s: float        # chunk wall time
    evaluated: int       # mappings that produced a report
    errors: int          # mappings that raised MappingError
    partial_hits: int = 0    # MUW-memo hits this chunk
    partial_misses: int = 0  # MUW-memo misses this chunk
    pruned: int = 0          # lanes a latency bound ruled out (best mode)


#: What :func:`evaluate_chunk` returns: the outcomes, the chunk-local span
#: records (empty unless tracing was requested), and the chunk's timing.
ChunkResult = Tuple[ChunkOutcomes, List[SpanRecord], ChunkTiming]


def evaluate_chunk(
    accelerator: Accelerator,
    options: ModelOptions,
    mappings: Tuple[Mapping, ...],
    with_energy: bool,
    trace: bool,
    evaluator: Optional[BatchEvaluator] = None,
    incumbent: Optional[float] = None,
) -> ChunkResult:
    """Evaluate one chunk of mappings through the batch core.

    ``evaluator`` is the calling engine's batch core, so its plan is
    built once per engine; one is built here when it is omitted.

    With ``incumbent`` (a latency in cycles; the mappings share one
    layer) the chunk is one step of a latency search: only its first
    mapping with the least latency below ``incumbent`` gets an outcome
    (:meth:`~repro.core.batch.BatchEvaluator.best`). The timing counts
    the lanes scored, pruned by their latency bound, and infeasible.
    """
    if evaluator is None:
        evaluator = BatchEvaluator(accelerator, options, muw_cache=_PARTIAL_CACHE)
    energy_model = EnergyModel(accelerator) if with_energy else None
    chunk_t0 = time.perf_counter()
    hits0, misses0 = _PARTIAL_CACHE.hits, _PARTIAL_CACHE.misses
    pruned = 0
    if incumbent is None:
        out = _run_batched(evaluator, mappings, energy_model, trace)
        errors = sum(1 for outcome in out if outcome is None)
        evaluated = len(out) - errors
    else:
        out, evaluated, pruned = _run_best(evaluator, mappings, incumbent, trace)
        errors = len(out) - evaluated - pruned
    records: List[SpanRecord] = []
    if trace:
        tracer = Tracer()
        with use_telemetry(tracer=tracer):
            for outcome in out:
                if outcome is not None:
                    trace_report(outcome[0], accelerator.stall_overlap, options)
        records = tracer.records
    timing = ChunkTiming(
        worker=worker_id(),
        wall_s=time.perf_counter() - chunk_t0,
        evaluated=evaluated,
        errors=errors,
        partial_hits=_PARTIAL_CACHE.hits - hits0,
        partial_misses=_PARTIAL_CACHE.misses - misses0,
        pruned=pruned,
    )
    return out, records, timing


def _run_best(
    evaluator: BatchEvaluator,
    mappings: Tuple[Mapping, ...],
    incumbent: float,
    full: bool,
) -> Tuple[ChunkOutcomes, int, int]:
    """Best-mode chunk body: ``(outcomes, scored, pruned)``, the outcome
    set only for the winner; a mapping shallower than the machine is
    neither scored nor pruned."""
    out: ChunkOutcomes = [None] * len(mappings)
    feasible = []
    for i, mapping in enumerate(mappings):
        try:
            check_depth(mapping, evaluator.accelerator)
        except MappingError:
            continue
        feasible.append(i)
    t0 = time.perf_counter()
    found = evaluator.best([mappings[i] for i in feasible], incumbent)
    if found.lane is not None:
        lane = found.lane
        report = (
            found.result.full_report(lane) if full else found.result.reports[lane]
        )
        out[feasible[lane]] = (report, None, time.perf_counter() - t0)
    return out, found.scored, found.pruned


def _run_batched(
    evaluator: BatchEvaluator,
    mappings: Tuple[Mapping, ...],
    energy_model: Optional[EnergyModel],
    full: bool,
) -> ChunkOutcomes:
    """Chunk body: group by layer, one batch-core call per group.

    Energy stays per-mapping (it is cheap relative to the latency kernels
    and has no vectorized form). A mapping shallower than the machine
    becomes a ``None`` outcome; the engine checks feasibility before its
    cache. ``full`` gives every report its per-DTL anatomy
    (:meth:`~repro.core.batch.BatchResult.full_report`).
    """
    accelerator = evaluator.accelerator
    out: ChunkOutcomes = [None] * len(mappings)
    groups: List[Tuple[object, List[int]]] = []  # (layer, mapping indices)
    for i, mapping in enumerate(mappings):
        try:
            check_depth(mapping, accelerator)
        except MappingError:
            continue  # outcome stays None, counted as an error
        for layer, idxs in groups:
            if mapping.layer is layer or mapping.layer == layer:
                idxs.append(i)
                break
        else:
            groups.append((mapping.layer, [i]))

    for __, idxs in groups:
        t0 = time.perf_counter()
        result = evaluator.evaluate([mappings[i] for i in idxs], materialize=True)
        reports = (
            [result.full_report(lane) for lane in range(len(idxs))]
            if full else result.reports
        )
        per_map = (time.perf_counter() - t0) / len(idxs)
        for i, report in zip(idxs, reports):
            t1 = time.perf_counter()
            energy = energy_model.evaluate(mappings[i]) if energy_model else None
            out[i] = (report, energy, per_map + (time.perf_counter() - t1))
    return out
