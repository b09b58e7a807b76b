"""Chunk evaluation: the unit of work behind ``EvaluationEngine.evaluate_many``
and ``EvaluationEngine.best_of``.

The engine splits a batch of mappings into chunks and runs each chunk, in
list order and in the calling process, through :func:`evaluate_chunk`:
one call of the vectorized :class:`~repro.core.batch.BatchEvaluator` per
layer in the chunk, or in a latency search one call of its bound-first
``best``.

A traced chunk gives every lane with an outcome its full report and
projects it (:func:`~repro.core.report.trace_report`) onto the ambient
tracer, under the engine's open ``engine.batch`` span.
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

#: MUW-union memo shared by every batched chunk this process evaluates.
#: Keys encode all inputs of the memoized computation, so one cache per
#: process is sound across accelerators, options and layers — and it is
#: exactly what makes re-evaluating a perturbed mapping cheap: a
#: hill-climb neighbor reuses most of its parent's window unions.
_PARTIAL_CACHE = PartialResultCache()
#: Per-mapping outcome: (latency report, optional energy report, kernel
#: wall seconds), or None when the mapping has no report.
ChunkOutcomes = List[
    Optional[Tuple[LatencyReport, Optional[EnergyReport], float]]
]


@dataclasses.dataclass(frozen=True)
class ChunkTiming:
    """Per-chunk liveness/timing returned with the chunk's results; the
    engine turns it into progress events and engine stats."""

    wall_s: float        # chunk wall time
    evaluated: int       # mappings that produced a report
    shallow: Tuple[int, ...]  # positions of mappings shallower than the machine
    partial_hits: int = 0    # MUW-memo hits this chunk
    partial_misses: int = 0  # MUW-memo misses this chunk
    pruned: int = 0          # lanes a latency bound ruled out (best mode)


def evaluate_chunk(
    accelerator: Accelerator,
    options: ModelOptions,
    mappings: Tuple[Mapping, ...],
    with_energy: bool,
    trace: bool,
    evaluator: BatchEvaluator,
    incumbent: Optional[float] = None,
) -> Tuple[ChunkOutcomes, ChunkTiming]:
    """Evaluate one chunk of mappings through ``evaluator``, the calling
    engine's batch core (built once per engine).

    A mapping shallower than the machine's memory hierarchy gets no
    outcome; its position is in ``timing.shallow``. With ``incumbent`` (a
    latency in cycles; the mappings share one layer) the chunk is one
    step of a latency search: only its first mapping with the least
    latency below ``incumbent`` gets an outcome
    (:meth:`~repro.core.batch.BatchEvaluator.best`), and the timing
    counts the lanes scored and those pruned by their latency bound.
    """
    chunk_t0 = time.perf_counter()
    hits0, misses0 = _PARTIAL_CACHE.hits, _PARTIAL_CACHE.misses
    feasible: List[int] = []
    shallow: List[int] = []
    for i, mapping in enumerate(mappings):
        try:
            check_depth(mapping, accelerator)
        except MappingError:
            shallow.append(i)
            continue
        feasible.append(i)
    if incumbent is None:
        energy_model = EnergyModel(accelerator) if with_energy else None
        out = _run_batched(evaluator, mappings, feasible, energy_model, trace)
        evaluated, pruned = len(feasible), 0
    else:
        out = [None] * len(mappings)
        t0 = time.perf_counter()
        found = evaluator.best([mappings[i] for i in feasible], incumbent)
        if found.lane is not None:
            lane, result = found.lane, found.result
            report = result.full_report(lane) if trace else result.reports[lane]
            out[feasible[lane]] = (report, None, time.perf_counter() - t0)
        evaluated, pruned = found.scored, found.pruned
    if trace:
        for outcome in out:
            if outcome is not None:
                trace_report(outcome[0], accelerator.stall_overlap, options)
    timing = ChunkTiming(
        wall_s=time.perf_counter() - chunk_t0,
        evaluated=evaluated,
        shallow=tuple(shallow),
        partial_hits=_PARTIAL_CACHE.hits - hits0,
        partial_misses=_PARTIAL_CACHE.misses - misses0,
        pruned=pruned,
    )
    return out, timing


def _run_batched(
    evaluator: BatchEvaluator,
    mappings: Tuple[Mapping, ...],
    feasible: List[int],
    energy_model: Optional[EnergyModel],
    full: bool,
) -> ChunkOutcomes:
    """Chunk body over the ``feasible`` positions: group by layer, one
    batch-core call per group.

    Energy stays per-mapping (it is cheap relative to the latency kernels
    and has no vectorized form). ``full`` gives every report its per-DTL
    anatomy (:meth:`~repro.core.batch.BatchResult.full_report`).
    """
    out: ChunkOutcomes = [None] * len(mappings)
    groups: List[Tuple[object, List[int]]] = []  # (layer, mapping indices)
    for i in feasible:
        layer = mappings[i].layer
        for group_layer, idxs in groups:
            if layer is group_layer or layer == group_layer:
                idxs.append(i)
                break
        else:
            groups.append((layer, [i]))

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
