"""Chunk evaluation: the unit of work behind ``EvaluationEngine.evaluate_many``
and ``EvaluationEngine.best_of``.

The engine splits a batch of mappings into chunks and runs each chunk, in
list order and in the calling process, through :func:`evaluate_chunk`:
one call of the vectorized :class:`~repro.core.batch.BatchEvaluator` per
layer in the chunk, or in a latency search one call of its bound-first
``best``. A mapper's candidates arrive as a
:class:`~repro.mapping.block.MappingBlock` and stay columns here.

A traced chunk gives every lane with an outcome its full report and
projects it (:func:`~repro.core.report.trace_report`) onto the ambient
tracer, under the engine's open ``engine.batch`` span.
"""

from __future__ import annotations

import dataclasses
import time
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.batch import BatchEvaluator
from repro.core.report import LatencyReport, trace_report
from repro.core.step1 import ModelOptions
from repro.energy.energy_model import EnergyModel, EnergyReport
from repro.engine.cache import PartialResultCache
from repro.hardware.accelerator import Accelerator
from repro.mapping.block import BatchLoweringError, MappingBlock, pack
from repro.mapping.mapping import Mapping
from repro.workload.operand import Operand

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
    mappings: Sequence[Mapping],
    with_energy: bool,
    trace: bool,
    evaluator: BatchEvaluator,
    incumbent: Optional[float] = None,
) -> Tuple[ChunkOutcomes, ChunkTiming]:
    """Evaluate one chunk of mappings through ``evaluator``, the calling
    engine's batch core (built once per engine).

    ``mappings`` is a :class:`~repro.mapping.block.MappingBlock` or a
    sequence of mappings, which is packed into one block per layer. A
    mapping shallower than the machine's memory hierarchy (read from the
    block's cut columns) gets no outcome; its position is in
    ``timing.shallow``. With ``incumbent`` (a latency in cycles; the
    mappings share one layer) the chunk is one step of a latency search:
    only its first mapping with the least latency below ``incumbent`` gets
    an outcome (:meth:`~repro.core.batch.BatchEvaluator.best`), and the
    timing counts the lanes scored and those pruned by their latency
    bound.
    """
    chunk_t0 = time.perf_counter()
    hits0, misses0 = _PARTIAL_CACHE.hits, _PARTIAL_CACHE.misses
    depths = {op: accelerator.hierarchy.depth(op) for op in Operand}
    groups: List[Tuple[np.ndarray, MappingBlock]] = []
    shallow: List[int] = []
    for positions, block in _by_layer(mappings):
        short = block.shallow(depths)
        if short.any():
            shallow.extend(positions[short].tolist())
            keep = np.flatnonzero(~short)
            positions, block = positions[keep], block.take(keep)
        if len(block):
            groups.append((positions, block))
    shallow.sort()
    if incumbent is None:
        energy_model = EnergyModel(accelerator) if with_energy else None
        out = _run_batched(evaluator, len(mappings), groups, energy_model, trace)
        evaluated, pruned = sum(len(block) for __, block in groups), 0
    else:
        if len(groups) > 1:
            raise BatchLoweringError("batch mappings must share one layer")
        out = [None] * len(mappings)
        evaluated = pruned = 0
        for positions, block in groups:  # one layer: at most one group
            t0 = time.perf_counter()
            found = evaluator.best(block, incumbent)
            if found.lane is not None:
                lane, result = found.lane, found.result
                report = result.full_report(lane) if trace else result.reports[lane]
                out[positions[lane]] = (report, None, time.perf_counter() - t0)
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


def _by_layer(mappings: Sequence[Mapping]) -> List[Tuple[np.ndarray, MappingBlock]]:
    """``(positions, block)`` per layer of ``mappings``, in order of first
    appearance; a block is its own single group."""
    if isinstance(mappings, MappingBlock):
        return [(np.arange(len(mappings)), mappings)]
    groups: List[Tuple[object, List[int]]] = []  # (layer, mapping indices)
    for i, mapping in enumerate(mappings):
        layer = mapping.layer
        for group_layer, idxs in groups:
            if layer is group_layer or layer == group_layer:
                idxs.append(i)
                break
        else:
            groups.append((layer, [i]))
    return [
        (np.array(idxs), pack([mappings[i] for i in idxs])) for __, idxs in groups
    ]


def _run_batched(
    evaluator: BatchEvaluator,
    n: int,
    groups: List[Tuple[np.ndarray, MappingBlock]],
    energy_model: Optional[EnergyModel],
    full: bool,
) -> ChunkOutcomes:
    """Chunk body over ``n`` mappings: one batch-core call per layer
    block in ``groups``, whose rows sit at their ``positions``.

    Energy stays per-mapping (it is cheap relative to the latency kernels
    and has no vectorized form). ``full`` gives every report its per-DTL
    anatomy (:meth:`~repro.core.batch.BatchResult.full_report`).
    """
    out: ChunkOutcomes = [None] * n
    for positions, block in groups:
        t0 = time.perf_counter()
        result = evaluator.evaluate(block, materialize=True)
        reports = (
            [result.full_report(lane) for lane in range(len(block))]
            if full else result.reports
        )
        per_map = (time.perf_counter() - t0) / len(block)
        for lane, (i, report) in enumerate(zip(positions.tolist(), reports)):
            t1 = time.perf_counter()
            energy = energy_model.evaluate(block[lane]) if energy_model else None
            out[i] = (report, energy, per_map + (time.perf_counter() - t1))
    return out
