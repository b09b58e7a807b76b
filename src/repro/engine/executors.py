"""Chunk evaluation: the unit of work behind ``EvaluationEngine.evaluate_many``.

The engine splits a batch of mappings into chunks and runs each chunk, in
list order and in the calling process, through :func:`evaluate_chunk`.
An untraced chunk goes through the vectorized
:class:`~repro.core.batch.BatchEvaluator`; a traced one runs the scalar
kernel per mapping, because the batch core emits no spans.

Tracing runs under a chunk-local :class:`~repro.observability.Tracer`:
:func:`evaluate_chunk` returns its span records alongside the results
and the engine merges them back, in chunk order, under its batch span,
each chunk on its own export track.
"""

from __future__ import annotations

import dataclasses
import time
from typing import List, Optional, Tuple

from repro.core.batch import BatchEvaluator, BatchLoweringError
from repro.core.model import LatencyModel
from repro.core.report import LatencyReport
from repro.core.step1 import ModelOptions
from repro.energy.energy_model import EnergyModel, EnergyReport
from repro.engine.cache import PartialResultCache
from repro.hardware.accelerator import Accelerator
from repro.mapping.mapping import Mapping, MappingError
from repro.observability.progress import worker_id
from repro.observability.span import SpanRecord
from repro.observability.tracer import Tracer, use_tracer

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
    batched: int = 0     # evaluations served by the vectorized batch core
    partial_hits: int = 0    # MUW-memo hits this chunk
    partial_misses: int = 0  # MUW-memo misses this chunk


#: What :func:`evaluate_chunk` returns: the outcomes, the chunk-local span
#: records (empty unless tracing was requested), and the chunk's timing.
ChunkResult = Tuple[ChunkOutcomes, List[SpanRecord], ChunkTiming]


def evaluate_chunk(
    accelerator: Accelerator,
    options: ModelOptions,
    mappings: Tuple[Mapping, ...],
    validate: bool,
    with_energy: bool,
    trace: bool,
) -> ChunkResult:
    """Evaluate one chunk of mappings, batched unless ``trace`` is set."""
    model = LatencyModel(accelerator, options)
    energy_model = EnergyModel(accelerator) if with_energy else None
    chunk_t0 = time.perf_counter()
    hits0, misses0 = _PARTIAL_CACHE.hits, _PARTIAL_CACHE.misses
    records: List[SpanRecord] = []
    if trace:
        out: ChunkOutcomes = []
        batched = 0
        tracer = Tracer()
        with use_tracer(tracer):
            for mapping in mappings:
                t0 = time.perf_counter()
                try:
                    report = model.evaluate(mapping, validate=validate)
                except MappingError:
                    out.append(None)
                    continue
                energy = energy_model.evaluate(mapping) if energy_model else None
                out.append((report, energy, time.perf_counter() - t0))
        records = tracer.records
    else:
        # The batch core produces bit-for-bit the numbers of the scalar
        # loop above (a registered verify property).
        out, batched = _run_batched(
            model, accelerator, options, mappings, validate, energy_model
        )
    errors = sum(1 for outcome in out if outcome is None)
    timing = ChunkTiming(
        worker=worker_id(),
        wall_s=time.perf_counter() - chunk_t0,
        evaluated=len(out) - errors,
        errors=errors,
        batched=batched,
        partial_hits=_PARTIAL_CACHE.hits - hits0,
        partial_misses=_PARTIAL_CACHE.misses - misses0,
    )
    return out, records, timing


def _run_batched(
    model: LatencyModel,
    accelerator: Accelerator,
    options: ModelOptions,
    mappings: Tuple[Mapping, ...],
    validate: bool,
    energy_model: Optional[EnergyModel],
) -> Tuple[ChunkOutcomes, int]:
    """Chunk body of the vectorized path: group-by-layer, batch, fall back.

    Validation and energy stay per-mapping (they are cheap relative to the
    latency kernels and have no vectorized form); invalid mappings become
    ``None`` outcomes exactly as on the scalar path. Mappings the batch
    evaluator cannot lower — or a group it rejects — run through the
    scalar model so the chunk's outcome list is always complete.
    """
    n = len(mappings)
    out: ChunkOutcomes = [None] * n
    evaluator = BatchEvaluator(accelerator, options, muw_cache=_PARTIAL_CACHE)
    scalar_idx: List[int] = []
    groups: List[Tuple[object, List[int]]] = []  # (layer, mapping indices)
    for i, mapping in enumerate(mappings):
        if validate:
            try:
                model.check(mapping)
            except MappingError:
                continue  # outcome stays None, counted as an error
        if not evaluator.supports(mapping):
            scalar_idx.append(i)
            continue
        for layer, idxs in groups:
            if mapping.layer is layer or mapping.layer == layer:
                idxs.append(i)
                break
        else:
            groups.append((mapping.layer, [i]))

    batched = 0
    for __, idxs in groups:
        group = [mappings[i] for i in idxs]
        t0 = time.perf_counter()
        try:
            result = evaluator.evaluate(group, materialize=True)
        except BatchLoweringError:
            scalar_idx.extend(idxs)
            continue
        per_map = (time.perf_counter() - t0) / len(idxs)
        for i, report in zip(idxs, result.reports):
            t1 = time.perf_counter()
            energy = energy_model.evaluate(mappings[i]) if energy_model else None
            out[i] = (report, energy, per_map + (time.perf_counter() - t1))
        batched += len(idxs)

    for i in sorted(scalar_idx):
        t0 = time.perf_counter()
        try:
            # validate=False: mappings reaching here already passed check()
            # above (or the caller asked for no validation).
            report = model.evaluate(mappings[i], validate=False)
        except MappingError:
            continue
        energy = energy_model.evaluate(mappings[i]) if energy_model else None
        out[i] = (report, energy, time.perf_counter() - t0)
    return out, batched
