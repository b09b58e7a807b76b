"""The shared evaluation engine: one path for every model evaluation.

Every flow in this reproduction — mapping search (Case 1), workload
sweeps (Case 2), architecture DSE (Case 3), sensitivity what-ifs, network
evaluation, the CLI — ultimately runs the same pure 3-step kernel
(:class:`repro.core.model.LatencyModel`). The :class:`EvaluationEngine`
owns that kernel for one (accelerator, options) pair and adds what the
kernel deliberately does not have:

* an LRU **cache** keyed on (accelerator fingerprint, options
  fingerprint, :attr:`Mapping.cache_key`), so repeated design points —
  repeated layer shapes in a network, revisited loop orders in a hill
  climb, shared mappings across a sweep — are evaluated once. The mapping
  part is structural (plain str/int values); the SHA-256
  ``Mapping.fingerprint()`` is computed only for ledger rows;
* **batch evaluation** (:meth:`evaluate_many`): cache misses run in
  chunks through the vectorized batch core, in list order and in the
  calling process;
* an :class:`~repro.observability.stats.EngineStats` **instrumentation
  surface** (evaluations run, hits/misses, wall time per phase), plus
  **observability hooks**: spans on the ambient
  :class:`~repro.observability.Tracer` (each chunk's span records are
  merged in chunk order, one export track per chunk), counters /
  histograms on the ambient :class:`~repro.observability.MetricsRegistry`,
  and one durable :class:`~repro.observability.RunRecord` per evaluation
  on the ambient :class:`~repro.observability.RunLedger`.
  All default to no-ops and cost nothing when disabled.

Engines are cheap; :meth:`derive` builds one for another machine or
options while *sharing* the cache and stats — the idiom for
architecture sweeps where every design point is a different accelerator.
:meth:`from_preset` is the one canonical constructor shorthand (CLI,
examples and :mod:`repro.api` all use it).
"""

from __future__ import annotations

import dataclasses
import time
from typing import Iterable, List, Optional

from repro.core.model import LatencyModel
from repro.core.report import LatencyReport
from repro.core.step1 import ModelOptions
from repro.energy.energy_model import EnergyModel, EnergyReport
from repro.engine.cache import EvaluationCache
from repro.engine import executors
from repro.fingerprint import stable_fingerprint
from repro.hardware.accelerator import Accelerator
from repro.mapping.mapping import Mapping
from repro.observability.ledger import (
    RunRecord,
    checkpoint_interruption,
    current_ledger,
    record_from_report,
)
from repro.observability.campaign import current_campaign
from repro.observability.metrics import current_metrics
from repro.observability.progress import current_emitter
from repro.observability.stats import EngineStats
from repro.observability.tracer import current_tracer


@dataclasses.dataclass(frozen=True)
class Evaluation:
    """One mapping's evaluated reports, as returned by :meth:`evaluate_many`.

    ``cache_hit`` records score provenance — True when the result was
    served by a persistent-cache probe rather than a fresh kernel
    evaluation — so search loops can attribute funnel retention to the
    right campaign bucket.
    """

    mapping: Mapping
    report: LatencyReport
    energy: Optional[EnergyReport] = None
    cache_hit: bool = False


class EvaluationEngine:
    """Cached, instrumented, batchable evaluation of mappings on one machine.

    Parameters
    ----------
    accelerator:
        The hardware design point this engine evaluates on.
    options:
        Modeling conventions forwarded to :class:`LatencyModel`.
    cache:
        A shared :class:`EvaluationCache`; one is created when omitted.
    cache_size:
        Capacity of the created cache (ignored when ``cache`` is given).
    use_cache:
        Disable to force every evaluation through the kernel (benchmarks
        and ablations; the cache object is still attached but unused).
    stats:
        A shared :class:`EngineStats`; one is created when omitted.
    chunk_size:
        Mappings per chunk in :meth:`evaluate_many`. The default equals
        :attr:`MapperConfig.batch_size <repro.dse.mapper.MapperConfig>`,
        so a mapper block is one chunk and pays the batch core's fixed
        per-call cost once. Chunks run serially in the calling process;
        they buy no parallelism, only ledger checkpoints, progress events
        and trace tracks. Untraced chunks run through the vectorized
        :class:`~repro.core.batch.BatchEvaluator` (bit-for-bit the scalar
        kernel's numbers); traced chunks run the scalar kernel, because
        the batch core emits no spans.

    Examples
    --------
    >>> engine = EvaluationEngine.from_preset(preset)     # doctest: +SKIP
    >>> report = engine.evaluate(mapping)                 # doctest: +SKIP
    >>> engine.stats.hit_rate                             # doctest: +SKIP
    """

    def __init__(
        self,
        accelerator: Accelerator,
        options: Optional[ModelOptions] = None,
        *,
        cache: Optional[EvaluationCache] = None,
        cache_size: int = 65536,
        use_cache: bool = True,
        stats: Optional[EngineStats] = None,
        chunk_size: int = 256,
        spatial_unrolling: Optional[dict] = None,
    ) -> None:
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        self.accelerator = accelerator
        self.options = options or ModelOptions()
        #: The machine's native dataflow (empty = purely temporal). Part
        #: of the :class:`~repro.engine.evaluator.Evaluator` protocol so
        #: callers holding only an evaluator can still seed a mapper.
        self.spatial_unrolling = dict(spatial_unrolling or {})
        self.use_cache = use_cache
        self.cache = cache if cache is not None else EvaluationCache(cache_size)
        self.stats = stats if stats is not None else EngineStats()
        self.chunk_size = chunk_size
        self._model = LatencyModel(accelerator, self.options)
        self._energy_model = EnergyModel(accelerator)
        self._accel_fp = accelerator.fingerprint()
        self._options_fp = stable_fingerprint(self.options)

    # ------------------------------------------------------------------ #
    # Construction / derivation / lifecycle
    # ------------------------------------------------------------------ #

    @classmethod
    def from_preset(
        cls,
        preset,
        options: Optional[ModelOptions] = None,
        **kwargs,
    ) -> "EvaluationEngine":
        """The canonical engine for a preset (or bare accelerator).

        Carries the preset's native spatial unrolling onto the engine.
        Keyword arguments pass through to the constructor
        (``use_cache=``, ``cache=``, ``chunk_size=``, ...).

        ``preset`` may be a :class:`~repro.hardware.presets.Preset` or a
        bare :class:`~repro.hardware.accelerator.Accelerator`.
        """
        accelerator = getattr(preset, "accelerator", preset)
        if "spatial_unrolling" not in kwargs:
            kwargs["spatial_unrolling"] = getattr(preset, "spatial_unrolling", None)
        return cls(accelerator, options, **kwargs)

    def derive(
        self,
        accelerator: Optional[Accelerator] = None,
        options: Optional[ModelOptions] = None,
    ) -> "EvaluationEngine":
        """An engine for another machine/options sharing this engine's
        cache and stats.

        Fingerprinted cache keys keep entries from different machines
        apart, so a whole architecture or sensitivity sweep can pool its
        evaluations in one cache and report one stats surface.
        """
        return EvaluationEngine(
            accelerator if accelerator is not None else self.accelerator,
            options if options is not None else self.options,
            cache=self.cache,
            use_cache=self.use_cache,
            stats=self.stats,
            chunk_size=self.chunk_size,
            # The native dataflow belongs to the machine: it travels with
            # an unchanged accelerator but not onto a different one.
            spatial_unrolling=(
                self.spatial_unrolling
                if accelerator is None or accelerator is self.accelerator
                else None
            ),
        )

    def close(self) -> None:
        """No-op: the engine holds no resources; the ``Evaluator``
        protocol requires ``close``."""

    def __enter__(self) -> "EvaluationEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    @property
    def accelerator_fingerprint(self) -> str:
        """Canonical fingerprint of this engine's accelerator."""
        return self._accel_fp

    @property
    def options_fingerprint(self) -> str:
        """Canonical fingerprint of this engine's model options."""
        return self._options_fp

    # ------------------------------------------------------------------ #
    # Cache keys
    # ------------------------------------------------------------------ #

    def _latency_key(self, mapping: Mapping):
        return ("latency", self._accel_fp, self._options_fp, mapping.cache_key)

    def _energy_key(self, mapping: Mapping):
        # The energy model takes no ModelOptions; its key omits them.
        return ("energy", self._accel_fp, mapping.cache_key)

    # ------------------------------------------------------------------ #
    # Single evaluations
    # ------------------------------------------------------------------ #

    def check(self, mapping: Mapping) -> None:
        """Raise :class:`MappingError` if ``mapping`` is infeasible here."""
        self._model.check(mapping)

    def evaluate(self, mapping: Mapping, validate: bool = True) -> LatencyReport:
        """Latency of ``mapping``, served from the cache when possible."""
        if validate:
            self._model.check(mapping)
        tracer = current_tracer()
        metrics = current_metrics()
        ledger = current_ledger()
        timed = metrics.enabled or ledger.enabled
        with self.stats.phase("evaluate"), tracer.span("engine.evaluate") as span:
            t0 = time.perf_counter() if timed else 0.0
            if not self.use_cache:
                self.stats.evaluations += 1
                report = self._model.evaluate(mapping, validate=False)
                self._observe_single(metrics, span, t0, cache_hit=None)
                self._ledger_single(ledger, mapping, report, t0, cache_hit=None)
                return report
            key = self._latency_key(mapping)
            report = self.cache.get(key)
            if report is not None:
                if not report.dtls:
                    # A batch-path entry: numerically identical but slim
                    # (no per-DTL anatomy). evaluate() promises the full
                    # report, so rebuild the anatomy and upgrade the entry
                    # in place — still a hit, the numbers were cached.
                    report = self._model.evaluate(mapping, validate=False)
                    self.cache.put(key, report)
                self.stats.cache_hits += 1
                self._observe_single(metrics, span, t0, cache_hit=True)
                self._ledger_single(ledger, mapping, report, t0, cache_hit=True)
                return report
            self.stats.cache_misses += 1
            self.stats.evaluations += 1
            report = self._model.evaluate(mapping, validate=False)
            self.cache.put(key, report)
            self._observe_single(metrics, span, t0, cache_hit=False)
            self._ledger_single(ledger, mapping, report, t0, cache_hit=False)
            return report

    def _observe_single(self, metrics, span, t0: float, cache_hit) -> None:
        """Metrics/span bookkeeping of one :meth:`evaluate` call."""
        if cache_hit is not None:
            span.set("cache_hit", cache_hit)
        if not metrics.enabled:
            return
        metrics.counter(
            "repro_engine_requests_total", "engine.evaluate calls"
        ).inc()
        if cache_hit:
            metrics.counter(
                "repro_engine_cache_hits_total", "evaluations served from cache"
            ).inc()
        else:
            metrics.counter(
                "repro_engine_evaluations_total", "latency kernels run"
            ).inc()
        metrics.histogram(
            "repro_engine_evaluate_seconds", "engine.evaluate latency"
        ).observe(time.perf_counter() - t0)

    def _ledger_single(self, ledger, mapping, report, t0: float, cache_hit) -> None:
        """Ledger row of one :meth:`evaluate` call (no-op when disabled)."""
        if not ledger.enabled:
            return
        ledger.append(self._ledger_record(
            mapping, report,
            cache_hit=cache_hit,
            wall_time_s=time.perf_counter() - t0,
        ))

    def _ledger_record(
        self, mapping: Mapping, report: LatencyReport, *, cache_hit, wall_time_s: float
    ) -> RunRecord:
        """One evaluation as a ledger row, fingerprinted for this engine.

        When a campaign is ambient its name is stamped on the row, so a
        campaign's evaluation rows can be selected back out of a shared
        ledger.
        """
        record = record_from_report(
            report,
            accelerator_fp=self._accel_fp,
            mapping_fp=mapping.fingerprint(),
            options_fp=self._options_fp,
            cache_hit=cache_hit,
            wall_time_s=wall_time_s,
        )
        record.campaign = current_campaign().name
        return record

    def evaluate_energy(self, mapping: Mapping) -> EnergyReport:
        """Dynamic energy of ``mapping``, served from the cache when possible."""
        with self.stats.phase("energy"), current_tracer().span("engine.energy"):
            if not self.use_cache:
                self.stats.energy_evaluations += 1
                return self._energy_model.evaluate(mapping)
            key = self._energy_key(mapping)
            energy = self.cache.get(key)
            if energy is not None:
                self.stats.cache_hits += 1
                return energy
            self.stats.cache_misses += 1
            self.stats.energy_evaluations += 1
            energy = self._energy_model.evaluate(mapping)
            self.cache.put(key, energy)
            return energy

    # ------------------------------------------------------------------ #
    # Batch evaluation
    # ------------------------------------------------------------------ #

    def evaluate_many(
        self,
        mappings: Iterable[Mapping],
        validate: bool = False,
        with_energy: bool = False,
    ) -> List[Optional[Evaluation]]:
        """Evaluate a batch of mappings, preserving order.

        Cache hits are answered immediately; misses are evaluated in
        chunks of ``chunk_size``. The result list is parallel to the input:
        entry ``i`` is an :class:`Evaluation`, or ``None`` when mapping
        ``i`` raised :class:`MappingError` (infeasible under ``validate``
        or inconsistent with the machine's memory depth).

        When a tracer is ambient, every chunk's spans (mapping candidates
        with their full step1/2/3 anatomy) are collected and merged under
        this batch's span in chunk order, each chunk on its own export
        track.

        When a progress emitter is ambient, the batch accrues into the
        caller's open ``unit="evals"`` run (a mapper search) or opens its
        own ``engine.batch`` run, emitting a heartbeat + chunk event as
        each chunk's :class:`~repro.engine.executors.ChunkTiming` arrives.
        Ledger rows are flushed **per chunk** — so a
        Ctrl-C mid-batch still leaves every completed evaluation plus one
        ``kind="interrupted"`` checkpoint row before the interrupt
        propagates to the caller.
        """
        mappings = list(mappings)
        results: List[Optional[Evaluation]] = [None] * len(mappings)
        tracer = current_tracer()
        metrics = current_metrics()
        ledger = current_ledger()
        ledger_rows: List[RunRecord] = []
        with current_emitter().join_run(
            "engine.batch",
            total_units=len(mappings),
            unit="evals",
            accelerator=getattr(self.accelerator, "name", ""),
        ) as run, self.stats.phase("batch"), \
                tracer.span("engine.batch") as span:
            self.stats.batches += 1
            pending: List[int] = []
            if self.use_cache:
                for i, mapping in enumerate(mappings):
                    report = self.cache.get(self._latency_key(mapping))
                    energy = (
                        self.cache.get(self._energy_key(mapping))
                        if with_energy
                        else None
                    )
                    if report is not None and (not with_energy or energy is not None):
                        self.stats.cache_hits += 1
                        results[i] = Evaluation(
                            mapping, report, energy, cache_hit=True
                        )
                        if ledger.enabled:
                            ledger_rows.append(self._ledger_record(
                                mapping, report,
                                cache_hit=True, wall_time_s=0.0,
                            ))
                    else:
                        self.stats.cache_misses += 1
                        pending.append(i)
            else:
                pending = list(range(len(mappings)))
            hits = len(mappings) - len(pending)
            if tracer.enabled:
                span.set("mappings", len(mappings))
                span.set("cache_hits", hits)
            if metrics.enabled:
                metrics.counter(
                    "repro_engine_batches_total", "evaluate_many calls"
                ).inc()
                metrics.counter(
                    "repro_engine_cache_hits_total",
                    "evaluations served from cache",
                ).inc(hits)
            if self.use_cache:
                run.cache_stats(
                    hits, len(pending),
                    dedup_skipped=self.stats.dedup_skipped,
                    partial_hits=self.stats.partial_hits,
                    partial_misses=self.stats.partial_misses,
                )
            if hits:
                run.advance(hits, note="cache")
            if not pending:
                ledger.append_many(ledger_rows)
                return results

            chunks = [
                pending[at : at + self.chunk_size]
                for at in range(0, len(pending), self.chunk_size)
            ]
            t0 = time.perf_counter() if metrics.enabled else 0.0
            try:
                for chunk_index, chunk in enumerate(chunks):
                    # Looked up on the module at call time, so wrappers
                    # installed on executors.evaluate_chunk see every chunk.
                    outcomes, records, timing = executors.evaluate_chunk(
                        self.accelerator,
                        self.options,
                        tuple(mappings[i] for i in chunk),
                        validate,
                        with_energy,
                        tracer.enabled,
                    )
                    tracer.merge(records, track=chunk_index + 1)
                    for i, outcome in zip(chunk, outcomes):
                        if outcome is None:
                            self.stats.errors += 1
                            continue
                        report, energy, wall_s = outcome
                        self.stats.evaluations += 1
                        if with_energy:
                            self.stats.energy_evaluations += 1
                        if self.use_cache:
                            self.cache.put(self._latency_key(mappings[i]), report)
                            if with_energy and energy is not None:
                                self.cache.put(self._energy_key(mappings[i]), energy)
                        results[i] = Evaluation(mappings[i], report, energy)
                        if ledger.enabled:
                            ledger_rows.append(self._ledger_record(
                                mappings[i], report,
                                cache_hit=False, wall_time_s=wall_s,
                            ))
                    # Checkpoint: flush this chunk's rows so an interrupt
                    # never loses completed evaluations.
                    if ledger_rows:
                        ledger.append_many(ledger_rows)
                        ledger_rows = []
                    self.stats.batched_evaluations += timing.batched
                    self.stats.partial_hits += timing.partial_hits
                    self.stats.partial_misses += timing.partial_misses
                    run.advance(
                        len(chunk),
                        errors=timing.errors,
                        wall_s=timing.wall_s,
                        worker=timing.worker,
                        index=chunk_index,
                    )
            except KeyboardInterrupt:
                # Checkpoint before the interrupt propagates: unflushed
                # rows plus one kind="interrupted" marker. The run closes
                # on the way out, unless an enclosing search owns it.
                ledger.append_many(ledger_rows)
                checkpoint_interruption(
                    "engine.batch",
                    done_units=sum(1 for r in results if r is not None),
                    total_units=len(mappings),
                    unit="evals",
                )
                raise
            if metrics.enabled:
                elapsed = time.perf_counter() - t0
                metrics.counter(
                    "repro_engine_evaluations_total", "latency kernels run"
                ).inc(len(pending))
                metrics.histogram(
                    "repro_engine_batch_seconds", "evaluate_many miss latency"
                ).observe(elapsed)
                if elapsed > 0:
                    metrics.gauge(
                        "repro_engine_evaluations_per_second",
                        "kernel throughput of the last batch",
                    ).set(len(pending) / elapsed)
            ledger.append_many(ledger_rows)
        return results
