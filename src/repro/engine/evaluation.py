"""The shared evaluation engine: one path for every model evaluation.

Every flow in this reproduction — mapping search (Case 1), workload
sweeps (Case 2), architecture DSE (Case 3), sensitivity what-ifs, network
evaluation, the CLI — ultimately runs the same pure 3-step kernel: the
vectorized :class:`repro.core.batch.BatchEvaluator`, whose reports equal
those of the reference :class:`repro.core.model.LatencyModel`.

``_FrontEnd`` is what the in-process engine and the served client
(:class:`~repro.serve.RemoteEngine`) share: identity and the local
``check``; an LRU **cache**, always on, keyed on (accelerator
fingerprint, options fingerprint, :attr:`Mapping.cache_key`), so
repeated design points — repeated layer shapes in a network, revisited
loop orders in a hill climb, shared mappings across a sweep — are
evaluated once (the SHA-256 ``Mapping.fingerprint()`` is computed only
for ledger rows; a hit is named for the asked layer and flagged
``cache_hit``); the :class:`~repro.observability.stats.EngineStats`
counters; the energy flow; the bookkeeping of ``evaluate_many`` around
its kernel; and ``derive``, which builds a sibling for another machine
or options *sharing* the cache and stats — the idiom for architecture
sweeps where every design point is a different accelerator.

:class:`EvaluationEngine` adds its kernel: one batch core (one plan) for
one (accelerator, options) pair, through which cache misses run in
chunks, in list order and in the calling process; the bound-first
``best_of``; full reports (a single ``evaluate`` is a one-lane batch
with its full anatomy); and **observability hooks**: spans on the
ambient :class:`~repro.observability.Tracer` (every chunk projects its
reports under the batch span, in chunk order), latency histograms and a
throughput gauge on the ambient
:class:`~repro.observability.MetricsRegistry` (its counts are the
:class:`EngineStats` fields, which ``MetricsRegistry.ingest`` exports),
progress events and one durable :class:`~repro.observability.RunRecord` per
evaluation on the ambient :class:`~repro.observability.RunLedger`. All
default to no-ops and cost nothing when disabled. :meth:`from_preset`
is the one canonical constructor shorthand (CLI, examples and
:mod:`repro.api` all use it).
"""

from __future__ import annotations

import copy
import dataclasses
import math
import time
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

from repro.core.batch import BatchEvaluator
from repro.core.model import LatencyModel
from repro.core.report import LatencyReport, trace_report
from repro.core.step1 import ModelOptions
from repro.energy.energy_model import EnergyModel, EnergyReport
from repro.engine.cache import EvaluationCache, PartialResultCache
from repro.engine import executors
from repro.fingerprint import stable_fingerprint
from repro.hardware.accelerator import Accelerator
from repro.mapping.block import MappingBlock
from repro.mapping.mapping import Mapping, MappingError
from repro.observability.ledger import (
    RunRecord,
    checkpoint_interruption,
    record_from_report,
)
from repro.observability.stats import EngineStats
from repro.observability.telemetry import telemetry
from repro.workload.layer import LayerSpec

#: Mappings per chunk in :meth:`EvaluationEngine.evaluate_many` and
#: :meth:`EvaluationEngine.best_of`. It equals
#: :attr:`MapperConfig.batch_size <repro.dse.mapper.MapperConfig>`, so a
#: mapper block is one chunk and pays the batch core's fixed per-call cost
#: once. Chunks run serially in the calling process; they buy no
#: parallelism, only ledger checkpoints and progress events, and bound
#: the work a Ctrl-C loses.
CHUNK_SIZE = 256


def for_layer(report, layer: LayerSpec):
    """``report`` (a latency or energy report, or None) as the answer for
    ``layer``.

    Cache and store keys hold the layer's fingerprint, which leaves its
    name out, so a hit can carry the name of another layer with the same
    shape. The name is stamped the way the model names a report; the
    report is copied only when the names differ.
    """
    name = layer.name or str(layer.layer_type)
    if report is None or report.layer_name == name:
        return report
    return dataclasses.replace(report, layer_name=name)


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


@dataclasses.dataclass(frozen=True)
class BestOf:
    """What :meth:`EvaluationEngine.best_of` found in one block of mappings."""

    #: The first mapping with the least latency below the incumbent, or
    #: None when no mapping beats it.
    best: Optional[Evaluation]
    #: Mappings whose exact latency is known (cache hits included).
    scored: int
    #: Mappings a latency bound ruled out without a report.
    pruned: int = 0
    #: Mappings shallower than the machine.
    infeasible: int = 0
    #: Scored or pruned mappings ahead of ``best`` (all of them when it
    #: is None): the candidates a search passes before its winner.
    ahead: int = 0

    @classmethod
    def scan(
        cls, outcomes: List[Optional[Evaluation]], incumbent: float
    ) -> "BestOf":
        """The result over :meth:`EvaluationEngine.evaluate_many`
        outcomes: a strict ``<`` scan, so the first of equals wins."""
        at, __ = _first_least(
            [None if outcome is None else outcome.report for outcome in outcomes],
            incumbent,
        )
        scored = sum(1 for outcome in outcomes if outcome is not None)
        ahead = (
            scored if at < 0
            else sum(1 for outcome in outcomes[:at] if outcome is not None)
        )
        return cls(
            outcomes[at] if at >= 0 else None,
            scored, 0, len(outcomes) - scored, ahead,
        )


def _first_least(
    reports: List[Optional[LatencyReport]], incumbent: float
) -> Tuple[int, float]:
    """Position and latency of the first least latency below
    ``incumbent`` among ``reports``; ``(-1, incumbent)`` when none."""
    at, least = -1, incumbent
    for i, report in enumerate(reports):
        if report is not None and report.total_cycles < least:
            at, least = i, report.total_cycles
    return at, least


@dataclasses.dataclass
class _Batch:
    """One batch, parallel to its input ``rows``: a report (or None), an
    energy and a cache-hit flag per row, the rows' ``keys`` and the two
    functions that turn a key into the row's latency and energy cache
    keys. :meth:`_FrontEnd._probe` fills it before the kernel runs."""

    rows: Sequence[Mapping]
    keys: Sequence
    latency_key: Callable[..., Tuple]
    energy_key: Callable[..., Tuple]
    reports: List[Optional[LatencyReport]]
    energies: List[Optional[EnergyReport]]
    hits: List[bool]
    #: Positions of the rows the cache did not answer, in order.
    pending: List[int] = dataclasses.field(default_factory=list)
    #: Rows refused by the local feasibility check.
    invalid: int = 0
    scored: int = 0
    pruned: int = 0
    #: Positions of the rows shallower than the machine.
    shallow: List[int] = dataclasses.field(default_factory=list)


class _FrontEnd:
    """What every evaluator shares (see the module docstring). A
    subclass adds its kernel: ``evaluate``, ``best_of``, ``_run_batch``
    (:meth:`_probe`, evaluate ``pending``, :meth:`_keep`) and
    ``_energy_miss``."""

    def __init__(
        self,
        accelerator: Accelerator,
        options: Optional[ModelOptions] = None,
        *,
        cache: Optional[EvaluationCache] = None,
        stats: Optional[EngineStats] = None,
        spatial_unrolling: Optional[dict] = None,
    ) -> None:
        self.accelerator = accelerator
        self.options = options or ModelOptions()
        #: The machine's native dataflow (empty = purely temporal). Part
        #: of the :class:`~repro.engine.evaluator.Evaluator` protocol so
        #: callers holding only an evaluator can still seed a mapper.
        self.spatial_unrolling = dict(spatial_unrolling or {})
        self.cache = cache if cache is not None else EvaluationCache()
        self.stats = stats if stats is not None else EngineStats()
        self._model = LatencyModel(accelerator, self.options)  # check() only
        self._accel_fp = accelerator.fingerprint()
        self._options_fp = stable_fingerprint(self.options)

    # ------------------------------------------------------------------ #
    # Identity, lineage, lifecycle
    # ------------------------------------------------------------------ #

    @property
    def accelerator_fingerprint(self) -> str:
        """Canonical fingerprint of the evaluated machine."""
        return self._accel_fp

    @property
    def options_fingerprint(self) -> str:
        """Canonical fingerprint of the model options."""
        return self._options_fp

    def derive(
        self,
        accelerator: Optional[Accelerator] = None,
        options: Optional[ModelOptions] = None,
    ):
        """An evaluator for another machine/options sharing this one's
        cache and stats.

        Fingerprinted cache keys keep entries from different machines
        apart, so a whole architecture or sensitivity sweep can pool its
        evaluations in one cache and report one stats surface. The
        native dataflow belongs to the machine: it travels with an
        unchanged accelerator but not onto a different one.
        """
        same = accelerator is None or accelerator is self.accelerator
        return self._sibling(
            self.accelerator if same else accelerator,
            self.options if options is None else options,
            self.spatial_unrolling if same else None,
        )

    def _sibling(self, accelerator, options, spatial_unrolling):
        return type(self)(
            accelerator, options,
            cache=self.cache, stats=self.stats, spatial_unrolling=spatial_unrolling,
        )

    def close(self) -> None:
        """Release what the evaluator holds (the engine holds nothing)."""

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Cache keys and probes
    # ------------------------------------------------------------------ #

    # Each key is built in one call: a batch probe calls one of these per
    # row (the client's per mapping, the engine's per block row).

    def _latency_key(self, mapping: Mapping):
        return ("latency", self._accel_fp, self._options_fp, mapping.cache_key)

    def _energy_key(self, mapping: Mapping):
        return ("energy", self._accel_fp, mapping.cache_key)

    def _row_latency_key(self, cache_key: Tuple):
        """The latency key of the row whose :attr:`Mapping.cache_key` is
        ``cache_key`` (a block row need not be built as a mapping)."""
        return ("latency", self._accel_fp, self._options_fp, cache_key)

    def _row_energy_key(self, cache_key: Tuple):
        # The energy model takes no ModelOptions; its key omits them.
        return ("energy", self._accel_fp, cache_key)

    def _cached(self, key: Tuple, layer: LayerSpec):
        """The entry under ``key`` named for ``layer``, counted as a hit,
        or None, counted as a miss."""
        entry = self.cache.get(key)
        if entry is None:
            self.stats.cache_misses += 1
            return None
        self.stats.cache_hits += 1
        return for_layer(entry, layer)

    def check(self, mapping: Mapping) -> None:
        """Raise :class:`MappingError` if ``mapping`` is infeasible here.

        Validation is model arithmetic on the local machine description,
        so a client of a daemon runs it without a round trip.
        """
        self._model.check(mapping)

    # ------------------------------------------------------------------ #
    # The evaluation verbs
    # ------------------------------------------------------------------ #

    def evaluate_energy(self, mapping: Mapping) -> EnergyReport:
        """Dynamic energy of ``mapping``, served from the cache when possible."""
        key = self._energy_key(mapping)
        energy = self._cached(key, mapping.layer)
        if energy is None:
            energy = self._energy_miss(mapping)
            self.stats.energy_evaluations += 1
            self.cache.put(key, energy)
        return energy

    def evaluate_many(
        self,
        mappings: Iterable[Mapping],
        validate: bool = False,
        with_energy: bool = False,
    ) -> List[Optional[Evaluation]]:
        """Evaluate a batch of mappings, preserving order.

        Under ``validate`` every mapping is checked first, so an
        infeasible one is refused even when its report is cached. Cache
        hits (with ``with_energy``, both entries) are answered at once
        and flagged ``cache_hit``; the misses go to the kernel. Entry
        ``i`` is an :class:`Evaluation`, or ``None`` when mapping ``i``
        raised :class:`MappingError` (infeasible under ``validate`` or
        shallower than the machine's memory hierarchy).
        """
        batch = self._run_batch(_rows(mappings), validate, with_energy)
        rows = batch.rows
        return [
            None if report is None else Evaluation(rows[i], report, energy, hit)
            for i, (report, energy, hit) in enumerate(
                zip(batch.reports, batch.energies, batch.hits)
            )
        ]

    # ------------------------------------------------------------------ #
    # Batch bookkeeping around the kernel
    # ------------------------------------------------------------------ #

    def _probe(
        self,
        rows: Sequence[Mapping],
        keys: Sequence,
        latency_key: Callable[..., Tuple],
        energy_key: Callable[..., Tuple],
        validate: bool,
        with_energy: bool,
    ) -> _Batch:
        """The batch before the kernel runs: each row checked under
        ``validate``, then answered from the cache (its keys are
        ``latency_key(keys[i])`` and ``energy_key(keys[i])``) or queued
        in ``pending``."""
        n = len(keys)
        batch = _Batch(
            rows, keys, latency_key, energy_key, [None] * n, [None] * n, [False] * n
        )
        reports, energies, hits, pending = (
            batch.reports, batch.energies, batch.hits, batch.pending
        )
        block = isinstance(rows, MappingBlock)
        self.stats.batches += 1
        for i, key in enumerate(keys):
            if validate:
                try:
                    self._model.check(rows[i])
                except MappingError:
                    batch.invalid += 1
                    continue
            report = self.cache.get(latency_key(key))
            energy = self.cache.get(energy_key(key)) if with_energy else None
            if report is not None and (not with_energy or energy is not None):
                layer = rows.layer if block else rows[i].layer
                reports[i], energies[i] = for_layer(report, layer), for_layer(energy, layer)
                hits[i] = True
            else:
                pending.append(i)
        batch.scored = n - batch.invalid - len(pending)
        self.stats.cache_hits += batch.scored
        self.stats.cache_misses += len(pending)
        self.stats.errors += batch.invalid
        return batch

    def _keep(self, batch: _Batch, positions: Iterable[int]) -> None:
        """The batch after the kernel answered the rows at ``positions``:
        cache each report and energy, counting the energies."""
        for i in positions:
            report = batch.reports[i]
            if report is None:
                continue
            key = batch.keys[i]
            self.cache.put(batch.latency_key(key), report)
            energy = batch.energies[i]
            if energy is not None:
                self.stats.energy_evaluations += 1
                self.cache.put(batch.energy_key(key), energy)


class EvaluationEngine(_FrontEnd):
    """Cached, instrumented, batchable evaluation of mappings on one machine.

    Parameters
    ----------
    accelerator:
        The hardware design point this engine evaluates on.
    options:
        Modeling conventions of the model.
    cache:
        A shared :class:`EvaluationCache`; one is created when omitted.
    stats:
        A shared :class:`EngineStats`; one is created when omitted.

    Examples
    --------
    >>> engine = EvaluationEngine.from_preset(preset)     # doctest: +SKIP
    >>> report = engine.evaluate(mapping)                 # doctest: +SKIP
    >>> engine.stats.hit_rate                             # doctest: +SKIP
    """

    # Bound on the class itself: perfbench/layers.py times them through
    # this class's __dict__.
    _latency_key = _FrontEnd._latency_key
    _energy_key = _FrontEnd._energy_key

    #: The kernels, built on first use: the batch core of the chunks, its
    #: one-lane copy for evaluate() and the energy model.
    _batch: Optional[BatchEvaluator] = None
    _single: Optional[BatchEvaluator] = None
    _energy_model: Optional[EnergyModel] = None

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
        (``cache=``, ``stats=``, ``spatial_unrolling=``).

        ``preset`` may be a :class:`~repro.hardware.presets.Preset` or a
        bare :class:`~repro.hardware.accelerator.Accelerator`.
        """
        accelerator = getattr(preset, "accelerator", preset)
        if "spatial_unrolling" not in kwargs:
            kwargs["spatial_unrolling"] = getattr(preset, "spatial_unrolling", None)
        return cls(accelerator, options, **kwargs)

    # ------------------------------------------------------------------ #
    # The kernel
    # ------------------------------------------------------------------ #

    def _evaluator(self) -> BatchEvaluator:
        """This engine's batch core for chunks, built on first use; it
        memoizes MUW unions in the process-wide sweep memo."""
        if self._batch is None:
            self._batch = BatchEvaluator(
                self.accelerator, self.options, muw_cache=executors._PARTIAL_CACHE
            )
        return self._batch

    def _full_report(self, mapping: Mapping) -> LatencyReport:
        """``mapping`` as a one-lane batch with its anatomy, projected
        onto the ambient tracer."""
        if self._single is None:
            # The same plan with a memo of its own: single evaluations
            # leave the sweep memo as the chunks alone would.
            self._single = copy.copy(self._evaluator())
            self._single.muw_cache = PartialResultCache()
        report = self._single.evaluate([mapping]).full_report(0)
        trace_report(report, self.accelerator.stall_overlap, self.options)
        return report

    def _energy_miss(self, mapping: Mapping) -> EnergyReport:
        if self._energy_model is None:
            self._energy_model = EnergyModel(self.accelerator)
        return self._energy_model.evaluate(mapping)

    # ------------------------------------------------------------------ #
    # Single evaluations
    # ------------------------------------------------------------------ #

    def evaluate(self, mapping: Mapping, validate: bool = True) -> LatencyReport:
        """Full latency report of ``mapping``, cached when possible.

        Raises :class:`MappingError` when ``mapping`` is infeasible under
        ``validate`` or shallower than the machine's memory hierarchy.
        """
        if validate:
            self._model.check(mapping)
        t = telemetry()
        tracer, metrics, ledger = t.tracer, t.metrics, t.ledger
        timed = metrics.enabled or ledger.enabled
        with self.stats.phase("evaluate"), tracer.span("engine.evaluate") as span:
            t0 = time.perf_counter() if timed else 0.0
            key = self._latency_key(mapping)
            report = self._cached(key, mapping.layer)
            hit = report is not None
            if not hit:
                self.stats.evaluations += 1
            if not hit or not report.dtls:
                # A miss, or an evaluate_many entry: slim (no per-DTL
                # anatomy). evaluate() promises the full report, so the
                # anatomy is rebuilt and the entry upgraded in place — a
                # slim entry is still a hit, its numbers were cached.
                report = self._full_report(mapping)
                self.cache.put(key, report)
            span.set("cache_hit", hit)
            if metrics.enabled:
                metrics.histogram(
                    "repro_engine_evaluate_seconds", "engine.evaluate latency"
                ).observe(time.perf_counter() - t0)
            self._ledger_single(ledger, mapping, report, t0, cache_hit=hit)
            return report

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
        record.campaign = telemetry().campaign.name
        return record

    def evaluate_energy(self, mapping: Mapping) -> EnergyReport:
        """Dynamic energy of ``mapping``, served from the cache when possible."""
        with self.stats.phase("energy"), telemetry().tracer.span("engine.energy"):
            return super().evaluate_energy(mapping)

    # ------------------------------------------------------------------ #
    # Batch evaluation
    # ------------------------------------------------------------------ #

    def best_of(
        self, mappings: Iterable[Mapping], incumbent: float = math.inf
    ) -> BestOf:
        """The first of ``mappings`` (one layer) with the least latency
        below ``incumbent``: one block of a latency search.

        Cache hits are scored from their reports; the misses run in
        chunks through the batch core's bound-first
        :meth:`~repro.core.batch.BatchEvaluator.best`, each chunk against
        the best found so far. A lane whose latency bound rules it out
        gets no report, cache entry, ledger row or span (counted in
        :attr:`BestOf.pruned` and ``stats.bound_pruned``); only the winner
        is cached. Chunks are :data:`CHUNK_SIZE` lanes as in
        :meth:`evaluate_many`, because they are the unit of ledger
        checkpoints, progress events and of the work a Ctrl-C loses: a
        block larger than a chunk keeps them. Each chunk's winner is its
        only row and span.

        Given a :class:`~repro.mapping.block.MappingBlock`, keys, the
        depth check and the bound read its columns, and only the winner
        (and, with a ledger, each row that gets a ledger row) is built as
        a :class:`Mapping`.
        """
        rows = _rows(mappings)
        batch = self._run_batch(rows, False, False, incumbent)
        scored, pruned, shallow = batch.scored, batch.pruned, batch.shallow
        at, __ = _first_least(batch.reports, incumbent)
        if at < 0:
            return BestOf(None, scored, pruned, len(shallow), scored + pruned)
        best = Evaluation(rows[at], batch.reports[at], None, batch.hits[at])
        if not best.cache_hit:
            self.cache.put(self._row_latency_key(batch.keys[at]), best.report)
        ahead = at - sum(1 for i in shallow if i < at)
        return BestOf(best, scored, pruned, len(shallow), ahead)

    def _run_batch(
        self,
        rows: Sequence[Mapping],
        validate: bool,
        with_energy: bool,
        incumbent: Optional[float] = None,
    ) -> _Batch:
        """The body of :meth:`evaluate_many` and, given ``incumbent``, of
        :meth:`best_of`. In a search only cache hits and each chunk's
        winner get a report.

        When a tracer is ambient, every evaluated mapping's spans (its
        full step1/2/3 anatomy) are recorded under this batch's span, in
        list order within a chunk and chunk by chunk.

        When a progress emitter is ambient, the batch accrues into the
        caller's open ``unit="evals"`` run (a mapper search) or opens its
        own ``engine.batch`` run, emitting a heartbeat + chunk event as
        each chunk's :class:`~repro.engine.executors.ChunkTiming` arrives.
        Ledger rows are flushed **per chunk** — so a Ctrl-C mid-batch
        still leaves every completed evaluation plus one
        ``kind="interrupted"`` checkpoint row before the interrupt
        propagates to the caller.
        """
        keys = (
            rows.cache_keys() if isinstance(rows, MappingBlock)
            else [mapping.cache_key for mapping in rows]
        )
        n = len(rows)
        t = telemetry()
        tracer, metrics, ledger = t.tracer, t.metrics, t.ledger
        with t.progress.join_run(
            "engine.batch",
            total_units=n,
            unit="evals",
            accelerator=getattr(self.accelerator, "name", ""),
        ) as run, self.stats.phase("batch"), \
                tracer.span("engine.batch") as span:
            batch = self._probe(
                rows, keys, self._row_latency_key, self._row_energy_key,
                validate, with_energy,
            )
            reports, energies, pending = batch.reports, batch.energies, batch.pending
            hits, invalid = batch.scored, batch.invalid
            ledger_rows: List[RunRecord] = [
                self._ledger_record(rows[i], reports[i], cache_hit=True, wall_time_s=0.0)
                for i in range(n) if batch.hits[i]
            ] if ledger.enabled else []
            if tracer.enabled:
                span.set("mappings", n)
                span.set("cache_hits", hits)
            run.cache_stats(
                hits, len(pending),
                dedup_skipped=self.stats.dedup_skipped,
                partial_hits=self.stats.partial_hits,
                partial_misses=self.stats.partial_misses,
            )
            if hits:
                run.advance(hits, note="cache")
            if invalid:
                run.advance(invalid, errors=invalid, note="invalid")

            chunks = [
                pending[at : at + CHUNK_SIZE]
                for at in range(0, len(pending), CHUNK_SIZE)
            ]
            t0 = time.perf_counter() if metrics.enabled else 0.0
            try:
                for chunk_index, chunk in enumerate(chunks):
                    limit = incumbent
                    if incumbent is not None:
                        # A lane ahead of the best so far wins a tie with it.
                        best_at, limit = _first_least(reports, incumbent)
                        if best_at > chunk[0]:
                            limit = math.nextafter(limit, math.inf)
                    # Looked up on the module at call time, so wrappers
                    # installed on executors.evaluate_chunk see every chunk.
                    outcomes, timing = executors.evaluate_chunk(
                        self.accelerator,
                        self.options,
                        _take(rows, chunk),
                        with_energy,
                        tracer.enabled,
                        self._evaluator(),
                        limit,
                    )
                    batch.shallow.extend(chunk[j] for j in timing.shallow)
                    for i, outcome in zip(chunk, outcomes):
                        if outcome is None:
                            continue
                        report, energy, wall_s = outcome
                        reports[i], energies[i] = report, energy
                        if ledger.enabled:
                            ledger_rows.append(self._ledger_record(
                                rows[i], report,
                                cache_hit=False, wall_time_s=wall_s,
                            ))
                    if incumbent is None:  # a search caches its winner only
                        self._keep(batch, chunk)
                    # Checkpoint: flush this chunk's rows so an interrupt
                    # never loses completed evaluations.
                    if ledger_rows:
                        ledger.append_many(ledger_rows)
                        ledger_rows = []
                    batch.scored += timing.evaluated
                    batch.pruned += timing.pruned
                    self.stats.evaluations += timing.evaluated
                    self.stats.errors += len(timing.shallow)
                    self.stats.bound_pruned += timing.pruned
                    self.stats.batched_evaluations += timing.evaluated
                    self.stats.partial_hits += timing.partial_hits
                    self.stats.partial_misses += timing.partial_misses
                    run.advance(
                        len(chunk),
                        errors=len(timing.shallow),
                        wall_s=timing.wall_s,
                        index=chunk_index,
                    )
            except KeyboardInterrupt:
                # Checkpoint before the interrupt propagates: unflushed
                # rows plus one kind="interrupted" marker. The run closes
                # on the way out, unless an enclosing search owns it.
                ledger.append_many(ledger_rows)
                checkpoint_interruption(
                    "engine.batch",
                    done_units=batch.scored + batch.pruned,
                    total_units=n,
                    unit="evals",
                )
                raise
            if metrics.enabled and pending:
                # Lanes the kernel evaluated: a search's bound-pruned
                # lanes ran none.
                evaluated = batch.scored - hits
                elapsed = time.perf_counter() - t0
                metrics.histogram(
                    "repro_engine_batch_seconds", "evaluate_many miss latency"
                ).observe(elapsed)
                if elapsed > 0:
                    metrics.gauge(
                        "repro_engine_evaluations_per_second",
                        "kernel throughput of the last batch",
                    ).set(evaluated / elapsed)
            ledger.append_many(ledger_rows)
        return batch


def _rows(mappings: Iterable[Mapping]) -> Sequence[Mapping]:
    """``mappings`` as a sequence: a block stays columns."""
    return mappings if isinstance(mappings, MappingBlock) else list(mappings)


def _take(rows: Sequence[Mapping], positions: List[int]) -> Sequence[Mapping]:
    """The rows at ``positions`` (increasing): a block's as a block."""
    if not isinstance(rows, MappingBlock):
        return tuple(rows[i] for i in positions)
    return rows if len(positions) == len(rows) else rows.take(positions)
