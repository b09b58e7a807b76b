"""Engine instrumentation counters (also re-exported by ``repro.engine``)."""

from __future__ import annotations

import dataclasses
import time
from contextlib import contextmanager
from typing import Dict, Iterator


@dataclasses.dataclass
class EngineStats:
    """Counters and phase timings accumulated by an evaluation engine.

    One instance can be shared by several engines (``engine.derive(...)``
    does so), which is how a whole DSE sweep reports a single evaluation
    budget: evaluations actually run, hits and misses on the shared cache,
    and wall time per phase (``"evaluate"``, ``"energy"``, ``"batch"``).

    Every evaluator (the in-process engine, the served client, a
    daemon's kernels) counts here and nowhere else;
    ``registry.ingest("repro_engine", stats.snapshot())`` exports the
    fields as ``repro_engine_<field>`` gauges.
    """

    evaluations: int = 0          # latency-model kernels actually run
    energy_evaluations: int = 0   # energy-model kernels actually run
    cache_hits: int = 0
    cache_misses: int = 0
    batches: int = 0              # evaluate_many calls
    errors: int = 0               # mappings that raised MappingError in a batch
    batched_evaluations: int = 0  # evaluations served by the SoA batch core
    dedup_skipped: int = 0        # mapper candidates dropped as model-equivalent
    partial_hits: int = 0         # partial-result (MUW memo) cache hits
    partial_misses: int = 0       # partial-result (MUW memo) cache misses
    bound_pruned: int = 0         # best_of lanes whose latency bound ruled them out
    phase_seconds: Dict[str, float] = dataclasses.field(default_factory=dict)

    # ------------------------------------------------------------------ #

    @property
    def requests(self) -> int:
        """Cache lookups performed (hits + misses)."""
        return self.cache_hits + self.cache_misses

    @property
    def hit_rate(self) -> float:
        """Fraction of cache lookups answered from the cache."""
        return self.cache_hits / self.requests if self.requests else 0.0

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Accumulate wall time of the enclosed block under ``name``."""
        t0 = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - t0
            self.phase_seconds[name] = self.phase_seconds.get(name, 0.0) + elapsed

    def reset(self) -> None:
        """Zero every counter and timing."""
        self.evaluations = 0
        self.energy_evaluations = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self.batches = 0
        self.errors = 0
        self.batched_evaluations = 0
        self.dedup_skipped = 0
        self.partial_hits = 0
        self.partial_misses = 0
        self.bound_pruned = 0
        self.phase_seconds = {}

    def snapshot(self) -> Dict[str, float]:
        """Flat numeric view for JSON/CSV export."""
        data: Dict[str, float] = {
            "evaluations": float(self.evaluations),
            "energy_evaluations": float(self.energy_evaluations),
            "cache_hits": float(self.cache_hits),
            "cache_misses": float(self.cache_misses),
            "hit_rate": self.hit_rate,
            "batches": float(self.batches),
            "errors": float(self.errors),
            "batched_evaluations": float(self.batched_evaluations),
            "dedup_skipped": float(self.dedup_skipped),
            "partial_hits": float(self.partial_hits),
            "partial_misses": float(self.partial_misses),
            "bound_pruned": float(self.bound_pruned),
        }
        for name, seconds in sorted(self.phase_seconds.items()):
            data[f"seconds_{name}"] = seconds
        return data

    def summary(self) -> str:
        """One-line human-readable summary."""
        phases = ", ".join(
            f"{name} {seconds * 1e3:.1f} ms"
            for name, seconds in sorted(self.phase_seconds.items())
        )
        return (
            f"engine: {self.evaluations} evaluations, "
            f"{self.cache_hits}/{self.requests} cache hits "
            f"({self.hit_rate:.1%}){'; ' + phases if phases else ''}"
        )
