"""Per-layer self-time accounting for traced benchmark runs.

A traced run (``--trace 1``) wraps the program's layer entry points, in
the benchmark's own process only, with timers. Each timed call is a span:
its layer is charged the call's wall time minus the time of timed calls
nested inside it (its self time), so layer times add up to the measured
time without double counting. Counted calls add to a count and charge no
time. Totals are kept per thread, in memory, and merged on read.

The program's own tracer is not used: tracing a batch makes the engine
fall back to the scalar kernel, which would measure a different path.
"""

from __future__ import annotations

import contextlib
import functools
import threading
import time
from typing import Any, Callable, Dict, List, Tuple

#: Timed layers, in report order, with what each one covers.
LAYERS = {
    "lowering": "batch plan + SoA lowering of mappings (core.batch)",
    "step1": "Step 1: DTL ReqBW/MUW/SS (batch and scalar)",
    "step2": "Step 2: shared-port and served-memory combination",
    "muw_union": "Step 2 MUW window unions computed from scratch",
    "step3": "Step 3 integration, pre/offload and lane assembly",
    "materialize": "report objects built from the results",
    "validation": "mapping feasibility checks (LatencyModel.check)",
    "energy": "energy model",
    "baseline": "BW-unaware baseline model (core.baseline)",
    "cache": "cache keys (fingerprints) and cache probes",
    "executor": "executor chunk handling and the serve shard-thread hop",
    "serde": "protocol frames and payload (de)serialization",
    "queue_wait": "server admission-to-shard-pickup wait",
    "candidates": "mapper candidate allocation and canonical dedup",
    "simulate": "cycle-level simulator",
}

#: Counted events, reported per operation.
COUNTS = {
    "evaluations": "mappings evaluated by a latency kernel (batch lanes + scalar)",
    "batched_lanes": "mappings evaluated by the vectorized batch core",
    "muw_fallback_lanes": "batch lanes that left NumPy for a MUW union",
    "muw_unions": "MUW unions computed from scratch (memo misses)",
    "cache_probes": "engine/client cache lookups",
    "cache_hits": "engine/client cache lookups that hit",
    "allocations": "loop orders the mapper tried to allocate",
    "requests": "evaluate requests sent to the daemon",
    "store_hits": "requests the daemon answered from its result store",
}


class LayerClock:
    """Thread-safe per-layer self-time and count accumulator."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._tables: List[Tuple[List[float], Dict[str, float], Dict[str, float]]] = []
        self._patches: List[Tuple[Any, str, Any]] = []

    def _state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            state = [[], {}, {}]  # span stack of child time, seconds, counts
            self._local.state = state
            with self._lock:
                self._tables.append(state)
        return state

    # -- recording ------------------------------------------------------ #

    def timed(self, layer: str, fn: Callable) -> Callable:
        """``fn`` wrapped so each call charges its self time to ``layer``."""

        def wrapper(*args, **kwargs):
            stack, seconds, __ = self._state()
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                self_time = elapsed - stack.pop()
                seconds[layer] = seconds.get(layer, 0.0) + self_time
                if stack:
                    stack[-1] += elapsed

        return wrapper

    def counted(self, name: str, fn: Callable,
                amount: Callable[..., float] = None) -> Callable:
        """``fn`` wrapped so each call adds ``amount(result, *args)`` (or 1)."""

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.count(name, 1 if amount is None else amount(result, *args))
            return result

        return wrapper

    def count(self, name: str, amount: float = 1) -> None:
        counts = self._state()[2]
        counts[name] = counts.get(name, 0) + amount

    def charge(self, layer: str, seconds: float) -> None:
        """Charge a duration measured elsewhere (e.g. by the server)."""
        table = self._state()[1]
        table[layer] = table.get(layer, 0.0) + seconds

    @contextlib.contextmanager
    def paused(self):
        """Discard what this thread records inside the block."""
        state = self._state()
        kept = state[1], state[2]
        state[1], state[2] = {}, {}
        try:
            yield
        finally:
            state[1], state[2] = kept

    # -- patching ------------------------------------------------------- #

    def patch(self, owner: Any, name: str, wrap: Callable[[Callable], Callable]) -> None:
        """Replace ``owner.name`` by ``wrap(original)``; undone by :meth:`restore`."""
        original = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
        if isinstance(original, staticmethod):
            replacement = staticmethod(wrap(original.__func__))
        else:
            replacement = wrap(original)
        setattr(owner, name, replacement)
        self._patches.append((owner, name, original))

    def time_layer(self, layer: str, *targets: Tuple[Any, str]) -> None:
        for owner, name in targets:
            self.patch(owner, name, functools.partial(self.timed, layer))

    def restore(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    # -- reading -------------------------------------------------------- #

    def reset(self) -> None:
        """Zero every total (call while no timed call is in flight)."""
        with self._lock:
            for __, seconds, counts in self._tables:
                seconds.clear()
                counts.clear()

    def totals(self) -> Tuple[Dict[str, float], Dict[str, float]]:
        seconds: Dict[str, float] = {}
        counts: Dict[str, float] = {}
        with self._lock:
            for __, s, c in self._tables:
                for key, value in s.items():
                    seconds[key] = seconds.get(key, 0.0) + value
                for key, value in c.items():
                    counts[key] = counts.get(key, 0) + value
        return seconds, counts


def instrument_kernel(clock: LayerClock) -> None:
    """Time the in-process layers: model kernels, caches, executor, mapper."""
    from repro.core import batch, model, step2
    from repro.core.baseline import BwUnawareModel
    from repro.core.model import LatencyModel
    from repro.dse.mapper import TemporalMapper
    from repro.energy.energy_model import EnergyModel
    from repro.engine import cache, executors
    from repro.engine.evaluation import EvaluationEngine
    from repro.simulator.engine import CycleSimulator

    t = clock.time_layer
    t("lowering", (batch.BatchPlan, "__init__"), (batch._Lowered, "__init__"))
    t("step1", (batch.BatchEvaluator, "_step1"), (model, "build_dtls"))
    t("step2", (batch.BatchEvaluator, "_step2_ports"),
      (batch.BatchEvaluator, "_step2_served"),
      (model, "combine_all_ports"), (model, "served_memory_stalls"))
    t("muw_union", (batch, "union_length_params"), (step2, "union_length"))
    t("step3", (batch.BatchEvaluator, "_finalize"), (batch, "integrate_stall_entries"),
      (model, "integrate_stalls"), (model, "preload_cycles"),
      (model, "offload_cycles"))
    t("materialize", (batch, "LatencyReport"), (batch, "ServedMemoryStall"),
      (batch, "StallIntegration"), (model, "LatencyReport"))
    t("validation", (LatencyModel, "check"))
    t("energy", (EnergyModel, "evaluate"))
    t("baseline", (BwUnawareModel, "evaluate"))
    t("cache", (cache.EvaluationCache, "get"), (cache.EvaluationCache, "put"),
      (cache.PartialResultCache, "get_or_compute"),
      (EvaluationEngine, "_latency_key"), (EvaluationEngine, "_energy_key"))
    t("executor", (executors, "evaluate_chunk"), (executors, "_run_batched"))
    t("candidates", (TemporalMapper, "allocate"), (TemporalMapper, "_canonical_key"))
    t("simulate", (CycleSimulator, "run"))

    c = clock.patch
    c(LatencyModel, "evaluate", lambda fn: clock.counted("evaluations", fn))
    c(batch.BatchEvaluator, "evaluate", lambda fn: clock.counted(
        "batched_lanes", fn, lambda result, self, mappings, *a: len(mappings)))
    c(batch.BatchEvaluator, "evaluate", lambda fn: clock.counted(
        "evaluations", fn, lambda result, self, mappings, *a: len(mappings)))
    c(batch.BatchEvaluator, "_union", lambda fn: clock.counted("muw_fallback_lanes", fn))
    c(batch, "union_length_params", lambda fn: clock.counted("muw_unions", fn))
    c(step2, "union_length", lambda fn: clock.counted(
        "muw_unions", fn, lambda result, windows, *a: 1 if len(windows) > 1 else 0))
    c(cache.EvaluationCache, "get", lambda fn: clock.counted(
        "cache_probes", fn))
    c(cache.EvaluationCache, "get", lambda fn: clock.counted(
        "cache_hits", fn, lambda result, *a: 0 if result is None else 1))
    c(TemporalMapper, "allocate", lambda fn: clock.counted("allocations", fn))


def instrument_client(clock: LayerClock) -> None:
    """Time the serve client's layers (wire serde and its cache keys)."""
    from repro.serve import client, protocol

    clock.time_layer(
        "serde",
        (protocol, "encode"), (protocol, "decode"),
        (protocol, "report_from_dict"),
        (client, "mapping_to_dict"), (client, "layer_to_dict"),
    )
    clock.time_layer("cache", (client.RemoteEngine, "_latency_key"))
    clock.patch(client.RemoteEngine, "_request_for",
                lambda fn: clock.counted("requests", fn))


def instrument_server(clock: LayerClock) -> None:
    """Time the daemon's layers (serde, queue wait, the shard-thread hop)
    and count its requests (``served``), store hits and the shard queue
    depth each request found on arrival (summed as ``queue_depth``)."""
    from repro.serve import protocol, server

    clock.time_layer(
        "serde",
        (protocol, "encode"), (protocol, "decode"),
        (protocol, "report_to_dict"),
        (server, "mapping_from_dict"), (server, "layer_from_dict"),
    )

    def finish_item(fn):
        def wrapper(self, item, outcome=None, error=None):
            if outcome is not None:
                # pickup -> result back on the event loop, minus the kernel.
                picked_up = item.t_enqueue + item.queue_wait_us / 1e6
                hop = time.perf_counter() - picked_up - outcome.wall_s
                clock.charge("executor", max(hop, 0.0))
                clock.charge("queue_wait", item.queue_wait_us / 1e6)
            return fn(self, item, outcome, error)

        return wrapper

    clock.patch(server.EvaluationServer, "_finish_item", finish_item)

    def record_request(fn):
        def wrapper(self, msg, response, phases, wall_s):
            clock.count("served")
            clock.count("queue_depth", phases.queued_at_arrival)
            if getattr(response, "source", None) in ("store", "warm"):
                clock.count("store_hits")
            return fn(self, msg, response, phases, wall_s)

        return wrapper

    clock.patch(server.EvaluationServer, "_record_request", record_request)
