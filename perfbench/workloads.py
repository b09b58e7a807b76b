"""The five benchmark workloads: the paper's own flows plus one served path.

Each workload builds its program state in :meth:`setup`,
makes the input of the next operation in :meth:`prepare` (untimed), runs
one user-visible operation per :meth:`op` call (timed), and checks the
outputs it kept in :meth:`check` after the clock stops. ``op`` returns
the operation's group: the reported operation time is the sum over groups
of the fastest of the group's operation times, so a workload whose unit
of work spans several differently sized pieces (Fig. 5 validates a table
of layers) reports the time of the whole unit.

The batch core memoizes MUW window unions in one process-wide cache
(``repro.engine.executors._PARTIAL_CACHE``). A command-line run starts
with it empty, so ``prepare`` empties it where a real run would: before
every search that stands for a run of its own, and once per pass where
the flow is one sweep over many points.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import random
import subprocess
import sys
from typing import Any, Dict, List, Optional, Tuple

from repro.core.baseline import BwUnawareModel
from repro.core.model import LatencyModel
from repro.dse.arch_search import ArchSearch, ArchSearchConfig
from repro.dse.mapper import MapperConfig, TemporalMapper
from repro.energy.energy_model import EnergyModel
from repro.engine import EvaluationEngine, executors
from repro.hardware.pool import MemoryPool
from repro.hardware.presets import KB, array_scales, case_study_accelerator, inhouse_accelerator
from repro.mapping.mapping import Mapping
from repro.simulator.engine import CycleSimulator
from repro.simulator.result import accuracy
from repro.workload.generator import bkc_sweep, dense_layer
from repro.workload.im2col import im2col
from repro.workload.networks import validation_layers


class Case1Mapper:
    """E6/E9: search the Case 1 layer's mapping space for its fastest mapping.

    One operation is one cold search of 64 loop orders plus the energy of
    the winner, as ``repro-latency search`` does: a fresh engine (no
    memoized search result) and an empty MUW-union memo. The sampling seed
    of each search comes from the run seed. The budget keeps a search near
    50 ms: searches of 300 orders (200-300 ms) gave no steady
    fastest-operation time on a shared host.
    """

    cold_setup = True

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self.results: List[Tuple[Any, float, float]] = []

    def setup(self):
        return case_study_accelerator(), dense_layer(64, 128, 1200)

    def close(self, state) -> None:
        pass

    def prepare(self, state) -> MapperConfig:
        executors._PARTIAL_CACHE.clear()
        return MapperConfig(max_enumerated=64, samples=64,
                            seed=self.rng.randrange(1 << 30))

    def op(self, state, config: MapperConfig) -> str:
        preset, layer = state
        engine = EvaluationEngine.from_preset(preset)
        mapper = TemporalMapper(preset.accelerator, preset.spatial_unrolling, config, engine)
        best = mapper.best_mapping(layer)
        energy = engine.evaluate_energy(best.mapping)
        self.results.append((best.mapping, best.report.total_cycles, energy.total_pj))
        return "search"

    def check(self, state) -> List[str]:
        preset, layer = state
        model = LatencyModel(preset.accelerator)
        errors = []
        cc_ideal = layer.total_macs / preset.accelerator.mac_array.size
        for mapping, cycles, energy_pj in self.results:
            scalar = model.evaluate(mapping).total_cycles
            if scalar != cycles:
                errors.append(f"case1: batch {cycles} != scalar {scalar} cycles")
            if not cycles >= cc_ideal or not energy_pj > 0:
                errors.append(f"case1: implausible best ({cycles} cc, {energy_pj} pJ)")
        return errors


class Case2Sweep:
    """E7: one row of the Case 2 workload sweep (Fig. 7) per operation.

    The sweep is ``bkc_sweep`` over B, K, C in {8, 128, 512}: 21 Dense
    layers on the case-study machine. One operation searches one layer's
    fastest mapping (64 loop orders, as in ``case1``, from a fresh engine
    and an empty MUW-union memo) and evaluates the winner with the
    BW-unaware baseline model. The mapper seed is fixed, so every pass over
    the sweep does the same work; each pass visits the layers in a seeded
    random order. The unit reported is one pass.
    """

    cold_setup = True
    config = MapperConfig(max_enumerated=64, samples=64, seed=0)

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self.rows: List[Tuple[Any, Mapping, Any, float]] = []
        self._queue: List = []

    def setup(self):
        return case_study_accelerator(), bkc_sweep(values=(8, 128, 512))

    def close(self, state) -> None:
        pass

    def prepare(self, state):
        if not self._queue:
            self._queue = list(state[1])
            self.rng.shuffle(self._queue)
        executors._PARTIAL_CACHE.clear()
        return self._queue.pop()

    def op(self, state, layer) -> str:
        preset = state[0]
        engine = EvaluationEngine.from_preset(preset)
        mapper = TemporalMapper(preset.accelerator, preset.spatial_unrolling,
                                self.config, engine)
        best = mapper.best_mapping(layer)
        unaware = BwUnawareModel(preset.accelerator).evaluate(best.mapping)
        self.rows.append((layer, best.mapping, best.report, unaware.total_cycles))
        return layer.name

    def check(self, state) -> List[str]:
        model = LatencyModel(state[0].accelerator)
        errors = []
        seen = {}
        for layer, mapping, report, unaware_cc in self.rows:
            if layer.name in seen:
                if seen[layer.name] != report.total_cycles:
                    errors.append(f"case2: {layer.name} searches disagree")
                continue
            seen[layer.name] = report.total_cycles
            if model.evaluate(mapping).total_cycles != report.total_cycles:
                errors.append(f"case2: {layer.name} batch != scalar cycles")
            # The baseline drops temporal stalls, so it never predicts more.
            if not report.cc_ideal <= unaware_cc <= report.total_cycles:
                errors.append(f"case2: {layer.name} baseline {unaware_cc} outside "
                              f"[{report.cc_ideal}, {report.total_cycles}]")
        return errors


class Case3ArchDse:
    """E8: best-mapping latency of Case 3 design points.

    The design space is Fig. 8's default sweep (3 MAC arrays x 16 memory
    candidates x GB bandwidth 128 and 1024 b/cycle). One operation is one
    design point; points are visited in a seeded random order, so the
    points measured in a run are a random sample of the whole sweep. Each
    pass over the sweep stands for one ``repro-latency arch-search`` run:
    a fresh engine, an empty MUW-union memo and its own sampling seed.
    """

    cold_setup = True

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self.points: List[Tuple[int, Tuple, Any]] = []
        self._queue: List[Tuple] = []
        self._search: Optional[ArchSearch] = None
        self._pass = 0

    def setup(self):
        pool = MemoryPool(
            w_reg_options=(8,),
            i_reg_options=(8, 32),
            o_reg_options=(24, 96),
            w_lb_options=(8 * KB, 32 * KB),
            i_lb_options=(4 * KB, 16 * KB),
        )
        config = ArchSearchConfig(array_scales=array_scales(), pool=pool,
                                  gb_bandwidths=(128.0, 1024.0))
        points = list(ArchSearch(config).design_points())
        return config, points, dense_layer(128, 256, 512)

    def close(self, state) -> None:
        pass

    def prepare(self, state):
        config, points, __ = state
        if not self._queue:
            self._queue = list(points)
            self.rng.shuffle(self._queue)
            self._pass += 1
            executors._PARTIAL_CACHE.clear()
            mapper_config = MapperConfig(max_enumerated=80, samples=50, keep_top=1,
                                         seed=self.rng.randrange(1 << 30))
            self._search = ArchSearch(dataclasses.replace(
                config, mapper_config=mapper_config
            ))
        return self._search, self._queue.pop()

    def op(self, state, arg) -> str:
        search, design = arg
        self.points.append((self._pass, design, search.evaluate_one(state[2], *design)))
        return "point"

    def check(self, state) -> List[str]:
        errors = []
        latency: Dict[Tuple[int, str, str, float], float] = {}
        for run, (label, gb_bw, cand, preset), point in self.points:
            if point is None:
                errors.append(f"case3: {preset.accelerator.name} unmappable")
                continue
            if not (math.isfinite(point.latency) and 0 < point.utilization <= 1):
                errors.append(f"case3: {point.accelerator_name} implausible")
            latency[(run, label, cand.label(), gb_bw)] = point.latency
        # More GB bandwidth never slows a design down (same candidate set,
        # same sampled loop orders: both points of one pass).
        for (run, label, cand, gb_bw), value in latency.items():
            low = latency.get((run, label, cand, 128.0))
            if gb_bw == 1024.0 and low is not None and value > low:
                errors.append(f"case3: {label} {cand} slower at 1024 b/cycle")
        return errors


class Fig5Validation:
    """E5: validate the model against the cycle-level simulator (Fig. 5).

    One operation validates one layer of the SSD-MobileNetV1 table: lower
    it with Im2Col, search its fastest mapping on the in-house chip, and
    simulate that mapping. The unit of work reported is one pass over the
    table's layers of at most 1 M MACs; the larger layers take from 0.4 s
    to seconds each in the simulator, too long to catch the quiet moments
    of a shared host (see ``run.py``). The mapper is configured as in the
    E5 experiment and the MUW-union memo is emptied before each
    validation, so every pass does the same work; each pass visits the
    layers in a seeded random order.
    """

    cold_setup = True
    max_macs = 1_000_000
    config = MapperConfig(max_enumerated=200, samples=150, seed=0)

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self.rows: List[Tuple[str, float, float]] = []
        self._queue: List = []

    def setup(self):
        preset = inhouse_accelerator()
        layers = [(layer.name, im2col(layer)) for layer in validation_layers()
                  if layer.total_macs <= self.max_macs]
        return preset, layers

    def close(self, state) -> None:
        pass

    def prepare(self, state):
        if not self._queue:
            self._queue = list(state[1])
            self.rng.shuffle(self._queue)
        executors._PARTIAL_CACHE.clear()
        return self._queue.pop()

    def op(self, state, arg) -> str:
        preset = state[0]
        name, lowered = arg
        mapper = TemporalMapper(preset.accelerator, preset.spatial_unrolling, self.config)
        best = mapper.best_mapping(lowered)
        simulated = CycleSimulator(preset.accelerator, best.mapping).run()
        self.rows.append((name, best.report.total_cycles, simulated.total_cycles))
        return name

    def check(self, state) -> List[str]:
        errors = []
        scores = [accuracy(model, sim) for __, model, sim in self.rows]
        for (name, model, sim), score in zip(self.rows, scores):
            if score <= 0.75:
                errors.append(f"fig5: {name} accuracy {score:.3f}")
        if scores and sum(scores) / len(scores) < 0.90:
            errors.append("fig5: mean accuracy below 90 %")
        return errors


class ServedSearch:
    """The ``case1`` search against a live daemon (``search --engine URL``).

    The daemon runs in its own process (``perfbench/daemon.py``, the same
    server ``repro-latency serve`` runs, with its default configuration)
    and the client is ``repro.serve.connect``. The mapper is what drives a
    remote engine in every DSE flow: it sends its candidates as one
    pipelined ``evaluate_many`` burst, then asks for the winner's energy in
    one more round trip. One operation is the ``case1`` search (64 loop
    orders of the Case 1 layer, sampling seed from the run seed) with the
    client's cache emptied first, as a fresh search process has it. The
    daemon keeps its result store across operations, as a long-lived
    server does: the mapper's deterministic orders (about 37 of the 64) are
    answered from the store after the first search, the sampled ones run
    the kernel. ``--trace 1`` reports the store hits and the mean shard
    queue depth a request found on arrival.

    The client is one caller waiting for each reply (a closed loop). It
    and the daemon share one CPU: on the 2-vCPU shared host this was tuned
    on, the search time otherwise hung on whether the second vCPU was free
    at the time, and the fastest search spread 15-20 % between runs
    instead of 6 %.
    """

    cold_setup = False

    def __init__(self, seed: int, trace: bool) -> None:
        self.rng = random.Random(seed)
        self.trace = trace
        self.results: List[Tuple[MapperConfig, Mapping, float, float]] = []

    def setup(self):
        from repro.serve import connect

        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        daemon = Daemon(self.trace)  # inherits the CPU
        try:
            client = connect(daemon.url)
        except BaseException:
            daemon.stop(None)
            raise
        return daemon, client, dense_layer(64, 128, 1200)

    def close(self, state) -> Dict[str, Dict[str, float]]:
        """Stop the daemon; returns its layer totals (traced runs)."""
        daemon, client, __ = state
        return daemon.stop(client)

    def prepare(self, state) -> MapperConfig:
        state[1].cache.clear()
        return MapperConfig(max_enumerated=64, samples=64,
                            seed=self.rng.randrange(1 << 30))

    def op(self, state, config: MapperConfig) -> str:
        __, client, layer = state
        mapper = TemporalMapper(client.accelerator, client.spatial_unrolling,
                                config, client)
        best = mapper.best_mapping(layer)
        energy = client.evaluate_energy(best.mapping)
        self.results.append((config, best.mapping, best.report.total_cycles,
                             energy.total_pj))
        return "search"

    def check(self, state) -> List[str]:
        errors = []
        __, client, layer = state
        stats = client.server_stats()
        answered = (stats["evaluations"] + stats["store_hits"]
                    + stats["warm_hits"] + stats["coalesced"])
        if answered != stats["requests"] or stats["errors"]:
            errors.append(f"serve: {stats['requests']} requests, {answered} "
                          f"answered, {stats['errors']} errors")
        if not stats["store_hits"]:
            errors.append("serve: no request was answered from the store")
        model = LatencyModel(client.accelerator, client.options)
        energy_model = EnergyModel(client.accelerator)
        step = max(1, len(self.results) // 8)
        for config, mapping, cycles, energy_pj in self.results[::step]:
            local = TemporalMapper(client.accelerator, client.spatial_unrolling,
                                   config).best_mapping(layer)
            if local.report.total_cycles != cycles:
                errors.append(f"serve: served search found {cycles} cycles, "
                              f"in-process {local.report.total_cycles}")
            if model.evaluate(mapping).total_cycles != cycles:
                errors.append("serve: served cycles != in-process model")
            if energy_model.evaluate(mapping).total_pj != energy_pj:
                errors.append("serve: served energy != in-process model")
        return errors


class Daemon:
    """The evaluation daemon as a child process, stopped on :meth:`stop`."""

    def __init__(self, trace: bool) -> None:
        root = os.getcwd()
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (os.path.join(root, "src"), env.get("PYTHONPATH")) if p
        )
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(root, "perfbench", "daemon.py"),
             "--trace", "1" if trace else "0"],
            stdout=subprocess.PIPE, stdin=subprocess.DEVNULL, env=env, text=True,
        )
        line = self.proc.stdout.readline()
        if not line.startswith("url "):
            self.stop(None)
            raise RuntimeError(f"daemon did not start: {line!r}")
        self.url = line.split()[1]

    def stop(self, client) -> Dict[str, Dict[str, float]]:
        """Shut the daemon down (killed without a client); returns its
        layer totals (traced runs)."""
        try:
            if client is None:
                self.proc.kill()
            else:
                client.shutdown()
                client.close()
            out, __ = self.proc.communicate(timeout=30)
        except BaseException:
            self.proc.kill()
            self.proc.wait()
            raise
        if client is not None and self.proc.returncode != 0:
            raise RuntimeError(f"daemon exited with {self.proc.returncode}")
        lines = [line for line in out.splitlines() if line.startswith("{")]
        return json.loads(lines[-1]) if lines else {}
