#!/usr/bin/env python
"""Quickstart: evaluate a layer's latency on the case-study accelerator.

Builds the paper's scaled-down machine (Section V), maps a GEMM layer onto
it with the temporal mapper, runs the 3-step uniform latency model through
the evaluation engine, and prints the full latency anatomy plus the energy
estimate and the engine's cache statistics.

Run:  python examples/quickstart.py
"""

from repro import (
    CycleSimulator,
    EvaluationEngine,
    TemporalMapper,
    case_study_accelerator,
    dense_layer,
)
from repro.dse.mapper import MapperConfig
from repro.simulator.result import accuracy


def main() -> None:
    # 1. Hardware: 16x16 MACs, K16|B8|C2 unrolling, 1 MB GB at 128 b/cyc.
    preset = case_study_accelerator()
    accelerator = preset.accelerator
    print(accelerator.describe())
    print()

    # 2. Workload: a Dense (GEMM) layer — Conv2D layers can be lowered with
    #    repro.im2col() first, exactly like the validation chip does.
    layer = dense_layer(64, 128, 1200)
    print("Layer:", layer.describe())
    print()

    # 3. Engine + mapping: one cached evaluation path for the whole run.
    #    The mapper routes every candidate through the engine's LRU cache,
    #    and cache misses run in vectorized chunks in this process.
    engine = EvaluationEngine.from_preset(preset)
    mapper = TemporalMapper(
        accelerator, preset.spatial_unrolling,
        MapperConfig(max_enumerated=300, samples=300),
        engine=engine,
    )
    best = mapper.best_mapping(layer)
    print("Best mapping found:")
    print(best.mapping.describe())
    print()

    # 4. Latency: the uniform 3-step model (Section III). This re-request
    #    is a cache hit — the mapper already evaluated the winner.
    report = engine.evaluate(best.mapping)
    print(report.summary())
    print()

    # 5. Energy: the classic access-count model (Section I).
    energy = engine.evaluate_energy(best.mapping)
    print(energy.summary())
    print()

    # 6. Cross-check against the cycle-level simulator.
    sim = CycleSimulator(accelerator, best.mapping).run()
    print(sim.summary())
    print(f"\nmodel vs simulator accuracy: "
          f"{accuracy(report.total_cycles, sim.total_cycles):.1%}")

    # 7. What did the run cost? The engine kept count.
    print()
    print(engine.stats.summary())


if __name__ == "__main__":
    main()
