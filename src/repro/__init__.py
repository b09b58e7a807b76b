"""repro — uniform intra-layer latency model for DNN accelerators.

A faithful, from-scratch reproduction of *"A Uniform Latency Model for DNN
Accelerators with Diverse Architectures and Dataflows"* (Mei, Liu, Wu,
Sumbul, Verhelst, Beigne — DATE 2022), plus every substrate the paper's
evaluation depends on: workload & mapping representations, a hardware
description layer, an energy model, a ZigZag-style mapper and architecture
search, and an event-driven cycle-level reference simulator used in place
of the authors' (unavailable) taped-out chip for validation.

Quickstart — the single-entry facade (:mod:`repro.api`)::

    from repro import api

    report = api.evaluate("64,128,1200")                    # case-study preset
    report = api.evaluate("64,128,1200", engine="inhouse")  # named preset
    print(report.summary())

Evaluation is location-transparent: ``engine=`` takes anything
implementing the :class:`~repro.engine.Evaluator` protocol — an
in-process :class:`~repro.engine.EvaluationEngine`, or a
:class:`~repro.serve.RemoteEngine` connected to a ``repro-latency
serve`` daemon (``engine="serve://host:port"``).

or, driving the machinery directly::

    from repro import (
        EvaluationEngine, case_study_accelerator, dense_layer, TemporalMapper,
    )

    preset = case_study_accelerator()
    layer = dense_layer(64, 128, 1200)
    engine = EvaluationEngine.from_preset(preset)
    mapper = TemporalMapper(
        preset.accelerator, preset.spatial_unrolling, engine=engine
    )
    best = mapper.best_mapping(layer)
    print(best.report.summary())
    print(engine.stats.summary())

Every high-level flow (mapper, architecture search, sensitivity sweeps,
network evaluation, the CLI) evaluates through an
:class:`~repro.engine.EvaluationEngine`, which caches results by
canonical fingerprint and evaluates batches in the calling process; the
pure 3-step kernel remains directly usable via
:class:`~repro.core.model.LatencyModel` for single evaluations.
"""

from repro import api
from repro.analysis.network import NetworkEvaluator
from repro.analysis.summary import generate_report
from repro.api import evaluate, evaluate_network, search
from repro.core import (
    BwUnawareModel,
    LatencyModel,
    LatencyReport,
    ModelOptions,
)
from repro.core.advisor import UpgradeAdvisor
from repro.core.sensitivity import SensitivityAnalyzer
from repro.energy import EnergyModel, EnergyReport
from repro.engine import (
    EngineStats,
    Evaluation,
    EvaluationCache,
    EvaluationEngine,
    Evaluator,
)
from repro.hardware import Accelerator, MacArray, MemoryHierarchy, MemoryInstance
from repro.hardware.presets import (
    Preset,
    build_accelerator,
    case_study_accelerator,
    inhouse_accelerator,
    shared_lb_accelerator,
)
from repro.mapping import Mapping, SpatialMapping, TemporalMapping
from repro.serve import RemoteEngine, connect
from repro.simulator import CycleSimulator, SimulationResult
from repro.dse import MappingSearchResult, TemporalMapper
from repro.workload import LayerSpec, LayerType, Operand, dense_layer, im2col

__version__ = "1.0.0"

__all__ = [
    "Accelerator",
    "BwUnawareModel",
    "CycleSimulator",
    "EnergyModel",
    "EnergyReport",
    "EngineStats",
    "Evaluation",
    "EvaluationCache",
    "EvaluationEngine",
    "Evaluator",
    "LatencyModel",
    "LatencyReport",
    "LayerSpec",
    "LayerType",
    "MacArray",
    "Mapping",
    "MappingSearchResult",
    "MemoryHierarchy",
    "MemoryInstance",
    "ModelOptions",
    "NetworkEvaluator",
    "Operand",
    "Preset",
    "RemoteEngine",
    "SensitivityAnalyzer",
    "SimulationResult",
    "SpatialMapping",
    "TemporalMapper",
    "TemporalMapping",
    "UpgradeAdvisor",
    "api",
    "build_accelerator",
    "case_study_accelerator",
    "connect",
    "dense_layer",
    "evaluate",
    "evaluate_network",
    "generate_report",
    "im2col",
    "inhouse_accelerator",
    "search",
    "shared_lb_accelerator",
]
