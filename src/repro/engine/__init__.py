"""The evaluation engine: caching, batch evaluation and instrumentation.

All user-facing flows route their model evaluations through
:class:`EvaluationEngine` (the mapper, architecture search, sensitivity
sweeps, network evaluation and the CLI); the pure 3-step kernel stays in
:mod:`repro.core.model`. See :mod:`repro.engine.evaluation` for the full
story and ``docs/API.md`` ("Evaluation engine") for usage.
"""

from repro.engine.cache import EvaluationCache
from repro.engine.evaluation import BestOf, Evaluation, EvaluationEngine
from repro.engine.evaluator import Evaluator
from repro.observability.stats import EngineStats

__all__ = [
    "BestOf",
    "Evaluation",
    "EvaluationCache",
    "EvaluationEngine",
    "Evaluator",
    "EngineStats",
]
