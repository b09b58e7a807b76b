"""The ``Evaluator`` protocol: what every evaluation backend looks like.

PR 7 turns the engine into a *capability* rather than a concrete class:
anything that can answer "what is the latency of this mapping on this
machine" — the in-process :class:`~repro.engine.EvaluationEngine`, the
blocking :class:`~repro.serve.RemoteEngine` client of a ``repro-latency
serve`` daemon, or a test double — satisfies :class:`Evaluator`, and all
downstream consumers (:mod:`repro.api`, the DSE drivers, network
analysis, the CLI) are written against the protocol, not the class.

The surface is exactly what those consumers already use:

* identity — ``accelerator`` / ``options`` plus their canonical
  fingerprints (cache keys, search memoization);
* the evaluation verbs — :meth:`~Evaluator.evaluate`,
  :meth:`~Evaluator.evaluate_many`, :meth:`~Evaluator.best_of` (one block
  of a latency search), :meth:`~Evaluator.evaluate_energy`;
* shared state — ``cache`` / ``stats`` (the cache is always on: the
  mapper memoizes whole searches in it, and a cold run empties it with
  ``cache.clear()``; the mapper counts dedup skips on the stats);
* lineage — :meth:`~Evaluator.derive` builds a sibling for another
  machine or options sharing that state (the architecture-sweep idiom);
* ``spatial_unrolling`` — the native dataflow the evaluator's machine
  was configured with, so a caller holding only an evaluator (for a
  remote engine: only a URL) can still run a mapper search.

The protocol is ``runtime_checkable``; ``isinstance(x, Evaluator)``
checks method presence (not signatures), which is how :mod:`repro.api`
decides whether an ``engine=`` argument is already an evaluator or needs
coercion from a preset name / URL.
"""

from __future__ import annotations

import math
from typing import (
    Dict,
    Iterable,
    List,
    Optional,
    Protocol,
    runtime_checkable,
)

from repro.core.report import LatencyReport
from repro.core.step1 import ModelOptions
from repro.energy.energy_model import EnergyReport
from repro.engine.cache import EvaluationCache
from repro.engine.evaluation import BestOf
from repro.hardware.accelerator import Accelerator
from repro.mapping.mapping import Mapping
from repro.observability.stats import EngineStats
from repro.workload.dims import LoopDim


@runtime_checkable
class Evaluator(Protocol):
    """Anything that evaluates mappings: local engine, remote client, double.

    See the module docstring for the contract. All attributes are
    readable; implementations may back them with plain attributes or
    properties.
    """

    accelerator: Accelerator
    options: ModelOptions
    cache: EvaluationCache
    stats: EngineStats
    spatial_unrolling: Dict[LoopDim, int]

    @property
    def accelerator_fingerprint(self) -> str:
        """Canonical fingerprint of the evaluated machine."""
        ...

    @property
    def options_fingerprint(self) -> str:
        """Canonical fingerprint of the model options."""
        ...

    def evaluate(self, mapping: Mapping, validate: bool = True) -> LatencyReport:
        """Latency of one mapping."""
        ...

    def evaluate_many(
        self,
        mappings: Iterable[Mapping],
        validate: bool = False,
        with_energy: bool = False,
    ) -> List[Optional[object]]:
        """Batch evaluation; entry ``i`` is an ``Evaluation`` or ``None``."""
        ...

    def best_of(
        self, mappings: Iterable[Mapping], incumbent: float = math.inf
    ) -> BestOf:
        """The first of ``mappings`` with the least latency below
        ``incumbent`` (a :class:`~repro.engine.evaluation.BestOf`)."""
        ...

    def evaluate_energy(self, mapping: Mapping) -> EnergyReport:
        """Dynamic energy of one mapping."""
        ...

    def derive(
        self,
        accelerator: Optional[Accelerator] = None,
        options: Optional[ModelOptions] = None,
    ) -> "Evaluator":
        """A sibling evaluator for another machine/options, sharing state."""
        ...

    def close(self) -> None:
        """Release executor/transport resources."""
        ...
