"""The single-entry public API of the reproduction.

Three verbs cover the common flows without touching the underlying
machinery (:class:`~repro.engine.EvaluationEngine`,
:class:`~repro.dse.mapper.TemporalMapper`,
:class:`~repro.analysis.network.NetworkEvaluator`):

* :func:`evaluate` — latency of one layer (best-found mapping, or a
  mapping you supply);
* :func:`search` — the ranked temporal-mapping candidates of a layer;
* :func:`evaluate_network` — a whole network, layer by layer.

The verbs are built around the
:class:`~repro.engine.Evaluator` protocol: *where* evaluation happens is
entirely the ``engine=`` argument, which accepts

* any :class:`~repro.engine.Evaluator` — an in-process
  :class:`~repro.engine.EvaluationEngine`, a
  :class:`~repro.serve.RemoteEngine`, or your own implementation;
* a :class:`~repro.hardware.presets.Preset` or bare
  :class:`~repro.hardware.accelerator.Accelerator` (a throwaway
  engine is built and closed after the call);
* a preset name (``"case-study"``, ``"inhouse"``) — the default is
  ``"case-study"``;
* a service URL — ``"serve://host:port"`` or ``"unix:///path.sock"`` —
  which connects a :class:`~repro.serve.RemoteEngine` to a running
  ``repro-latency serve`` daemon.

Layers are given as a :class:`~repro.workload.layer.LayerSpec`, a
``"B,K,C"`` string, or a ``(B, K, C)`` tuple.

Quickstart::

    from repro import api

    report = api.evaluate("64,128,1200")                      # case-study preset
    report = api.evaluate("64,128,1200", engine="inhouse")    # named preset
    report = api.evaluate("64,128,1200",
                          engine="serve://127.0.0.1:7421")    # remote daemon

Observability composes through the ambient context::

    from repro.observability import Tracer, use_telemetry

    tracer = Tracer()
    with use_telemetry(tracer=tracer):
        api.evaluate("64,128,1200")
    print(len(tracer.records), "spans")
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, Union

from repro.core.report import LatencyReport
from repro.dse.mapper import MapperConfig, MappingSearchResult, TemporalMapper
from repro.engine import EvaluationEngine, Evaluator
from repro.hardware.accelerator import Accelerator
from repro.hardware.presets import (
    Preset,
    case_study_accelerator,
    inhouse_accelerator,
)
from repro.mapping.mapping import Mapping
from repro.workload.generator import parse_dense_layer
from repro.workload.layer import LayerSpec

EngineLike = Union[Evaluator, Preset, Accelerator, str]
LayerLike = Union[LayerSpec, str, Tuple[int, int, int]]

__all__ = ["evaluate", "search", "evaluate_network"]

_PRESET_NAMES = {
    "case-study": case_study_accelerator,
    "case_study": case_study_accelerator,
    "inhouse": inhouse_accelerator,
}
_URL_SCHEMES = ("serve://", "unix://")

#: What ``engine=None`` means.
DEFAULT_ENGINE = "case-study"


# --------------------------------------------------------------------- #
# Input coercion
# --------------------------------------------------------------------- #

def _as_engine(engine: Optional[EngineLike]) -> Tuple[Evaluator, bool]:
    """Coerce ``engine=`` to an Evaluator; the bool says the verb owns it.

    ``None`` means :data:`DEFAULT_ENGINE`. Owned engines (built or connected here) are closed when the verb
    returns; engines the caller passed in stay open — their cache and
    stats are the point of passing them.
    """
    if engine is None:
        engine = DEFAULT_ENGINE
    if isinstance(engine, str):
        if engine.startswith(_URL_SCHEMES):
            from repro.serve.client import RemoteEngine

            return RemoteEngine(engine), True
        builder = _PRESET_NAMES.get(engine)
        if builder is None:
            raise ValueError(
                f"unknown engine {engine!r}; expected one of "
                f"{sorted(set(_PRESET_NAMES))}, a serve://host:port or "
                f"unix:///path URL, a Preset/Accelerator, or an Evaluator"
            )
        return EvaluationEngine.from_preset(builder()), True
    if isinstance(engine, Preset):
        return EvaluationEngine.from_preset(engine), True
    if isinstance(engine, Accelerator):
        # No native unrolling known: purely temporal mapping.
        return (
            EvaluationEngine.from_preset(
                Preset(accelerator=engine, spatial_unrolling={})
            ),
            True,
        )
    if isinstance(engine, Evaluator):
        return engine, False
    raise TypeError(
        f"engine must be an Evaluator, Preset, Accelerator, preset name "
        f"or service URL, not {type(engine).__name__}"
    )


def _as_layer(layer: LayerLike) -> LayerSpec:
    """Accept a LayerSpec, a ``"B,K,C"`` string, or a (B, K, C) tuple."""
    return layer if isinstance(layer, LayerSpec) else parse_dense_layer(layer)


# --------------------------------------------------------------------- #
# The three verbs
# --------------------------------------------------------------------- #

def evaluate(
    layer: LayerLike,
    mapping: Optional[Mapping] = None,
    *,
    engine: Optional[EngineLike] = None,
    config: Optional[MapperConfig] = None,
    validate: bool = True,
) -> LatencyReport:
    """Latency of ``layer`` on ``engine`` (the paper's 3-step model).

    With ``mapping=None`` (the default) the mapper searches the temporal
    space under the engine's native spatial unrolling and the best
    mapping's report is returned; pass an explicit :class:`Mapping` to
    evaluate it as-is. ``config`` tunes the search budget; pass a
    long-lived ``engine`` (or a service URL) to share a cache across
    calls. ``engine=None`` means the ``"case-study"`` preset.
    """
    if mapping is not None and not isinstance(mapping, Mapping):
        raise TypeError(f"mapping must be a Mapping, not {type(mapping).__name__}")
    engine_obj, owned = _as_engine(engine)
    try:
        if mapping is not None:
            return engine_obj.evaluate(mapping, validate=validate)
        mapper = TemporalMapper(
            engine_obj.accelerator,
            engine_obj.spatial_unrolling,
            config or MapperConfig(),
            engine=engine_obj,
        )
        return mapper.best_mapping(_as_layer(layer)).report
    finally:
        if owned:
            engine_obj.close()


def search(
    layer: LayerLike,
    *,
    engine: Optional[EngineLike] = None,
    config: Optional[MapperConfig] = None,
    top: Optional[int] = None,
) -> List[MappingSearchResult]:
    """Ranked temporal-mapping candidates of ``layer``, best first."""
    engine_obj, owned = _as_engine(engine)
    try:
        mapper = TemporalMapper(
            engine_obj.accelerator,
            engine_obj.spatial_unrolling,
            config or MapperConfig(),
            engine=engine_obj,
        )
        results = mapper.search(_as_layer(layer))
        return results[:top] if top is not None else results
    finally:
        if owned:
            engine_obj.close()


def evaluate_network(
    layers: Sequence[LayerLike],
    *,
    engine: Optional[EngineLike] = None,
    config: Optional[MapperConfig] = None,
    apply_im2col: bool = True,
    with_energy: bool = False,
):
    """Evaluate ``layers`` back to back; returns a ``NetworkResult``."""
    from repro.analysis.network import NetworkEvaluator

    engine_obj, owned = _as_engine(engine)
    try:
        evaluator = NetworkEvaluator(
            Preset(
                accelerator=engine_obj.accelerator,
                spatial_unrolling=engine_obj.spatial_unrolling,
            ),
            mapper_config=config,
            apply_im2col=apply_im2col,
            with_energy=with_energy,
            engine=engine_obj,
        )
        return evaluator.evaluate([_as_layer(layer) for layer in layers])
    finally:
        if owned:
            engine_obj.close()
