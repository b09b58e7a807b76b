"""The ambient telemetry channel: one context value carrying every sink.

A :class:`Telemetry` bundles the five sinks instrumented code writes to:
the tracer, the metrics registry, the run ledger, the progress emitter
and the campaign recorder. Each field defaults to its no-op singleton
(:data:`NULL_TRACER`, :data:`NULL_METRICS`, :data:`NULL_LEDGER`,
:data:`NULL_EMITTER`, :data:`NULL_CAMPAIGN`), so with nothing installed
every sink is off and its disabled path allocates nothing.

Instrumented code reads the channel once (``t = telemetry()``, one
contextvar read) and uses the sinks it needs. A scope installs sinks
with :func:`use_telemetry`, which replaces only the fields it names::

    from repro.observability import RunLedger, Tracer, use_telemetry

    tracer = Tracer()
    with RunLedger("runs.sqlite") as ledger, \\
            use_telemetry(tracer=tracer, ledger=ledger):
        engine.evaluate(mapping)    # spans recorded, row appended

The value lives in a single :class:`~contextvars.ContextVar`, so
concurrent asyncio tasks stay isolated and a new thread starts from the
all-null default (a thread does not inherit its creator's context).
"""

from __future__ import annotations

import dataclasses
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Any, Iterator

from repro.observability.campaign import NULL_CAMPAIGN
from repro.observability.ledger import NULL_LEDGER
from repro.observability.metrics import NULL_METRICS
from repro.observability.progress import NULL_EMITTER
from repro.observability.tracer import NULL_TRACER


@dataclasses.dataclass(frozen=True, slots=True)
class Telemetry:
    """The sinks of one scope; a field left unset is its null singleton."""

    tracer: Any = NULL_TRACER
    metrics: Any = NULL_METRICS
    ledger: Any = NULL_LEDGER
    progress: Any = NULL_EMITTER
    campaign: Any = NULL_CAMPAIGN


_current: ContextVar = ContextVar("repro_telemetry", default=Telemetry())


def telemetry() -> Telemetry:
    """The ambient :class:`Telemetry` (all-null unless a scope installed sinks)."""
    return _current.get()


@contextmanager
def use_telemetry(**parts: Any) -> Iterator[Telemetry]:
    """Install the named sinks over the ambient value for the enclosed block.

    Fields not named keep their current sink; the previous value comes
    back on exit, also when the block raises.
    """
    installed = dataclasses.replace(_current.get(), **parts)
    token = _current.set(installed)
    try:
        yield installed
    finally:
        _current.reset(token)


__all__ = ["Telemetry", "telemetry", "use_telemetry"]
