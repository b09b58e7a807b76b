"""Evaluation-as-a-service: the daemon, its wire protocol, and the client.

``repro-latency serve`` boots an :class:`EvaluationServer` (an
asyncio daemon with one kernel worker and a persistent, warm-startable
result store);
:func:`connect` / :class:`RemoteEngine` give any process a blocking
:class:`~repro.engine.Evaluator` backed by it. ``repro.api`` accepts
``engine="serve://host:port"`` / ``engine="unix:///path.sock"`` and
coerces to a :class:`RemoteEngine` transparently. See
``docs/SERVICE.md`` for the protocol spec and an ops runbook.
"""

from repro.serve.admin import AdminServer
from repro.serve.client import (
    RemoteEngine,
    RemoteEvaluationError,
    RemoteStats,
    connect,
    parse_url,
)
from repro.serve.protocol import PROTOCOL_MINOR, PROTOCOL_VERSION, ProtocolError
from repro.serve.server import (
    EvaluationServer,
    ServerConfig,
    ServerDraining,
    ServerStats,
)
from repro.serve.store import ResultStore, StoreKey, record_to_report

__all__ = [
    "AdminServer",
    "PROTOCOL_MINOR",
    "PROTOCOL_VERSION",
    "EvaluationServer",
    "ProtocolError",
    "RemoteEngine",
    "RemoteEvaluationError",
    "RemoteStats",
    "ResultStore",
    "ServerConfig",
    "ServerDraining",
    "ServerStats",
    "StoreKey",
    "connect",
    "parse_url",
    "record_to_report",
]
