"""The blocking client: a remote :class:`~repro.engine.Evaluator`.

:class:`RemoteEngine` speaks the :mod:`repro.serve.protocol` wire format
to an :class:`~repro.serve.server.EvaluationServer` and presents the
exact :class:`~repro.engine.Evaluator` surface of the in-process
:class:`~repro.engine.EvaluationEngine` — accelerator, options, cache,
stats, ``evaluate`` / ``evaluate_many`` / ``evaluate_energy`` /
``derive`` — so every consumer in the repo (``repro.api``, the temporal
mapper, the architecture search, ``analysis/network``) runs against a
daemon unchanged.

Everything but the transport is the in-process engine's front end
(:class:`repro.engine.evaluation._FrontEnd`), so the same calls give the
same answers, ``cache_hit`` flags and stats counters on either.

The handshake downloads the server's preset (accelerator + native
spatial unrolling) and model options, so ``connect(url)`` alone yields a
fully configured engine; ``derive()`` returns views that carry their own
accelerator/options payload per request, letting one connection serve an
entire architecture sweep against a single daemon.

Design notes:

* **Pipelining** — ``evaluate_many`` writes every request frame before
  reading any response, then collects replies by id; the server
  coalesces, so responses arrive out of order and the id-keyed
  collection is what keeps the result list parallel to the input.
* **Local cache** — the client keeps its own
  :class:`~repro.engine.EvaluationCache`, always on and keyed on
  ``Mapping.cache_key`` like the in-process engine, so repeated design
  points never touch the socket (the daemon's store keys on the SHA-256
  fingerprint instead); the mapper's whole-search memoization uses the
  same cache object. ``cache.clear()`` sends the next repeat to the wire.
* **Typed answers** — a malformed report or energy raises
  :class:`~repro.serve.protocol.ProtocolError` naming the field.
* **Errors** — the server ships the exception *kind*;
  ``"MappingError"`` is re-raised as a real
  :class:`~repro.mapping.mapping.MappingError` (and becomes ``None`` in
  batch results, like the in-process engine); protocol-version refusals
  re-raise as :class:`~repro.serve.protocol.ProtocolError`; everything
  else surfaces as :class:`RemoteEvaluationError`.

Thread-safety: one transport serializes round trips under a lock.
Concurrent *coalescing* load (many clients hammering one fingerprint)
needs one connection per thread — connections are cheap; the server's
store and coalescing map are shared across all of them.
"""

from __future__ import annotations

import copy
import dataclasses
import itertools
import math
import socket
import threading
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.report import LatencyReport
from repro.energy.energy_model import EnergyReport
from repro.engine import EvaluationCache
from repro.engine.evaluation import BestOf, _FrontEnd
from repro.hardware.serde import accelerator_to_dict, preset_from_dict
from repro.mapping.mapping import Mapping, MappingError
from repro.mapping.serde import mapping_to_dict
from repro.observability.distributed import inject_trace, spans_from_wire
from repro.observability.stats import EngineStats
from repro.observability.telemetry import telemetry
from repro.serve import protocol
from repro.serve.protocol import (
    ErrorResponse,
    EvaluateRequest,
    HelloRequest,
    HelloResponse,
    ProtocolError,
    ShutdownRequest,
    StatsRequest,
)
from repro.workload.serde import layer_to_dict


class RemoteEvaluationError(RuntimeError):
    """The server answered with an error the client cannot translate.

    Carries the server-side exception kind in :attr:`kind` (e.g.
    ``"ServerDraining"``, ``"SerdeError"``) for programmatic dispatch.
    """

    def __init__(self, kind: str, message: str) -> None:
        super().__init__(f"{kind}: {message}")
        self.kind = kind


@dataclasses.dataclass(frozen=True)
class RemoteStats:
    """Client- and server-side counters of one remote engine, together.

    ``client`` is the local :class:`EngineStats` snapshot (LRU hits,
    round trips, phase seconds); ``server`` is the daemon's live
    ``stats_snapshot()`` (coalesced, warm hits, queue high-water, per
    PR 7). One round trip per call — built by
    :meth:`RemoteEngine.remote_stats`.
    """

    client: Dict[str, float]
    server: Dict[str, float]

    @property
    def coalesced(self) -> int:
        """Server-side requests attached to an in-flight evaluation."""
        return int(self.server.get("coalesced", 0))

    @property
    def warm_hits(self) -> int:
        """Server answers served from a prior boot's ledger rows."""
        return int(self.server.get("warm_hits", 0))

    @property
    def queue_highwater(self) -> int:
        """Deepest the server's queue has been this boot."""
        return int(self.server.get("queue_highwater", 0))

    @property
    def client_cache_hits(self) -> int:
        """Answers served from the client's local LRU (no socket)."""
        return int(self.client.get("cache_hits", 0))

    def summary(self) -> str:
        """One line for dashboards: the counters an operator scans first."""
        server_evals = int(self.server.get("evaluations", 0))
        return (
            f"remote: {server_evals} server eval(s), "
            f"{self.coalesced} coalesced, {self.warm_hits} warm, "
            f"queue hw {self.queue_highwater}, "
            f"{self.client_cache_hits} client LRU hit(s)"
        )


def parse_url(url: str) -> Tuple[str, ...]:
    """Split an engine URL into a transport address.

    ``serve://host:port`` → ``("tcp", host, port)``;
    ``unix:///path/to.sock`` → ``("unix", path)``.
    """
    if url.startswith("unix://"):
        path = url[len("unix://"):]
        if not path:
            raise ValueError(f"empty socket path in engine URL {url!r}")
        return ("unix", path)
    if url.startswith("serve://"):
        rest = url[len("serve://"):]
        host, sep, port = rest.rpartition(":")
        if not sep or not host or not port.isdigit():
            raise ValueError(
                f"bad engine URL {url!r}: expected serve://host:port"
            )
        return ("tcp", host, int(port))
    raise ValueError(
        f"unrecognized engine URL {url!r}: expected serve://host:port "
        "or unix:///path/to.sock"
    )


class _Transport:
    """One socket speaking line-framed protocol messages, id-matched.

    A single lock is held across each full round trip, so one transport
    serializes its callers; responses inside a pipelined burst are
    matched by id (the server replies out of order).
    """

    def __init__(self, address: Tuple, timeout: Optional[float] = None) -> None:
        if address[0] == "unix":
            self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            self._sock.settimeout(timeout)
            self._sock.connect(address[1])
        else:
            self._sock = socket.create_connection(
                (address[1], address[2]), timeout=timeout
            )
        self._sock.settimeout(None)  # round trips block until answered
        self._reader = self._sock.makefile("rb")
        self._lock = threading.RLock()
        self._ids = itertools.count(1)
        self._pending: Dict[int, object] = {}
        self._closed = False

    def next_id(self) -> int:
        return next(self._ids)

    def _read_frame(self):
        line = self._reader.readline()
        if not line:
            raise RemoteEvaluationError(
                "ConnectionClosed", "server closed the connection"
            )
        return protocol.decode(line)

    def request(self, message) -> object:
        """One round trip; stray responses are parked for their waiters."""
        with self._lock:
            self._sock.sendall(protocol.encode(message))
            while True:
                parked = self._pending.pop(message.id, None)
                if parked is not None:
                    return parked
                response = self._read_frame()
                if getattr(response, "id", None) == message.id:
                    return response
                self._pending[response.id] = response

    def request_many(self, messages: List) -> List[object]:
        """Pipeline a burst: write every frame, then collect by id."""
        with self._lock:
            payload = b"".join(protocol.encode(m) for m in messages)
            self._sock.sendall(payload)
            wanted = {m.id for m in messages}
            got: Dict[int, object] = {}
            for message_id in list(wanted):
                parked = self._pending.pop(message_id, None)
                if parked is not None:
                    got[message_id] = parked
            while len(got) < len(wanted):
                response = self._read_frame()
                response_id = getattr(response, "id", None)
                if response_id in wanted:
                    got[response_id] = response
                else:
                    self._pending[response_id] = response
            return [got[m.id] for m in messages]

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self._reader.close()
        except OSError:  # pragma: no cover
            pass
        try:
            self._sock.close()
        except OSError:  # pragma: no cover
            pass


def _raise_remote(error: ErrorResponse) -> None:
    """Translate an error frame into the matching local exception."""
    if error.error == "MappingError":
        raise MappingError(error.message)
    if error.error == "ProtocolError":
        raise ProtocolError(error.message)
    raise RemoteEvaluationError(error.error, error.message)


class RemoteEngine(_FrontEnd):
    """A server-backed engine with the in-process engine's exact surface.

    Build one with :func:`connect` (or ``repro.evaluate(...,
    engine="serve://host:port")``, which does). The constructor performs
    the handshake and adopts the server's machine and options;
    :meth:`derive` returns views onto other machines that ship their
    accelerator per request over the same connection.
    """

    # Bound on the class itself: perfbench/layers.py times it through
    # this class's __dict__.
    _latency_key = _FrontEnd._latency_key

    def __init__(
        self,
        url: str,
        *,
        timeout: Optional[float] = None,
        cache: Optional[EvaluationCache] = None,
        stats: Optional[EngineStats] = None,
    ) -> None:
        self.url = url
        self._transport = _Transport(parse_url(url), timeout=timeout)
        hello = self._transport.request(
            HelloRequest(id=self._transport.next_id())
        )
        if isinstance(hello, ErrorResponse):
            _raise_remote(hello)
        if not isinstance(hello, HelloResponse):
            raise ProtocolError(
                f"handshake expected hello_ok, got {type(hello).__name__}"
            )
        self.server_name = hello.server
        self.server_protocol = hello.protocol
        self.admin_url: Optional[str] = hello.admin
        preset = preset_from_dict(hello.preset)
        super().__init__(
            preset.accelerator,
            protocol.options_from_dict(hello.options),
            cache=cache,
            stats=stats,
            spatial_unrolling=getattr(preset, "spatial_unrolling", None),
        )
        # None payloads mean "the server's own machine" on the wire —
        # the common case, and cheaper for the server to resolve.
        self._accel_payload: Optional[dict] = None
        self._options_payload: Optional[dict] = None

    def _sibling(self, accelerator, options, spatial_unrolling) -> "RemoteEngine":
        """A view for another machine/options over the same connection:
        it ships its accelerator and options with each request."""
        view = copy.copy(self)
        _FrontEnd.__init__(
            view, accelerator, options,
            cache=self.cache, stats=self.stats, spatial_unrolling=spatial_unrolling,
        )
        if accelerator is not self.accelerator:
            view._accel_payload = accelerator_to_dict(accelerator)
        if options is not self.options:
            view._options_payload = protocol.options_to_dict(options)
        return view

    # ------------------------------------------------------------------ #
    # Transport
    # ------------------------------------------------------------------ #

    def _request_for(
        self, mapping: Mapping, with_energy: bool, validate: bool = False
    ) -> EvaluateRequest:
        # The client validates locally (check() runs before its cache
        # probe), so its own frames leave validate off and the daemon may
        # answer them from its store.
        # inject_trace() is None (no allocation, no wire field) unless a
        # tracer is ambient — call it inside the open transport span so
        # the propagated span_id names that span.
        return EvaluateRequest(
            id=self._transport.next_id(),
            layer=layer_to_dict(mapping.layer),
            mapping=mapping_to_dict(mapping),
            accelerator=self._accel_payload,
            options=self._options_payload,
            validate=validate,
            with_energy=with_energy,
            trace=inject_trace(),
        )

    def _round_trip(self, phase: str, mapping: Mapping, with_energy: bool):
        """One evaluate round trip inside a ``remote.evaluate`` client span.

        The request is built *inside* the span (so the injected context
        names it), and the server's shipped span subtree is grafted back
        under it — one stitched cross-process tree. With no tracer
        ambient the span is the null span, no context goes on the wire
        and the server ships no spans.
        """
        tracer = telemetry().tracer
        with tracer.span("remote.evaluate", url=self.url, phase=phase):
            with self.stats.phase(phase):
                response = self._transport.request(
                    self._request_for(mapping, with_energy)
                )
            if isinstance(response, ErrorResponse):
                _raise_remote(response)
            if response.spans:
                tracer.merge(spans_from_wire(response.spans))
        return response

    def evaluate(self, mapping: Mapping, validate: bool = True) -> LatencyReport:
        """Latency of ``mapping``, served from the local cache or the server.

        Cache hits return the slim wire-form report (all gated metrics
        plus the stall anatomy; no DTL objects — same as batch-core slim
        reports). Under ``validate`` the mapping is checked locally
        first, so an infeasible one raises even when its report is cached.
        """
        if validate:
            self.check(mapping)
        key = self._latency_key(mapping)
        report = self._cached(key, mapping.layer)
        if report is None:
            response = self._round_trip("evaluate", mapping, with_energy=False)
            report = protocol.report_from_dict(response.report)
            self.stats.evaluations += 1
            self.cache.put(key, report)
        return report

    def _energy_miss(self, mapping: Mapping) -> EnergyReport:
        # The server runs both models; the latency answer is kept too.
        response = self._round_trip("energy", mapping, with_energy=True)
        energy = protocol.energy_from_dict(response.energy)
        self.cache.put(
            self._latency_key(mapping), protocol.report_from_dict(response.report)
        )
        return energy

    def _run_batch(
        self, rows: Sequence[Mapping], validate: bool, with_energy: bool
    ):
        """The misses of a batch in one pipelined burst: every request
        is written before any reply is read, and the replies are
        collected out of order by request id. A ``MappingError`` reply
        leaves its row ``None``."""
        rows = list(rows)
        tracer = telemetry().tracer
        with tracer.span("remote.batch", url=self.url, mappings=float(len(rows))):
            batch = self._probe(
                rows, rows, self._latency_key, self._energy_key, validate, with_energy
            )
            if not batch.pending:
                return batch
            requests = [self._request_for(rows[i], with_energy) for i in batch.pending]
            with self.stats.phase("batch"):
                responses = self._transport.request_many(requests)
            for i, response in zip(batch.pending, responses):
                if isinstance(response, ErrorResponse):
                    if response.error == "MappingError":
                        self.stats.errors += 1
                        continue  # parallel-list contract: infeasible -> None
                    _raise_remote(response)
                self.stats.evaluations += 1
                if response.spans:
                    # merged in request order while remote.batch is open
                    tracer.merge(spans_from_wire(response.spans))
                batch.reports[i] = protocol.report_from_dict(response.report)
                if response.energy is not None:
                    batch.energies[i] = protocol.energy_from_dict(response.energy)
            self._keep(batch, batch.pending)
        return batch

    def best_of(
        self, mappings: Iterable[Mapping], incumbent: float = math.inf
    ) -> BestOf:
        """The first of ``mappings`` with the least latency below
        ``incumbent``: :meth:`evaluate_many`, then a strict ``<`` scan
        (the daemon answers every mapping; nothing is pruned)."""
        return BestOf.scan(self.evaluate_many(mappings), incumbent)

    # ------------------------------------------------------------------ #
    # Service controls
    # ------------------------------------------------------------------ #

    def server_stats(self) -> Dict[str, float]:
        """The daemon's live counters (coalesced, warm hits, queue depth...)."""
        response = self._transport.request(
            StatsRequest(id=self._transport.next_id())
        )
        if isinstance(response, ErrorResponse):
            _raise_remote(response)
        return dict(response.stats)

    def remote_stats(self) -> RemoteStats:
        """Both sides of the connection in one snapshot.

        (``stats`` is already the client-local :class:`EngineStats`
        attribute every Evaluator carries, hence the distinct name.)
        One stats round trip per call.
        """
        return RemoteStats(
            client=self.stats.snapshot(), server=self.server_stats()
        )

    def shutdown(self) -> None:
        """Ask the daemon to drain and exit (acknowledged before draining)."""
        response = self._transport.request(
            ShutdownRequest(id=self._transport.next_id())
        )
        if isinstance(response, ErrorResponse):  # pragma: no cover
            _raise_remote(response)

    def close(self) -> None:
        """Close this engine's connection (shared with any derived views)."""
        self._transport.close()

    def __repr__(self) -> str:
        return (
            f"RemoteEngine({self.url!r}, accelerator="
            f"{getattr(self.accelerator, 'name', '?')!r})"
        )


def connect(
    url: str,
    *,
    timeout: Optional[float] = None,
) -> RemoteEngine:
    """Open a connection to an evaluation daemon and hand back the engine."""
    return RemoteEngine(url, timeout=timeout)


__all__ = [
    "RemoteEngine",
    "RemoteEvaluationError",
    "RemoteStats",
    "connect",
    "parse_url",
]
