"""The blocking client: a remote :class:`~repro.engine.Evaluator`.

:class:`RemoteEngine` speaks the :mod:`repro.serve.protocol` wire format
to an :class:`~repro.serve.server.EvaluationServer` and presents the
exact :class:`~repro.engine.Evaluator` surface of the in-process
:class:`~repro.engine.EvaluationEngine` — accelerator, options, cache,
stats, ``evaluate`` / ``evaluate_many`` / ``evaluate_energy`` /
``derive`` — so every consumer in the repo (``repro.api``, the temporal
mapper, the architecture search, ``analysis/network``) runs against a
daemon unchanged.

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
from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.model import LatencyModel
from repro.core.report import LatencyReport
from repro.core.step1 import ModelOptions
from repro.energy.energy_model import EnergyReport
from repro.engine import EvaluationCache
from repro.engine.evaluation import BestOf, Evaluation
from repro.fingerprint import stable_fingerprint
from repro.hardware.accelerator import Accelerator
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


class RemoteEngine:
    """A server-backed engine with the in-process engine's exact surface.

    Build one with :func:`connect` (or ``repro.evaluate(...,
    engine="serve://host:port")``, which does). The constructor performs
    the handshake and adopts the server's machine and options;
    :meth:`derive` returns views onto other machines that ship their
    accelerator per request over the same connection.
    """

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
        self.cache = cache if cache is not None else EvaluationCache()
        self.stats = stats if stats is not None else EngineStats()
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
        self.accelerator: Accelerator = preset.accelerator
        self.spatial_unrolling = dict(
            getattr(preset, "spatial_unrolling", None) or {}
        )
        self.options: ModelOptions = protocol.options_from_dict(hello.options)
        # None payloads mean "the server's own machine" on the wire —
        # the common case, and cheaper for the server to resolve.
        self._accel_payload: Optional[dict] = None
        self._options_payload: Optional[dict] = None
        self._accel_fp = self.accelerator.fingerprint()
        self._options_fp = stable_fingerprint(self.options)
        self._model: Optional[LatencyModel] = None

    # ------------------------------------------------------------------ #
    # Evaluator surface: identity
    # ------------------------------------------------------------------ #

    @property
    def accelerator_fingerprint(self) -> str:
        """Fingerprint of the engine's accelerator (serde-stable, so it
        matches the fingerprint the server computes for the same machine)."""
        return self._accel_fp

    @property
    def options_fingerprint(self) -> str:
        """Fingerprint of the engine's model options."""
        return self._options_fp

    def derive(
        self,
        accelerator: Optional[Accelerator] = None,
        options: Optional[ModelOptions] = None,
    ) -> "RemoteEngine":
        """A view for another machine/options over the same connection.

        Mirrors :meth:`EvaluationEngine.derive`: the view shares this
        engine's transport, cache and stats, and ships its accelerator
        and options with each request (fingerprinted cache keys keep the
        machines' entries apart). The native spatial unrolling travels
        only while the accelerator is unchanged.
        """
        view = copy.copy(self)
        view._model = None
        if accelerator is None or accelerator is self.accelerator:
            view.spatial_unrolling = dict(self.spatial_unrolling)
        else:
            view.accelerator = accelerator
            view.spatial_unrolling = {}
            view._accel_payload = accelerator_to_dict(accelerator)
            view._accel_fp = accelerator.fingerprint()
        if options is not None:
            view.options = options
            view._options_payload = protocol.options_to_dict(options)
            view._options_fp = stable_fingerprint(options)
        return view

    # ------------------------------------------------------------------ #
    # Evaluator surface: evaluation
    # ------------------------------------------------------------------ #

    def check(self, mapping: Mapping) -> None:
        """Raise :class:`MappingError` if ``mapping`` is infeasible here.

        Validation is pure model arithmetic, so it runs locally — no
        round trip for the mapper's feasibility probes.
        """
        if self._model is None:
            self._model = LatencyModel(self.accelerator, self.options)
        self._model.check(mapping)

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

    def _latency_key(self, mapping: Mapping) -> Tuple:
        return ("latency", self._accel_fp, self._options_fp, mapping.cache_key)

    def _energy_key(self, mapping: Mapping) -> Tuple:
        return ("energy", self._accel_fp, mapping.cache_key)

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
        report = self.cache.get(key)
        if report is not None:
            self.stats.cache_hits += 1
            return report
        self.stats.cache_misses += 1
        response = self._round_trip("evaluate", mapping, with_energy=False)
        self.stats.evaluations += 1
        report = protocol.report_from_dict(response.report)
        self.cache.put(key, report)
        return report

    def evaluate_energy(self, mapping: Mapping) -> EnergyReport:
        """Dynamic energy of ``mapping`` (the server runs both models)."""
        key = self._energy_key(mapping)
        energy = self.cache.get(key)
        if energy is not None:
            self.stats.cache_hits += 1
            return energy
        self.stats.cache_misses += 1
        response = self._round_trip("energy", mapping, with_energy=True)
        self.stats.energy_evaluations += 1
        energy = protocol.energy_from_dict(response.energy)
        self.cache.put(key, energy)
        self.cache.put(
            self._latency_key(mapping), protocol.report_from_dict(response.report)
        )
        return energy

    def evaluate_many(
        self,
        mappings: Iterable[Mapping],
        validate: bool = False,
        with_energy: bool = False,
    ) -> List[Optional[Evaluation]]:
        """Evaluate a batch in one pipelined burst, preserving order.

        Exactly the in-process contract: entry ``i`` is an
        :class:`~repro.engine.evaluation.Evaluation`, or ``None`` when
        mapping ``i`` was infeasible (under ``validate``, checked locally
        before the cache probe; else :class:`MappingError` server-side).
        Local cache hits never touch the socket (with ``with_energy`` a
        hit needs both the latency and the energy entry); the rest is
        written as one burst and collected out of order by request id.
        """
        mappings = list(mappings)
        self.stats.batches += 1
        results: List[Optional[Evaluation]] = [None] * len(mappings)
        tracer = telemetry().tracer
        with tracer.span("remote.batch", url=self.url,
                         mappings=float(len(mappings))):
            pending: List[Tuple[int, EvaluateRequest]] = []
            for i, mapping in enumerate(mappings):
                if validate:
                    try:
                        self.check(mapping)
                    except MappingError:
                        self.stats.errors += 1
                        continue
                report = self.cache.get(self._latency_key(mapping))
                energy = (
                    self.cache.get(self._energy_key(mapping)) if with_energy else None
                )
                if report is not None and (not with_energy or energy is not None):
                    self.stats.cache_hits += 1
                    results[i] = Evaluation(mapping, report, energy)
                    continue
                self.stats.cache_misses += 1
                pending.append(
                    (i, self._request_for(mapping, with_energy))
                )
            if not pending:
                return results
            with self.stats.phase("batch"):
                responses = self._transport.request_many([r for _, r in pending])
            for (i, _), response in zip(pending, responses):
                if isinstance(response, ErrorResponse):
                    if response.error == "MappingError":
                        self.stats.errors += 1
                        continue  # parallel-list contract: infeasible -> None
                    _raise_remote(response)
                self.stats.evaluations += 1
                if response.spans:
                    # merged in request order while remote.batch is open
                    tracer.merge(spans_from_wire(response.spans))
                report = protocol.report_from_dict(response.report)
                energy = (
                    protocol.energy_from_dict(response.energy)
                    if response.energy is not None else None
                )
                self.cache.put(self._latency_key(mappings[i]), report)
                if energy is not None:
                    self.cache.put(self._energy_key(mappings[i]), energy)
                results[i] = Evaluation(mappings[i], report, energy)
        return results

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

    def __enter__(self) -> "RemoteEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

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
