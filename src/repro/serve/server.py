"""The asyncio evaluation daemon behind ``repro-latency serve``.

One process owns one kernel worker and serves the line-framed JSON
protocol of :mod:`repro.serve.protocol` over TCP or a Unix socket. The
moving parts:

* **One kernel worker** — every request that misses the store and is
  not already in flight goes onto one bounded :class:`asyncio.Queue`,
  drained by one worker task through a single-thread executor. Each
  pickup takes everything already queued and runs it as one
  ``evaluate_many`` call per (machine, options) group; singletons and
  traced requests run alone through ``engine.evaluate`` (a one-lane
  batch). Engines are built lazily per (machine, options) pair, kept
  in a bounded :class:`~repro.engine.EvaluationCache`, and share one
  result :class:`~repro.engine.EvaluationCache`. The kernel never runs
  concurrently; under the GIL, two worker threads measured no faster.
* **Backpressure** — the queue is bounded; when it is ``queue_depth``
  deep, ``await queue.put`` suspends the connection handler, which
  stops reading that client's socket — TCP flow control does the rest.
  No unbounded buffering anywhere.
* **Coalescing** — requests carrying fingerprints already in flight
  attach to the owner's future instead of enqueuing a duplicate; the
  ``coalesced`` counter in the stats surface counts them (asserted by
  the integration tests: N concurrent duplicates run the kernel once).
* **Persistent store** — answers come, in order of preference, from the
  :class:`~repro.serve.store.ResultStore` (warm rows from prior
  ledgers, or rows evaluated this boot), from an in-flight future, or
  from the kernel; every kernel result is written through to the
  ledger so the *next* boot warm-starts from it. The ledger and the
  progress emitter are those of the ambient telemetry
  (:func:`~repro.observability.telemetry.telemetry`) when the server
  is constructed.
* **Health plane** — when a progress emitter is installed the daemon
  opens one ``flow="serve"`` run and advances it per evaluation under
  the worker id ``kernel``, with periodic cache stats; ``repro-latency
  top EVENTS --follow`` watches a live server exactly like any other
  flow.
* **Drain** — SIGINT/SIGTERM (or a ``shutdown`` frame) stops intake,
  fails queued-but-unstarted requests with a clean ``ServerDraining``
  error, lets the in-flight kernel finish, writes one
  ``kind="interrupted"`` ledger row recording how far the daemon got,
  and closes the progress run.
* **Observability plane** — every evaluate request is described once,
  by a :class:`~repro.observability.distributed.RequestRecord` (ids,
  fingerprints, arrival queue depth, per-phase µs, kernel spans,
  outcome, wall time), and every per-request view is a projection of
  it: the request metrics; the entry in the always-on
  :class:`FlightRecorder` ring (dumped on SIGQUIT, drain, internal
  error, or ``/statusz?dump=1``); for requests over ``--slow-ms``, the
  ``/statusz`` slow entry, a ``kind="slow_request"`` ledger row and a
  progress-stream note; and, for requests carrying a ``trace``
  context, the server-side span subtree shipped back in the response.
  ``--admin-port`` starts the HTTP admin listener
  (:mod:`repro.serve.admin`) serving ``/metrics`` (Prometheus text with
  request histograms), ``/healthz``, ``/readyz`` and ``/statusz``.

The daemon is single-loop asyncio; kernels run in the worker thread via
``run_in_executor``, which deliberately does *not* propagate context
variables — the kernel's engines therefore never double-write the
ambient ledger, and all persistence goes through the store explicitly.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import os
import signal
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from traceback import format_exc
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.step1 import ModelOptions
from repro.engine import EvaluationCache, EvaluationEngine
from repro.engine.evaluation import for_layer
from repro.fingerprint import stable_fingerprint
from repro.hardware.accelerator import Accelerator
from repro.hardware.presets import Preset
from repro.hardware.serde import (
    SerdeError,
    accelerator_from_dict,
    preset_to_dict,
)
from repro.mapping.mapping import Mapping
from repro.mapping.serde import mapping_from_dict
from repro.observability.distributed import (
    FlightRecorder,
    RequestRecord,
    TraceContext,
    extract_trace,
    server_span_records,
    spans_to_wire,
)
from repro.observability.ledger import record_interruption, record_slow_request
from repro.observability.metrics import MetricsRegistry
from repro.observability.progress import NULL_RUN
from repro.observability.span import SpanRecord
from repro.observability.stats import EngineStats
from repro.observability.telemetry import telemetry, use_telemetry
from repro.observability.tracer import NULL_TRACER, Tracer
from repro.serve import protocol
from repro.serve.protocol import (
    ErrorResponse,
    EvaluateRequest,
    EvaluateResponse,
    HelloRequest,
    HelloResponse,
    ProtocolError,
    ShutdownRequest,
    ShutdownResponse,
    StatsRequest,
    StatsResponse,
)
from repro.serve.store import ResultStore
from repro.workload.layer import LayerSpec
from repro.workload.serde import layer_from_dict


#: Entries kept by each bounded table: the accelerator and options
#: payload memos and the engine table.
_TABLE_SIZE = 128
#: Last-N slow requests kept for ``/statusz``.
_SLOW_LOG_SIZE = 32
#: The progress-stream worker id of the kernel.
_WORKER = "kernel"
#: Longest frame a connection reads (bytes); asyncio's stream default.
_FRAME_LIMIT = 2 ** 16


class ServerDraining(RuntimeError):
    """The daemon is shutting down; the request was not evaluated."""


@dataclasses.dataclass
class ServerConfig:
    """Everything a daemon needs; the CLI builds one from flags.

    Exactly one of ``socket_path`` (Unix socket) or ``host``/``port``
    (TCP; ``port=0`` binds an ephemeral port, reported by
    :attr:`EvaluationServer.url`) selects the transport.
    ``pre_evaluate_hook`` is a test seam: called in the kernel thread
    once per work item, before that item's group goes to the kernel,
    it lets integration tests hold an evaluation open deterministically
    (to assert coalescing) without sleeping.

    ``admin_port`` (``None`` = off, ``0`` = ephemeral) starts the HTTP
    admin listener on ``host``; ``slow_ms`` (``None`` = off) is the
    slow-request threshold; ``flight_path`` is where the flight
    recorder auto-dumps on drain / internal error / SIGQUIT (``None``
    disables the automatic file dumps, not the recorder itself).
    """

    preset: Preset
    options: ModelOptions = dataclasses.field(default_factory=ModelOptions)
    host: str = "127.0.0.1"
    port: int = 0
    socket_path: Optional[str] = None
    queue_depth: int = 128
    name: str = "repro-serve"
    warm_start: Tuple[str, ...] = ()        # prior ledger snapshots to index
    pre_evaluate_hook: Optional[Callable] = None
    admin_port: Optional[int] = None        # HTTP admin listener (None = off)
    slow_ms: Optional[float] = None         # slow-request threshold (None = off)
    flight_path: Optional[str] = None       # auto-dump target (None = no file dumps)

    def __post_init__(self) -> None:
        if self.queue_depth < 1:
            raise ValueError(f"queue_depth must be >= 1, got {self.queue_depth}")


@dataclasses.dataclass
class ServerStats:
    """The daemon's own counters (engine counters ride along in snapshots)."""

    connections: int = 0
    requests: int = 0          # evaluate requests received
    evaluations: int = 0       # kernels actually run
    energy_evaluations: int = 0
    coalesced: int = 0         # requests attached to an in-flight evaluation
    warm_hits: int = 0         # answered from a prior-boot ledger row
    store_hits: int = 0        # answered from a this-boot result
    errors: int = 0            # requests answered with an error frame
    protocol_errors: int = 0
    drained: int = 0           # requests failed by a drain
    slow_requests: int = 0     # requests over the --slow-ms threshold

    def snapshot(self) -> Dict[str, float]:
        return {
            field.name: float(getattr(self, field.name))
            for field in dataclasses.fields(self)
        }


@dataclasses.dataclass
class _WorkItem:
    """One enqueued evaluation: parsed payload plus its completion future."""

    key: Tuple
    accelerator: Accelerator
    options: ModelOptions
    mapping: Mapping
    validate: bool
    with_energy: bool
    future: asyncio.Future
    label: str = ""             # "accel_fp[:8]/mapping_fp[:12]" for notes
    traced: bool = False        # collect the kernel's span records?
    t_enqueue: float = 0.0      # perf_counter at enqueue
    queue_wait_us: float = 0.0  # written by the kernel loop at pickup


@dataclasses.dataclass(frozen=True)
class _Outcome:
    """What the kernel thread hands back for one kernel run."""

    report: Any
    energy: Any
    wall_s: float
    kernel_records: Tuple[SpanRecord, ...] = ()


class EvaluationServer:
    """The daemon: sockets in, one kernel worker out. See the module docstring."""

    def __init__(self, config: ServerConfig) -> None:
        self.config = config
        # The ledger and progress stream are the ambient ones at
        # construction; the request metrics below are the daemon's own.
        self._telemetry = telemetry()
        self.stats = ServerStats()
        self.store = ResultStore(self._telemetry.ledger)
        self.engine_stats = EngineStats()
        self._preset_payload = preset_to_dict(config.preset)
        self._options_payload = protocol.options_to_dict(config.options)
        self._own_accel = config.preset.accelerator
        self._own_accel_fp = self._own_accel.fingerprint()
        self._own_options_fp = stable_fingerprint(config.options)
        # The kernel worker: one bounded queue drained by one task through
        # one thread; engines per (accel_fp, options_fp) share one cache.
        # The queue is built in start(), inside the serving event loop.
        self._queue: Optional[asyncio.Queue] = None
        self._queue_highwater = 0
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-kernel"
        )
        self._worker: Optional[asyncio.Task] = None
        self._engines = EvaluationCache(_TABLE_SIZE)
        self._cache = EvaluationCache()
        # Coalescing: key -> the owning request's future.
        self._inflight: Dict[Tuple, asyncio.Future] = {}
        # Deserialized-payload memos: canonical JSON -> (object, fingerprint).
        self._accel_memo = EvaluationCache(_TABLE_SIZE)
        self._options_memo = EvaluationCache(_TABLE_SIZE)
        # One-entry memos of the last request's layer and spatial: the
        # ``repr`` of the wire dict -> the object parsed from it.
        self._last_layer: Tuple[Optional[str], Any] = (None, None)
        self._last_spatial: Tuple[Optional[str], Any] = (None, None)
        self._server: Optional[asyncio.AbstractServer] = None
        self._conn_writers: set = set()
        self._conn_tasks: set = set()
        self._run = NULL_RUN        # progress RunHandle
        self._draining = False
        self._stopped: Optional[asyncio.Event] = None
        self.started_ts = 0.0
        # Observability plane: request metrics, the always-on flight
        # recorder, the last-N slow-request ring, and (when configured)
        # the HTTP admin listener built in start().
        self.metrics = MetricsRegistry()
        self.flight = FlightRecorder()
        self._slow_log: "deque" = deque(maxlen=_SLOW_LOG_SIZE)
        self.admin = None           # repro.serve.admin.AdminServer (or None)
        self._error_dumped = False

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    async def start(self) -> None:
        """Bind sockets, start the kernel worker, warm-start the store."""
        loop = asyncio.get_running_loop()
        self.loop = loop  # handed out for run_coroutine_threadsafe (tests, ops)
        self._stopped = asyncio.Event()
        self._queue = asyncio.Queue(maxsize=self.config.queue_depth)
        warm = self.store.warm_start(self.config.warm_start)
        self._worker = loop.create_task(self._kernel_loop(), name="kernel")
        if self.config.socket_path:
            self._server = await asyncio.start_unix_server(
                self._on_connection, path=self.config.socket_path,
                limit=_FRAME_LIMIT,
            )
        else:
            self._server = await asyncio.start_server(
                self._on_connection, host=self.config.host, port=self.config.port,
                limit=_FRAME_LIMIT,
            )
        if self.config.admin_port is not None:
            from repro.serve.admin import AdminServer

            self.admin = AdminServer(
                self, host=self.config.host, port=self.config.admin_port
            )
            self.admin.start()
        # Last: started_ts > 0 is the "fully up" signal (readyz, tests).
        self.started_ts = time.time()
        self._run = self._telemetry.progress.start_run(
            "serve",
            total_units=None,
            unit="evals",
            accelerator=getattr(self._own_accel, "name", ""),
        )
        if warm:
            self._run.cache_stats(warm, 0)

    @property
    def url(self) -> str:
        """The client-ready endpoint URL (``serve://host:port`` or ``unix://path``)."""
        if self.config.socket_path:
            return f"unix://{self.config.socket_path}"
        sock = self._server.sockets[0]
        host, port = sock.getsockname()[:2]
        return f"serve://{host}:{port}"

    async def run(
        self,
        ready_file: Optional[str] = None,
        install_signal_handlers: bool = True,
        on_ready: Optional[Callable[[str], None]] = None,
    ) -> bool:
        """Start, serve until drained, tear down; the CLI entry point.

        Writes the bound endpoint to ``ready_file`` (JSON with a
        ``"url"`` key) once listening, so scripts can wait for boot
        without racing an ephemeral port. Returns ``True`` when the
        daemon exited through an interrupt-style drain (the CLI maps
        that to exit code 130).
        """
        await self.start()
        loop = asyncio.get_running_loop()
        if install_signal_handlers:
            for sig in (signal.SIGINT, signal.SIGTERM):
                try:
                    loop.add_signal_handler(
                        sig, lambda s=sig: loop.create_task(
                            self.drain(reason=signal.Signals(s).name)
                        )
                    )
                except (NotImplementedError, RuntimeError):  # pragma: no cover
                    pass
            # SIGQUIT = dump the flight recorder, keep serving: the
            # classic "what is this daemon doing right now" poke.
            if hasattr(signal, "SIGQUIT"):
                try:
                    loop.add_signal_handler(signal.SIGQUIT, self.dump_flight)
                except (NotImplementedError, RuntimeError):  # pragma: no cover
                    pass
        if ready_file:
            ready: Dict[str, Any] = {"url": self.url, "pid": os.getpid()}
            if self.admin is not None:
                ready["admin"] = self.admin.url
            with open(ready_file, "w") as handle:
                json.dump(ready, handle)
        if on_ready is not None:
            on_ready(self.url)
        try:
            await self._stopped.wait()
        finally:
            self._server.close()
            await self._server.wait_closed()
            # Closing client transports feeds EOF to every handler's
            # readline, so they all exit cleanly (no hard cancellation
            # at loop teardown).
            for writer in list(self._conn_writers):
                writer.close()
            if self._conn_tasks:
                await asyncio.gather(*self._conn_tasks, return_exceptions=True)
            self._executor.shutdown(wait=True)
            if self.admin is not None:
                self.admin.close()
        return self._interrupted

    _interrupted = False

    async def drain(self, reason: str = "shutdown", interrupted: bool = None) -> None:
        """Stop intake, fail queued work cleanly, finish in-flight kernels.

        ``interrupted`` marks the drain as signal-like (defaults to true
        for anything that is not a protocol-requested ``"shutdown"``):
        it decides between a ``kind="interrupted"`` ledger row plus a
        ``RunInterrupted`` event, and a plain run finish.
        """
        if self._draining:
            return
        self._draining = True
        if interrupted is None:
            interrupted = reason != "shutdown"
        self._interrupted = interrupted
        self._fail_queued()
        await self._queue.put(None)  # sentinel: the worker exits after current work
        await asyncio.gather(self._worker, return_exceptions=True)
        self._fail_queued()  # producers that slipped in behind the sentinel
        ledger = self._telemetry.ledger
        if interrupted and ledger.enabled:
            ledger.append(record_interruption(
                flow="serve",
                done_units=self.stats.evaluations,
                total_units=None,
                unit="evals",
                reason=reason,
                wall_time_s=time.time() - self.started_ts,
            ))
        if interrupted:
            self._run.interrupt(reason)
        else:
            self._run.finish()
        if self.config.flight_path and len(self.flight):
            self.flight.dump(self.config.flight_path)
        self._stopped.set()

    def _queued(self) -> int:
        """Requests waiting for the kernel (0 before ``start()``)."""
        return self._queue.qsize() if self._queue is not None else 0

    def _fail_queued(self) -> None:
        """Fail every queued-but-unstarted item with a clean drain error."""
        while True:
            try:
                item = self._queue.get_nowait()
            except asyncio.QueueEmpty:
                break
            if item is None:
                continue
            self.stats.drained += 1
            self._finish_item(
                item, error=ServerDraining(
                    "server is draining; the request was not evaluated"
                )
            )

    # ------------------------------------------------------------------ #
    # Connections
    # ------------------------------------------------------------------ #

    async def _on_connection(self, reader, writer) -> None:
        self.stats.connections += 1
        self._conn_writers.add(writer)
        self._conn_tasks.add(asyncio.current_task())
        write_lock = asyncio.Lock()
        tasks: set = set()
        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError:  # a frame over the limit: answer, then hang up
                    self.stats.protocol_errors += 1
                    await self._send(writer, write_lock, ErrorResponse(
                        id=-1,
                        error="ProtocolError",
                        message=f"frame exceeds the {_FRAME_LIMIT}-byte limit; "
                        "closing the connection",
                    ))
                    break
                if not line:
                    break
                task = asyncio.get_running_loop().create_task(
                    self._handle_frame(line, writer, write_lock)
                )
                tasks.add(task)
                task.add_done_callback(tasks.discard)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            self._conn_writers.discard(writer)
            if tasks:
                await asyncio.gather(*tasks, return_exceptions=True)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass
            # Last: anything above still counts as live for run() teardown.
            self._conn_tasks.discard(asyncio.current_task())

    async def _handle_frame(self, line: bytes, writer, write_lock) -> None:
        """Decode one frame, dispatch it, write the (id-tagged) response.

        Every decoded frame gets a reply: an exception that escapes its
        handler is answered as an :class:`ErrorResponse` too, so no
        client ever waits forever.
        """
        try:
            message = protocol.decode(line)
        except Exception as exc:  # a ProtocolError, or a fault of decode's own
            self.stats.protocol_errors += 1
            request_id = self._best_effort_id(line)
            if not isinstance(exc, ProtocolError):
                self.flight.record(RequestRecord(
                    id=request_id, outcome=type(exc).__name__, traceback=format_exc(),
                ))
            await self._send(
                writer, write_lock, self._error_response(request_id, exc)
            )
            return
        if isinstance(message, ShutdownRequest):
            await self._send(writer, write_lock, ShutdownResponse(id=message.id))
            await self.drain(reason="shutdown", interrupted=False)
            return
        try:
            if isinstance(message, HelloRequest):
                response = HelloResponse(
                    id=message.id,
                    protocol=protocol.PROTOCOL_VERSION,
                    server=self.config.name,
                    preset=self._preset_payload,
                    options=self._options_payload,
                    admin=self.admin.url if self.admin is not None else None,
                )
            elif isinstance(message, StatsRequest):
                response = StatsResponse(id=message.id, stats=self.stats_snapshot())
            elif isinstance(message, EvaluateRequest):
                response = await self._handle_evaluate(message)
            else:  # a response type sent as a request
                self.stats.protocol_errors += 1
                response = ErrorResponse(
                    id=getattr(message, "id", -1),
                    error="ProtocolError",
                    message=f"unexpected message type {type(message).__name__}",
                )
        except Exception as exc:  # last resort: record the fault, then answer
            request_id = getattr(message, "id", -1)
            self.flight.record(RequestRecord(
                id=request_id, outcome=type(exc).__name__, traceback=format_exc(),
            ))
            response = self._error_response(request_id, exc)
        if isinstance(response, ErrorResponse):
            self.stats.errors += 1
        await self._send(writer, write_lock, response)

    @staticmethod
    def _best_effort_id(line: bytes) -> int:
        """The integer id of an undecodable frame, else -1."""
        try:
            request_id = json.loads(line.decode("utf-8", errors="replace"))["id"]
        except (ValueError, TypeError, KeyError, RecursionError):
            return -1
        valid = isinstance(request_id, int) and not isinstance(request_id, bool)
        return request_id if valid else -1

    @staticmethod
    async def _send(writer, write_lock, message) -> None:
        async with write_lock:
            writer.write(protocol.encode(message))
            try:
                await writer.drain()
            except (ConnectionError, OSError):  # client went away
                pass

    # ------------------------------------------------------------------ #
    # Evaluation path
    # ------------------------------------------------------------------ #

    async def _handle_evaluate(self, msg: EvaluateRequest):
        """Dispatch one evaluate request, filling in its
        :class:`RequestRecord`, then project the record into the
        observability plane (metrics, flight ring, slow log, spans)."""
        self.stats.requests += 1
        context = extract_trace(msg.trace)
        record = RequestRecord(
            id=msg.id, queued_at_arrival=self._queued(),
            start_s=time.perf_counter(),
        )
        response = await self._evaluate_request(msg, record, context)
        wall_s = time.perf_counter() - record.start_s
        self._record_request(msg, response, record, wall_s)
        if (
            context is not None
            and context.sampled
            and not isinstance(response, ErrorResponse)
        ):
            spans = server_span_records(context, record, server=self.config.name)
            response = dataclasses.replace(response, spans=spans_to_wire(spans))
        return response

    async def _evaluate_request(
        self,
        msg: EvaluateRequest,
        record: RequestRecord,
        context: Optional[TraceContext],
    ):
        """The dispatch itself: store -> coalesce -> queue -> kernel."""
        if self._draining:
            return ErrorResponse(
                id=msg.id, error="ServerDraining",
                message="server is draining; not accepting evaluations",
            )
        try:
            accelerator, accel_fp = self._resolve_accelerator(msg.accelerator)
            options, options_fp = self._resolve_options(msg.options)
            mapping = self._parse_mapping(msg)
            mapping_fp = mapping.fingerprint()
        except (ProtocolError, SerdeError, KeyError, ValueError, TypeError) as exc:
            return ErrorResponse(
                id=msg.id, error=type(exc).__name__, message=str(exc)
            )
        record.accel_fp = accel_fp
        record.options_fp = options_fp
        record.mapping_fp = mapping_fp
        store_key = (accel_fp, options_fp, mapping_fp)
        # The store holds reports, not feasibility verdicts: a validated
        # request, like one asking for energy, runs through the engine.
        if not (msg.validate or msg.with_energy):
            hit = self.store.get(store_key)
            if hit is not None:
                report, warm = hit
                if warm:
                    self.stats.warm_hits += 1
                else:
                    self.stats.store_hits += 1
                return EvaluateResponse(
                    id=msg.id,
                    report=protocol.report_to_dict(for_layer(report, mapping.layer)),
                    source="warm" if warm else "store",
                )
        inflight_key = store_key + (msg.validate, msg.with_energy)
        owner = self._inflight.get(inflight_key)
        if owner is not None:
            self.stats.coalesced += 1
            t_wait = time.perf_counter()
            try:
                outcome = await asyncio.shield(owner)
            except BaseException as exc:
                return self._error_response(msg.id, exc)
            record.coalesce_wait_us = (time.perf_counter() - t_wait) * 1e6
            return self._ok_response(msg, outcome, "coalesced", mapping.layer)
        loop = asyncio.get_running_loop()
        future = loop.create_future()
        self._inflight[inflight_key] = future
        item = _WorkItem(
            key=inflight_key,
            accelerator=accelerator,
            options=options,
            mapping=mapping,
            validate=msg.validate,
            with_energy=msg.with_energy,
            future=future,
            label=f"{accel_fp[:8]}/{mapping_fp[:12]}",
            traced=context is not None and context.sampled,
            t_enqueue=time.perf_counter(),
        )
        try:
            await self._queue.put(item)  # backpressure point
        except BaseException:
            self._inflight.pop(inflight_key, None)
            raise
        self._queue_highwater = max(self._queue_highwater, self._queue.qsize())
        try:
            outcome = await asyncio.shield(future)
        except BaseException as exc:
            return self._error_response(msg.id, exc)
        record.evaluated = True
        record.queue_wait_us = item.queue_wait_us
        record.kernel_us = outcome.wall_s * 1e6
        record.kernel_records = outcome.kernel_records
        self.stats.evaluations += 1
        if msg.with_energy:
            self.stats.energy_evaluations += 1
        if not msg.with_energy:
            t_store = time.perf_counter()
            self.store.put(store_key, outcome.report, wall_time_s=outcome.wall_s)
            record.store_write_us = (time.perf_counter() - t_store) * 1e6
        self._run.advance(1, wall_s=outcome.wall_s, worker=_WORKER)
        if self.stats.evaluations % 32 == 0:
            self._run.cache_stats(
                self.stats.warm_hits + self.stats.store_hits, self.stats.evaluations
            )
        return self._ok_response(msg, outcome, "evaluated", mapping.layer)

    def _ok_response(
        self, msg: EvaluateRequest, outcome: _Outcome, source: str, layer: LayerSpec
    ) -> EvaluateResponse:
        """The answer for ``msg``, named for its ``layer``: a coalesced
        outcome may be another request's, for a layer of another name."""
        energy = for_layer(outcome.energy, layer)
        return EvaluateResponse(
            id=msg.id,
            report=protocol.report_to_dict(for_layer(outcome.report, layer)),
            energy=protocol.energy_to_dict(energy) if energy is not None else None,
            source=source,
        )

    @staticmethod
    def _error_response(request_id: int, exc: BaseException) -> ErrorResponse:
        return ErrorResponse(
            id=request_id, error=type(exc).__name__, message=str(exc)
        )

    #: Error kinds a client's payload can legitimately cause; anything
    #: else is a server-side fault and triggers a flight-recorder dump.
    _CLIENT_ERRORS = frozenset({
        "MappingError", "ProtocolError", "SerdeError", "ServerDraining",
        "KeyError", "ValueError", "TypeError",
    })

    def _record_request(
        self, msg: EvaluateRequest, response, record: RequestRecord, wall_s: float
    ) -> None:
        """Stamp the answer on ``record``, then project it into the request
        metrics and the flight ring and, when slow, into the slow log, the
        ledger and the progress stream."""
        failed = isinstance(response, ErrorResponse)
        record.wall_s = wall_s
        record.ts = time.time()
        record.outcome = response.error if failed else response.source
        metrics = self.metrics
        metrics.counter(
            "repro_serve_requests_total", "Evaluate requests received."
        ).inc()
        if failed:
            metrics.counter(
                "repro_serve_request_errors_total",
                "Evaluate requests answered with an error frame.",
                labels={"error": record.outcome},
            ).inc()
        else:
            metrics.counter(
                "repro_serve_responses_total",
                "Evaluate responses by provenance.",
                labels={"source": record.outcome},
            ).inc()
        metrics.histogram(
            "repro_serve_request_seconds", "Server-side evaluate wall time.",
        ).observe(wall_s)
        if record.evaluated:
            metrics.histogram(
                "repro_serve_queue_wait_seconds",
                "Admission-to-kernel-pickup wait.",
            ).observe(record.queue_wait_us / 1e6)
        self.flight.record(record)
        if (
            failed
            and record.outcome not in self._CLIENT_ERRORS
            and self.config.flight_path
            and not self._error_dumped
        ):
            self._error_dumped = True
            self.flight.dump(self.config.flight_path)
        slow_ms = self.config.slow_ms
        if slow_ms is None or failed or wall_s * 1e3 < slow_ms:
            return
        self.stats.slow_requests += 1
        self._slow_log.append(record.slow_entry(slow_ms))
        metrics.counter(
            "repro_serve_slow_requests_total",
            "Requests over the --slow-ms threshold.",
        ).inc()
        ledger = self._telemetry.ledger
        if ledger.enabled:
            ledger.append(record_slow_request(record, slow_ms))
        self._run.heartbeat(
            worker=_WORKER,
            note=(
                f"slow request {record.mapping_fp[:12]} "
                f"{wall_s * 1e3:.0f}ms (> {slow_ms:g}ms)"
            ),
        )

    # -- payload resolution (memoized) ---------------------------------- #

    def _parse_mapping(self, msg: EvaluateRequest) -> Mapping:
        """The request's mapping, reusing the previous request's
        layer and spatial objects (and so their memoized fingerprints)
        when its wire dicts are the same.

        A burst sends one layer and spatial unrolling many times over. The
        memos key on ``repr``, not ``==``: ``{"K": 16}`` equals
        ``{"K": 16.0}`` and ``{"K": True}``, which the strict serde
        refuses, while two JSON values with one ``repr`` are one value.
        The name is part of the dict, so reports keep their own names.
        """
        key = repr(msg.layer)
        if key != self._last_layer[0]:
            self._last_layer = (key, layer_from_dict(msg.layer))
        layer = self._last_layer[1]
        key = repr(msg.mapping.get("spatial"))
        last_key, last_spatial = self._last_spatial
        mapping = mapping_from_dict(
            msg.mapping, layer, last_spatial if key == last_key else None
        )
        self._last_spatial = (key, mapping.spatial)
        return mapping

    def _resolve_accelerator(self, data) -> Tuple[Accelerator, str]:
        if data is None:
            return self._own_accel, self._own_accel_fp
        key = json.dumps(data, sort_keys=True)
        resolved = self._accel_memo.get(key)
        if resolved is None:
            accelerator = accelerator_from_dict(data)
            resolved = (accelerator, accelerator.fingerprint())
            self._accel_memo.put(key, resolved)
        return resolved

    def _resolve_options(self, data) -> Tuple[ModelOptions, str]:
        if data is None:
            return self.config.options, self._own_options_fp
        key = json.dumps(data, sort_keys=True)
        resolved = self._options_memo.get(key)
        if resolved is None:
            options = protocol.options_from_dict(data)
            resolved = (options, stable_fingerprint(options))
            self._options_memo.put(key, resolved)
        return resolved

    # ------------------------------------------------------------------ #
    # The kernel worker
    # ------------------------------------------------------------------ #

    async def _kernel_loop(self) -> None:
        """Drain the queue in batches through the single-thread executor.

        Each pickup takes the awaited item plus whatever is already
        queued (at most ``queue_depth`` items) and hands the batch to the
        kernel thread in one hop. A ``None`` sentinel ends the loop once
        the batch in hand is answered.
        """
        loop = asyncio.get_running_loop()
        while True:
            batch = [await self._queue.get()]
            while batch[-1] is not None and not self._queue.empty():
                batch.append(self._queue.get_nowait())
            stop = batch[-1] is None
            if stop:
                batch.pop()
                if not batch:
                    return
            picked_up = time.perf_counter()
            for item in batch:
                item.queue_wait_us = (picked_up - item.t_enqueue) * 1e6
            # Announce the kernel *before* it runs. The note only lands in
            # the event stream: a recording shows what the kernel was
            # last handed, but nothing watches for a wedged kernel.
            more = f" +{len(batch) - 1}" if len(batch) > 1 else ""
            self._run.heartbeat(
                worker=_WORKER,
                note=f"evaluating {batch[0].label}{more} (kernel)",
            )
            try:
                done = await loop.run_in_executor(
                    self._executor, self._evaluate_batch, batch
                )
            except BaseException as exc:
                done = [(item, exc) for item in batch]
            for item, outcome in done:
                if isinstance(outcome, BaseException):
                    self._finish_item(item, error=outcome)
                else:
                    self._finish_item(item, outcome=outcome)
            if stop:
                return

    def _finish_item(self, item: _WorkItem, outcome=None, error=None) -> None:
        """Resolve an item's future and release its in-flight slot."""
        self._inflight.pop(item.key, None)
        if item.future.done():  # pragma: no cover — only on double drain
            return
        if error is not None:
            item.future.set_exception(error)
        else:
            item.future.set_result(outcome)

    def _evaluate_batch(self, batch: List[_WorkItem]) -> List[Tuple[_WorkItem, Any]]:
        """One pickup, in the kernel thread: each item with its outcome or error.

        Untraced items sharing (machine, options, validate, with_energy)
        run as one ``evaluate_many`` call. Singletons and traced items
        run alone through ``engine.evaluate``, whose full report a
        traced item projects as spans. If a group's call raises, its
        items re-run one at a time, so only the offending request fails.
        ``pre_evaluate_hook`` runs once per item, before that item's
        group.
        """
        groups: Dict[Tuple, List[_WorkItem]] = {}
        for i, item in enumerate(batch):
            key = (i,) if item.traced else (
                item.key[:2] + (item.validate, item.with_energy)
            )
            groups.setdefault(key, []).append(item)
        hook = self.config.pre_evaluate_hook
        done: List[Tuple[_WorkItem, Any]] = []
        for items in groups.values():
            if hook is not None:
                for item in items:
                    hook(item)
            outcomes = None
            if len(items) > 1:
                try:
                    outcomes = self._evaluate_group(items)
                except Exception:
                    pass  # re-run one at a time below
            if outcomes is None:
                outcomes = [self._try_single(item) for item in items]
            done.extend(zip(items, outcomes))
        return done

    def _evaluate_group(self, items: List[_WorkItem]) -> List[Any]:
        """One ``evaluate_many`` call; each lane's ``wall_s`` is its share.

        A ``None`` lane (a ``MappingError``) re-runs alone, so its error
        keeps the exact type and message.
        """
        first = items[0]
        t0 = time.perf_counter()
        evaluations = self._kernel_engine(first).evaluate_many(
            [item.mapping for item in items],
            validate=first.validate,
            with_energy=first.with_energy,
        )
        share = (time.perf_counter() - t0) / len(items)
        return [
            self._try_single(item) if evaluation is None else _Outcome(
                report=evaluation.report, energy=evaluation.energy, wall_s=share
            )
            for item, evaluation in zip(items, evaluations)
        ]

    def _try_single(self, item: _WorkItem) -> Any:
        """:meth:`_evaluate_blocking`, with an error returned, not raised."""
        try:
            return self._evaluate_blocking(item)
        except Exception as exc:
            return exc

    def _evaluate_blocking(self, item: _WorkItem) -> _Outcome:
        """One ``engine.evaluate`` call, in the kernel thread (no ambient context).

        ``run_in_executor`` deliberately does not propagate contextvars,
        so a traced request installs its *own* kernel tracer here: the
        engine's stall-attribution spans land in a fresh record list
        that travels back through the outcome and — remapped — across
        the wire.
        """
        engine = self._kernel_engine(item)
        tracer = Tracer() if item.traced else NULL_TRACER
        t0 = time.perf_counter()
        with use_telemetry(tracer=tracer):
            report = engine.evaluate(item.mapping, validate=item.validate)
            energy = engine.evaluate_energy(item.mapping) if item.with_energy else None
        return _Outcome(
            report=report,
            energy=energy,
            wall_s=time.perf_counter() - t0,
            kernel_records=tuple(tracer.records) if item.traced else (),
        )

    def _kernel_engine(self, item: _WorkItem) -> EvaluationEngine:
        """The engine for the item's (machine, options) pair.

        Engines are created lazily per pair and share the daemon's cache
        plus the server-wide engine stats, so evicting one from the
        bounded table loses no results. Only the kernel thread touches
        the table, so no lock is needed.
        """
        engine = self._engines.get(item.key[:2])
        if engine is None:
            engine = EvaluationEngine(
                item.accelerator,
                item.options,
                cache=self._cache,
                stats=self.engine_stats,
            )
            self._engines.put(item.key[:2], engine)
        return engine

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def stats_snapshot(self) -> Dict[str, float]:
        """Server counters plus engine counters and store occupancy."""
        data = self.stats.snapshot()
        data["store_size"] = float(len(self.store))
        data["warm_rows"] = float(self.store.warm_rows)
        data["inflight"] = float(len(self._inflight))
        data["queued"] = float(self._queued())
        data["queue_highwater"] = float(self._queue_highwater)
        data["uptime_s"] = float(time.time() - self.started_ts) if self.started_ts else 0.0
        for key, value in self.engine_stats.snapshot().items():
            data[f"engine_{key}"] = value
        return data

    def render_metrics(self) -> str:
        """Prometheus text for ``/metrics``: request series + fresh gauges.

        Called from the admin thread per scrape; the counter/histogram
        series accumulate on the request path, the gauges (snapshot
        counters, among them the queue depth ``repro_serve_queued`` and
        ``repro_serve_queue_highwater``) are refreshed here.
        """
        metrics = self.metrics
        metrics.ingest("repro_serve", self.stats_snapshot())
        return metrics.to_prometheus()

    def status_payload(self) -> Dict[str, Any]:
        """The ``/statusz`` JSON: identity, queue, store, slow log."""
        return {
            "server": self.config.name,
            "url": self.url if self._server is not None else "",
            "pid": os.getpid(),
            "uptime_s": time.time() - self.started_ts if self.started_ts else 0.0,
            "accelerator": getattr(self._own_accel, "name", ""),
            "accelerator_fp": self._own_accel_fp[:12],
            "protocol": f"{protocol.PROTOCOL_VERSION}.{protocol.PROTOCOL_MINOR}",
            "draining": self._draining,
            "stats": self.stats_snapshot(),
            "queue": {
                "queued": self._queued(),
                "highwater": self._queue_highwater,
                "engines": len(self._engines),
            },
            "store": {
                "size": len(self.store),
                "warm_rows": self.store.warm_rows,
            },
            "slow_requests": list(self._slow_log),
            "flight": {
                "size": len(self.flight),
                "capacity": self.flight.capacity,
                "dumps": self.flight.dumps,
                "path": self.config.flight_path,
            },
            "campaigns": self._campaign_status(),
        }

    def _campaign_status(self) -> List[Dict[str, Any]]:
        """The last few campaign rows in the daemon's ledger.

        Lets an operator see which search campaigns fed (or are feeding)
        this daemon's store straight from ``/statusz``. Live campaign
        gauges (``repro_campaign_*``) are in the ``--metrics`` output of
        the flow that ran the campaign, not on this daemon's ``/metrics``.
        """
        ledger = self._telemetry.ledger
        if not ledger.enabled:
            return []
        from repro.observability.campaign import campaign_records

        out = []
        for row in campaign_records(ledger.records())[-5:]:
            extra = row.extra
            out.append({
                "name": row.label,
                "partial": bool(extra.get("partial")),
                "best_objective": extra.get("best_objective"),
                "enumerated": extra.get("enumerated", 0),
                "scored": extra.get("scored", 0),
                "git_sha": row.git_sha,
            })
        return out

    def dump_flight(self, path: Optional[str] = None) -> int:
        """Dump the flight ring (SIGQUIT handler / admin hook); record count."""
        target = path or self.config.flight_path or "serve-flight.jsonl"
        return self.flight.dump(target)


__all__ = [
    "EvaluationServer",
    "ServerConfig",
    "ServerDraining",
    "ServerStats",
]
