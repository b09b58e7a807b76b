"""The daemon's HTTP admin surface: ``/metrics``, ``/healthz``,
``/readyz``, ``/statusz`` — stdlib ``http.server`` in one thread.

``repro-latency serve --admin-port N`` (0 = ephemeral) binds a tiny
HTTP listener next to the protocol socket so the daemon is observable
from the outside with nothing but ``curl`` or a Prometheus scraper:

* ``GET /metrics`` — Prometheus text (version 0.0.4) from the server's
  :class:`~repro.observability.metrics.MetricsRegistry`:
  ``repro_serve_request_seconds`` / ``repro_serve_queue_wait_seconds``
  histograms, provenance-labeled response counters, queue depth and
  high-water gauges, plus every ``stats_snapshot()`` counter as a
  ``repro_serve_*`` gauge refreshed at scrape time.
* ``GET /healthz`` — liveness: 200 ``ok`` while serving, 503
  ``draining`` once a drain started.
* ``GET /readyz`` — readiness: identical today (the daemon binds its
  socket only after the kernel worker is up), split out so a load balancer
  can distinguish the two when warm-up phases appear.
* ``GET /statusz`` — one JSON document: identity, uptime, protocol
  revision, kernel queue (queued / high-water / engines), store
  occupancy, the last-N slow requests, and flight-recorder state.
  ``/statusz?dump=1`` returns the flight ring itself as JSONL and
  writes the same snapshot to the configured ``--flight-out`` path, if
  any.

The handler only reads counters and GIL-atomic containers, so it never
touches the asyncio loop — a scrape can't slow a kernel down, and a
wedged event loop doesn't take the diagnostics surface with it (that is
the point: ``/statusz`` must work exactly when the daemon doesn't).
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

__all__ = ["AdminServer"]

#: Content type of the Prometheus text exposition format.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


class AdminServer:
    """The admin listener: a daemon-thread ``ThreadingHTTPServer``.

    Constructed (and closed) by the
    :class:`~repro.serve.server.EvaluationServer` when ``admin_port``
    is configured; ``port=0`` binds an ephemeral port, reported by
    :attr:`url` and in the ready file / hello response.
    """

    def __init__(self, server, host: str = "127.0.0.1", port: int = 0) -> None:
        self.server = server
        handler = _make_handler(server)
        self._httpd = ThreadingHTTPServer((host, port), handler)
        self._httpd.daemon_threads = True
        self.host = self._httpd.server_address[0]
        self.port = self._httpd.server_address[1]
        self._thread: threading.Thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-serve-admin",
            daemon=True,
        )

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> None:
        self._thread.start()

    def close(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        self._thread.join(timeout=5.0)


def _make_handler(server):
    """Build the request-handler class closed over one evaluation server."""

    class AdminHandler(BaseHTTPRequestHandler):
        # One admin surface per daemon; tie the HTTP server name to it.
        server_version = "repro-serve-admin"

        def log_message(self, format, *args):  # noqa: A002 - stdlib signature
            pass  # the daemon's own telemetry is the log

        def do_GET(self):  # noqa: N802 - stdlib casing
            parsed = urlparse(self.path)
            route = parsed.path.rstrip("/") or "/"
            if route == "/metrics":
                self._reply(
                    200, server.render_metrics(), PROMETHEUS_CONTENT_TYPE
                )
            elif route == "/healthz":
                if server._draining:
                    self._reply(503, "draining\n", "text/plain")
                else:
                    self._reply(200, "ok\n", "text/plain")
            elif route == "/readyz":
                ready = server.started_ts > 0 and not server._draining
                self._reply(
                    200 if ready else 503,
                    "ready\n" if ready else "not ready\n",
                    "text/plain",
                )
            elif route == "/statusz":
                query = parse_qs(parsed.query)
                if query.get("dump", ["0"])[0] not in ("", "0", "false"):
                    body = server.flight.to_jsonl()
                    if server.config.flight_path:
                        server.flight.dump(server.config.flight_path, body)
                    self._reply(200, body, "application/jsonl")
                else:
                    self._reply(
                        200,
                        json.dumps(server.status_payload(), indent=2,
                                   sort_keys=True, default=str) + "\n",
                        "application/json",
                    )
            else:
                self._reply(404, "not found\n", "text/plain")

        def _reply(self, status: int, body: str, content_type: str) -> None:
            payload = body.encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(payload)))
            self.end_headers()
            try:
                self.wfile.write(payload)
            except (ConnectionError, BrokenPipeError):  # scraper went away
                pass

    return AdminHandler
