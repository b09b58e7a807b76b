"""Shared fixtures for the evaluation-service suite.

``server_thread`` boots a real :class:`~repro.serve.EvaluationServer`
on an ephemeral TCP port inside a daemon thread running its own asyncio
loop — exactly the deployment shape, minus the process boundary — and
tears it down through the protocol's own shutdown path.
"""

from __future__ import annotations

import asyncio
import threading
import time
from typing import Optional

import pytest

from repro.hardware.presets import case_study_accelerator
from repro.serve import EvaluationServer, ServerConfig, connect


class ServerThread:
    """A live daemon plus the thread running it."""

    def __init__(self, config: ServerConfig) -> None:
        self.server = EvaluationServer(config)
        self.interrupted: Optional[bool] = None
        self.thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        self.interrupted = asyncio.run(
            self.server.run(install_signal_handlers=False)
        )

    def start(self) -> "ServerThread":
        self.thread.start()
        deadline = time.time() + 10
        while not self.server.started_ts:
            if time.time() > deadline:  # pragma: no cover
                raise RuntimeError("server did not start within 10s")
            time.sleep(0.01)
        return self

    @property
    def url(self) -> str:
        return self.server.url

    def stop(self) -> None:
        if not self.thread.is_alive():
            return
        try:
            client = connect(self.url)
            client.shutdown()
            client.close()
        except Exception:  # already draining — drive it from the loop
            asyncio.run_coroutine_threadsafe(
                self.server.drain(), self.server.loop
            )
        self.thread.join(timeout=10)


@pytest.fixture
def make_server():
    """Factory fixture: boot daemons with custom configs, always torn down."""
    started = []

    def _make(**overrides) -> ServerThread:
        overrides.setdefault("preset", case_study_accelerator())
        handle = ServerThread(ServerConfig(**overrides)).start()
        started.append(handle)
        return handle

    yield _make
    for handle in started:
        handle.stop()


@pytest.fixture
def server(make_server) -> ServerThread:
    """One default daemon (case-study preset, ephemeral port)."""
    return make_server()
