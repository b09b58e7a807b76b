"""Run the evaluation daemon for the served-round-trip workload.

Usage: ``python3 perfbench/daemon.py --trace 0|1`` with the repository's
``src`` on ``PYTHONPATH``. Serves the case-study machine on an ephemeral
localhost port with the server's default configuration, prints
``url <engine-url>`` once listening, and exits after a client sends a
shutdown frame. With ``--trace 1`` the daemon's layers are timed (see
``layers.py``) and their totals are printed as one JSON line at exit,
with the number of evaluate requests they cover (``served``).
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from layers import LayerClock, instrument_kernel, instrument_server  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    from repro.hardware.presets import case_study_accelerator
    from repro.serve import EvaluationServer, ServerConfig

    clock = LayerClock()
    if args.trace:
        instrument_kernel(clock)
        instrument_server(clock)
    server = EvaluationServer(ServerConfig(preset=case_study_accelerator()))

    def ready(url: str) -> None:
        print(f"url {url}", flush=True)

    asyncio.run(server.run(install_signal_handlers=False, on_ready=ready))
    if args.trace:
        seconds, counts = clock.totals()
        print(json.dumps({"seconds": seconds, "counts": counts}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
