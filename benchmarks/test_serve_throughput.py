"""Evaluation-service benchmarks: throughput, coalescing, warm start.

Three claims from the PR 7 service design are measured against a live
daemon on an ephemeral port:

1. **Throughput**: the wire adds overhead, but a pipelined
   ``evaluate_many`` burst amortizes it — per-evaluation cost over the
   socket stays within an order of magnitude of in-process.
2. **Coalescing**: N clients asking for the same fingerprint while it is
   in flight cost one kernel run, not N.
3. **Warm start**: a daemon restarted over the previous run's ledger
   answers the whole corpus from the persistent store — zero
   re-evaluations. The hit counts land in ``BENCH_serve.json``.
"""

import asyncio
import threading
import time

from conftest import emit_bench_artifact, full_mode

from repro.engine import EvaluationEngine
from repro.hardware.presets import case_study_accelerator
from repro.mapping.mapping import MappingError
from repro.observability.ledger import RunLedger
from repro.observability.telemetry import use_telemetry
from repro.serve import EvaluationServer, ServerConfig, connect
from repro.verify.generators import sample_cases


class _ServerThread:
    def __init__(self, **overrides):
        overrides.setdefault("preset", case_study_accelerator())
        self.server = EvaluationServer(ServerConfig(**overrides))
        self.thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        asyncio.run(self.server.run(install_signal_handlers=False))

    def __enter__(self):
        self.thread.start()
        deadline = time.time() + 10
        while not self.server.started_ts:
            if time.time() > deadline:  # pragma: no cover
                raise RuntimeError("server did not start")
            time.sleep(0.01)
        return self

    def __exit__(self, *exc):
        try:
            client = connect(self.server.url)
            client.shutdown()
            client.close()
        except Exception:
            asyncio.run_coroutine_threadsafe(
                self.server.drain(), self.server.loop
            )
        self.thread.join(timeout=10)


def _feasible_corpus(count):
    """(accelerator, mapping) pairs that evaluate cleanly, grouped by fp."""
    corpus = []
    for case in sample_cases(seed=23, count=count * 2):
        engine = EvaluationEngine(case.accelerator)
        try:
            engine.evaluate(case.mapping)
        except MappingError:
            continue
        corpus.append(case)
        if len(corpus) == count:
            break
    return corpus


def test_serve_throughput_coalescing_and_warm_start(tmp_path, capsys):
    n_cases = 48 if full_mode() else 16
    corpus = _feasible_corpus(n_cases)
    by_accel = {}
    for case in corpus:
        by_accel.setdefault(case.accelerator.fingerprint(), []).append(case)

    # ---- in-process reference timing (cold engine per accelerator) ----
    t0 = time.perf_counter()
    for fp, group in by_accel.items():
        engine = EvaluationEngine(group[0].accelerator)
        for case in group:
            engine.evaluate(case.mapping)
    local_s = time.perf_counter() - t0

    ledger_path = str(tmp_path / "serve_bench.sqlite")

    # ---- cold remote pass: pipelined bursts per accelerator ----
    with use_telemetry(ledger=RunLedger(ledger_path)):
        server_thread = _ServerThread()
    with server_thread as handle:
        client = connect(handle.server.url)
        t0 = time.perf_counter()
        for fp, group in by_accel.items():
            eng = client.derive(accelerator=group[0].accelerator)
            results = eng.evaluate_many([c.mapping for c in group])
            assert all(r is not None for r in results)
        remote_s = time.perf_counter() - t0

        # ---- coalescing: hold the kernel, fire duplicates ----
        gate = threading.Event()
        handle.server.config.pre_evaluate_hook = lambda item: gate.wait(30)
        dup = corpus[0]
        dup_clients = []

        def _dup():
            c = connect(handle.server.url)
            c.derive(accelerator=dup.accelerator).evaluate(dup.mapping)
            c.close()

        # The cold pass already stored this fingerprint; wipe the store
        # entry so the duplicates actually reach the shards.
        handle.server.store._index.clear()
        threads = [threading.Thread(target=_dup) for _ in range(6)]
        for t in threads:
            t.start()
            dup_clients.append(t)
        deadline = time.time() + 30
        while time.time() < deadline:
            if client.server_stats()["coalesced"] >= 5:
                break
            time.sleep(0.02)
        gate.set()
        for t in threads:
            t.join(timeout=30)
        cold_stats = client.server_stats()
        client.close()

    coalesced = cold_stats["coalesced"]
    cold_evals = cold_stats["evaluations"]
    assert coalesced >= 5, "duplicates must coalesce onto one flight"

    # ---- warm restart over the ledger the first daemon wrote ----
    with _ServerThread(warm_start=(ledger_path,)) as handle:
        client = connect(handle.server.url)
        t0 = time.perf_counter()
        for fp, group in by_accel.items():
            eng = client.derive(accelerator=group[0].accelerator)
            results = eng.evaluate_many([c.mapping for c in group])
            assert all(r is not None for r in results)
        warm_s = time.perf_counter() - t0
        warm_stats = client.server_stats()
        client.close()

    assert warm_stats["evaluations"] == 0, "warm corpus must not re-evaluate"
    assert warm_stats["warm_hits"] == len(corpus)

    payload = {
        "cases": len(corpus),
        "accelerators": len(by_accel),
        "local_s": round(local_s, 4),
        "remote_cold_s": round(remote_s, 4),
        "remote_warm_s": round(warm_s, 4),
        "remote_overhead_x": round(remote_s / max(local_s, 1e-9), 2),
        "warm_speedup_x": round(remote_s / max(warm_s, 1e-9), 2),
        "cold_evaluations": cold_evals,
        "coalesced": coalesced,
        "warm_hits": warm_stats["warm_hits"],
        "warm_evaluations": warm_stats["evaluations"],
        "warm_rows": warm_stats["warm_rows"],
    }
    out = emit_bench_artifact("serve", payload)
    with capsys.disabled():
        print(f"\n[serve] {len(corpus)} cases / {len(by_accel)} machines")
        print(f"[serve] local {local_s:.3f}s  cold-remote {remote_s:.3f}s "
              f"({payload['remote_overhead_x']}x)  warm {warm_s:.3f}s "
              f"({payload['warm_speedup_x']}x vs cold)")
        print(f"[serve] coalesced {coalesced} duplicates; "
              f"warm hits {warm_stats['warm_hits']}/{len(corpus)}; "
              f"artifact {out}")
