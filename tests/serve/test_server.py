"""Integration tests against a live daemon on an ephemeral socket.

The acceptance surface of the service PR: remote evaluation is
bit-for-bit identical to the in-process engine on generated verify
cases; concurrent duplicate requests run the kernel exactly once
(coalescing); a restarted daemon answers from a prior ledger without
re-evaluating (warm start); and a drain fails queued work cleanly while
recording a ``kind="interrupted"`` ledger row. A full queue holds
intake back, and the daemon's memos and engine table stay bounded.
"""

import asyncio
import json
import threading
import time

import pytest

from repro.core.step1 import ModelOptions
from repro.dse.mapper import TemporalMapper
from repro.engine import EvaluationEngine
from repro.hardware.presets import case_study_accelerator
from repro.mapping.mapping import MappingError
from repro.observability.ledger import RunLedger, load_snapshot
from repro.serve import (
    EvaluationServer,
    RemoteEvaluationError,
    ServerConfig,
    connect,
)
from repro.serve.protocol import options_to_dict
from repro.verify.generators import sample_cases
from repro.workload.generator import dense_layer

PARITY_FIELDS = (
    "cc_ideal", "cc_spatial", "ss_overall", "preload", "offload",
    "scenario", "total_cycles", "utilization",
)


def _assert_parity(local, remote, context=""):
    for field in PARITY_FIELDS:
        a, b = getattr(local, field), getattr(remote, field)
        assert a == b, f"{context}{field}: local {a!r} != remote {b!r}"


# --------------------------------------------------------------------- #
# Parity
# --------------------------------------------------------------------- #

def test_remote_parity_on_generated_cases(server):
    """Every feasible verify case evaluates bit-identically via the wire."""
    local_root = EvaluationEngine.from_preset(case_study_accelerator())
    client = connect(server.url)
    checked = 0
    for case in sample_cases(seed=11, count=8):
        local = local_root.derive(accelerator=case.accelerator)
        remote = client.derive(accelerator=case.accelerator)
        try:
            want = local.evaluate(case.mapping)
        except MappingError:
            with pytest.raises(MappingError):
                remote.evaluate(case.mapping)
            continue
        got = remote.evaluate(case.mapping)
        _assert_parity(want, got, context=f"{case.case_id} ")
        checked += 1
    assert checked >= 3  # the generator yields mostly feasible cases
    client.close()


def test_remote_energy_parity(server):
    local_root = EvaluationEngine.from_preset(case_study_accelerator())
    client = connect(server.url)
    for case in sample_cases(seed=11, count=4):
        local = local_root.derive(accelerator=case.accelerator)
        remote = client.derive(accelerator=case.accelerator)
        try:
            want = local.evaluate_energy(case.mapping)
        except MappingError:
            continue
        got = remote.evaluate_energy(case.mapping)
        assert got.mac_pj == want.mac_pj
        assert got.memory_pj == want.memory_pj
        assert got.total_pj == want.total_pj
        break
    client.close()


def test_batch_parity_and_infeasible_none_slots(server):
    """evaluate_many over the wire matches the in-process batch contract."""
    cases = list(sample_cases(seed=11, count=8))
    # All cases share the generator's accelerator-from-seed, so group by fp.
    by_accel = {}
    for case in cases:
        by_accel.setdefault(case.accelerator.fingerprint(), []).append(case)
    fp, group = max(by_accel.items(), key=lambda kv: len(kv[1]))
    accelerator = group[0].accelerator
    mappings = [case.mapping for case in group]
    local = EvaluationEngine(accelerator)
    client = connect(server.url)
    remote = client.derive(accelerator=accelerator)
    want = local.evaluate_many(mappings, validate=True)
    got = remote.evaluate_many(mappings, validate=True)
    assert len(got) == len(want)
    for w, g in zip(want, got):
        if w is None:
            assert g is None
        else:
            assert g is not None
            _assert_parity(w.report, g.report)
    client.close()


# --------------------------------------------------------------------- #
# Coalescing
# --------------------------------------------------------------------- #

def test_concurrent_duplicates_evaluate_exactly_once(make_server):
    """N identical in-flight requests -> 1 kernel run, N-1 coalesced."""
    gate = threading.Event()
    kernel_runs = []

    def hook(item):
        kernel_runs.append(item.key)
        assert gate.wait(timeout=30)

    handle = make_server(pre_evaluate_hook=hook)
    case = next(iter(sample_cases(seed=11, count=1)))
    results, errors = [], []

    def one_client():
        try:
            client = connect(handle.url)
            report = client.derive(accelerator=case.accelerator).evaluate(
                case.mapping
            )
            results.append(report)
            client.close()
        except Exception as exc:  # pragma: no cover
            errors.append(exc)

    threads = [threading.Thread(target=one_client) for _ in range(4)]
    for t in threads:
        t.start()
    probe = connect(handle.url)
    deadline = time.time() + 30
    while time.time() < deadline:
        if probe.server_stats()["coalesced"] >= 3:
            break
        time.sleep(0.02)
    gate.set()
    for t in threads:
        t.join(timeout=30)
    stats = probe.server_stats()
    probe.close()
    assert not errors
    assert len(kernel_runs) == 1, "kernel must run exactly once"
    assert stats["evaluations"] == 1
    assert stats["coalesced"] == 3
    assert len(results) == 4
    first = results[0]
    for report in results[1:]:
        _assert_parity(first, report)


# --------------------------------------------------------------------- #
# Backpressure
# --------------------------------------------------------------------- #

def test_full_queue_suspends_intake_until_the_kernel_frees_it(make_server):
    """queue_depth=1 with the kernel held: one request runs, one waits in
    the queue, the third is held back at admission; all three are then
    answered correctly."""
    gate = threading.Event()
    started = threading.Event()

    def hook(item):
        started.set()
        assert gate.wait(timeout=30)

    handle = make_server(queue_depth=1, pre_evaluate_hook=hook)
    local_root = EvaluationEngine.from_preset(case_study_accelerator())
    cases, wants = [], []
    for case in sample_cases(seed=11, count=12):
        try:
            wants.append(
                local_root.derive(accelerator=case.accelerator).evaluate(
                    case.mapping
                )
            )
        except MappingError:
            continue
        cases.append(case)
        if len(cases) == 3:
            break
    assert len(cases) == 3
    results = {}

    def one_client(index):
        client = connect(handle.url)
        results[index] = client.derive(
            accelerator=cases[index].accelerator
        ).evaluate(cases[index].mapping)
        client.close()

    threads = [threading.Thread(target=one_client, args=(0,))]
    threads[0].start()
    assert started.wait(timeout=30)
    threads += [threading.Thread(target=one_client, args=(i,)) for i in (1, 2)]
    for t in threads[1:]:
        t.start()
    probe = connect(handle.url)
    deadline = time.time() + 30
    queued = []
    while time.time() < deadline:
        stats = probe.server_stats()
        queued.append(stats["queued"])
        if stats["inflight"] >= 3:
            break
        time.sleep(0.02)
    stats = probe.server_stats()
    assert stats["inflight"] == 3 and stats["queued"] == 1
    gate.set()
    for t in threads:
        t.join(timeout=30)
    final = probe.server_stats()
    probe.close()
    assert max(queued + [final["queued"]]) <= 1
    assert final["queue_highwater"] == 1
    assert final["evaluations"] == 3 and not final["errors"]
    for index, want in enumerate(wants):
        _assert_parity(want, results[index], context=f"request {index} ")


def test_server_builds_no_loop_bound_object_before_start():
    """The server is built outside the loop that serves it (the CLI and the
    test fixture both call ``asyncio.run`` later); on Python 3.9 an
    ``asyncio.Queue`` binds the current loop when it is built, so the queue
    must be made in ``start()``."""
    server = EvaluationServer(ServerConfig(preset=case_study_accelerator()))
    loop_bound = (asyncio.Queue, asyncio.Event, asyncio.Future)
    assert not [k for k, v in vars(server).items() if isinstance(v, loop_bound)]
    assert server.stats_snapshot()["queued"] == 0.0
    assert server.status_payload()["queue"]["queued"] == 0


# --------------------------------------------------------------------- #
# Bounded tables
# --------------------------------------------------------------------- #

def test_options_memo_evicts_the_least_recently_used_payload():
    server = EvaluationServer(ServerConfig(preset=case_study_accelerator()))
    server._options_memo.maxsize = 2
    a, b, c = (
        options_to_dict(ModelOptions(**kwargs))
        for kwargs in ({}, {"combine_rule": "paper"}, {"served_rule": "paper"})
    )
    first_a = server._resolve_options(a)[0]
    first_b = server._resolve_options(b)[0]
    assert server._resolve_options(a)[0] is first_a  # a hit refreshes a
    server._resolve_options(c)                       # ... so b is evicted
    assert server._resolve_options(a)[0] is first_a
    assert server._resolve_options(b)[0] is not first_b


def test_architecture_sweep_keeps_the_engine_table_bounded(make_server):
    """130 machines through one daemon: at most 128 engines are kept, and
    a machine whose engine was evicted still evaluates correctly."""
    handle = make_server()
    preset = case_study_accelerator()
    mapping = TemporalMapper(
        preset.accelerator, preset.spatial_unrolling
    ).best_mapping(dense_layer(8, 16, 32)).mapping
    machines = [
        case_study_accelerator(gb_read_bw=64.0 + i).accelerator
        for i in range(130)
    ]
    client = connect(handle.url, use_cache=False)
    for machine in machines:
        client.derive(accelerator=machine).evaluate(mapping)
    assert handle.server.status_payload()["queue"]["engines"] == 128
    # Energy requests skip the store, so this one reaches the kernel with
    # the first machine, whose engine the sweep evicted.
    got = client.derive(accelerator=machines[0]).evaluate_energy(mapping)
    client.close()
    want = EvaluationEngine(machines[0]).evaluate_energy(mapping)
    assert got.total_pj == want.total_pj


# --------------------------------------------------------------------- #
# Warm start
# --------------------------------------------------------------------- #

def test_restarted_daemon_answers_from_prior_ledger(make_server, tmp_path):
    ledger_path = str(tmp_path / "serve.sqlite")
    first = make_server(ledger=RunLedger(ledger_path))
    client = connect(first.url)
    evaluated = []
    for case in sample_cases(seed=11, count=6):
        try:
            client.derive(accelerator=case.accelerator).evaluate(case.mapping)
            evaluated.append(case)
        except MappingError:
            pass
    assert evaluated
    client.close()
    first.stop()

    second = make_server(warm_start=(ledger_path,))
    assert second.server.store.warm_rows == len(evaluated)
    client = connect(second.url)
    local_root = EvaluationEngine.from_preset(case_study_accelerator())
    for case in evaluated:
        got = client.derive(accelerator=case.accelerator).evaluate(case.mapping)
        want = local_root.derive(accelerator=case.accelerator).evaluate(
            case.mapping
        )
        _assert_parity(want, got, context=f"warm {case.case_id} ")
    stats = client.server_stats()
    client.close()
    assert stats["warm_hits"] == len(evaluated)
    assert stats["evaluations"] == 0, "warm answers must not re-evaluate"


# --------------------------------------------------------------------- #
# Drain
# --------------------------------------------------------------------- #

def test_drain_fails_queued_work_cleanly_and_ledgers_interruption(
    make_server, tmp_path
):
    """An interrupt-style drain: in-flight finishes, queued gets a clean
    error, new requests are refused, one kind="interrupted" row lands."""
    gate = threading.Event()
    started = threading.Event()

    def hook(item):
        started.set()
        assert gate.wait(timeout=30)

    ledger_path = str(tmp_path / "serve.sqlite")
    handle = make_server(
        pre_evaluate_hook=hook, ledger=RunLedger(ledger_path)
    )
    cases = [
        case for case in sample_cases(seed=11, count=6)
    ]
    holder_result, queued_errors = [], []

    def holder():
        client = connect(handle.url)
        holder_result.append(
            client.derive(accelerator=cases[0].accelerator).evaluate(
                cases[0].mapping
            )
        )
        client.close()

    def queued(case):
        client = connect(handle.url)
        try:
            client.derive(accelerator=case.accelerator).evaluate(case.mapping)
        except RemoteEvaluationError as exc:
            queued_errors.append(exc)
        finally:
            client.close()

    t_holder = threading.Thread(target=holder)
    t_holder.start()
    assert started.wait(timeout=30)
    # These sit behind the held evaluation in the queue.
    t_queued = [threading.Thread(target=queued, args=(c,)) for c in cases[1:3]]
    for t in t_queued:
        t.start()
    probe = connect(handle.url)
    deadline = time.time() + 30
    while time.time() < deadline:
        if probe.server_stats()["inflight"] >= 3:
            break
        time.sleep(0.02)

    drain = asyncio.run_coroutine_threadsafe(
        handle.server.drain(reason="SIGINT"), handle.server.loop
    )
    # Queued requests fail immediately; the held one must still finish.
    for t in t_queued:
        t.join(timeout=30)
    assert len(queued_errors) == 2
    assert all(e.kind == "ServerDraining" for e in queued_errors)
    gate.set()
    t_holder.join(timeout=30)
    assert holder_result, "in-flight evaluation must complete through a drain"
    drain.result(timeout=30)
    handle.thread.join(timeout=30)
    assert handle.interrupted is True

    rows = load_snapshot(ledger_path)
    interrupted = [r for r in rows if r.kind == "interrupted"]
    assert len(interrupted) == 1
    assert interrupted[0].label == "serve"
    assert interrupted[0].accelerator == "SIGINT"  # the interruption reason


def test_requests_after_drain_are_refused(make_server):
    handle = make_server()
    # No client-side cache: the repeat request must actually hit the wire.
    client = connect(handle.url, use_cache=False)
    case = next(iter(sample_cases(seed=11, count=1)))
    client.derive(accelerator=case.accelerator).evaluate(case.mapping)
    asyncio.run_coroutine_threadsafe(
        handle.server.drain(reason="test", interrupted=False),
        handle.server.loop,
    ).result(timeout=30)
    with pytest.raises((RemoteEvaluationError, Exception)):
        client.derive(accelerator=case.accelerator).evaluate(case.mapping)
    client.close()


# --------------------------------------------------------------------- #
# Unix sockets & health plane
# --------------------------------------------------------------------- #

def test_unix_socket_transport(make_server, tmp_path):
    handle = make_server(socket_path=str(tmp_path / "repro.sock"))
    assert handle.url.startswith("unix://")
    client = connect(handle.url)
    case = next(iter(sample_cases(seed=11, count=1)))
    local = EvaluationEngine(case.accelerator)
    got = client.derive(accelerator=case.accelerator).evaluate(case.mapping)
    _assert_parity(local.evaluate(case.mapping), got)
    client.close()


def test_health_plane_emits_a_serve_run(make_server, tmp_path):
    from repro.observability import JsonlSink, ProgressEmitter

    events_path = tmp_path / "events.jsonl"
    emitter = ProgressEmitter()
    emitter.subscribe(JsonlSink(str(events_path)))
    handle = make_server(emitter=emitter)
    client = connect(handle.url)
    case = next(iter(sample_cases(seed=11, count=1)))
    client.derive(accelerator=case.accelerator).evaluate(case.mapping)
    client.shutdown()
    client.close()
    handle.thread.join(timeout=30)
    emitter.close()
    lines = [line for line in events_path.read_text().splitlines() if line]
    events = [json.loads(line) for line in lines]
    started = [e for e in events if e["type"] == "RunStarted"]
    assert started and started[0]["flow"] == "serve"
    assert any(e["type"] == "RunFinished" for e in events)
