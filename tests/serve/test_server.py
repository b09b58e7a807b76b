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

from repro.core.model import LatencyModel
from repro.core.step1 import ModelOptions
from repro.dse.mapper import MapperConfig, TemporalMapper
from repro.engine import EvaluationEngine
from repro.hardware.presets import KB, build_accelerator, case_study_accelerator
from repro.mapping.mapping import MappingError
from repro.observability.ledger import RunLedger, load_snapshot
from repro.observability.span import span_tree
from repro.observability.telemetry import use_telemetry
from repro.observability.tracer import Tracer
from repro.serve import (
    EvaluationServer,
    RemoteEvaluationError,
    ServerConfig,
    connect,
)
from repro.serve.protocol import (
    ErrorResponse,
    EvaluateResponse,
    options_to_dict,
    report_from_dict,
)
from repro.serve.server import _WorkItem
from repro.verify.generators import sample_cases
from repro.workload.generator import dense_layer
from tests.conftest import infeasible_mapping

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
    client = connect(handle.url)
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
    with use_telemetry(ledger=RunLedger(ledger_path)):
        first = make_server()
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
    with use_telemetry(ledger=RunLedger(ledger_path)):
        handle = make_server(pre_evaluate_hook=hook)
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
    client = connect(handle.url)
    case = next(iter(sample_cases(seed=11, count=1)))
    client.derive(accelerator=case.accelerator).evaluate(case.mapping)
    # Empty the client cache: the repeat request must actually hit the wire.
    client.cache.clear()
    asyncio.run_coroutine_threadsafe(
        handle.server.drain(reason="test", interrupted=False),
        handle.server.loop,
    ).result(timeout=30)
    with pytest.raises((RemoteEvaluationError, Exception)):
        client.derive(accelerator=case.accelerator).evaluate(case.mapping)
    client.close()


# --------------------------------------------------------------------- #
# Batched kernel
# --------------------------------------------------------------------- #

def _mapper_mappings(preset, layer, count):
    """The first ``count`` distinct mappings the mapper emits for ``layer``."""
    mapper = TemporalMapper(
        preset.accelerator, preset.spatial_unrolling,
        MapperConfig(max_enumerated=count, samples=0),
    )
    mappings = list(mapper.mappings(layer))[:count]
    assert len(mappings) == count
    return mappings


def _holding_hook(*holds):
    """A pre_evaluate_hook whose k-th call sets ``holds[k][0]`` and then
    waits for ``holds[k][1]``; every later call passes straight through."""
    calls = []

    def hook(item):
        calls.append(item)
        if len(calls) <= len(holds):
            entered, release = holds[len(calls) - 1]
            entered.set()
            assert release.wait(timeout=30)

    return hook, calls


def _wait_for(probe, field, at_least):
    deadline = time.time() + 30
    while time.time() < deadline:
        if probe.server_stats()[field] >= at_least:
            return
        time.sleep(0.02)
    raise AssertionError(f"{field} never reached {at_least}")


def test_a_queued_burst_runs_as_one_batch(make_server):
    """N requests queued behind a held kernel run as one evaluate_many
    call, bit-identical to in-process; a traced request picked up with
    them stays on the scalar path and still ships its kernel spans."""
    held, release = threading.Event(), threading.Event()
    hook, calls = _holding_hook((held, release))
    handle = make_server(pre_evaluate_hook=hook)
    preset = case_study_accelerator()
    n = 8
    first, *burst = _mapper_mappings(preset, dense_layer(64, 128, 1200), n + 1)
    traced_mapping = _mapper_mappings(preset, dense_layer(32, 64, 600), 1)[0]
    results, tracers = {}, []

    def run_first():
        with connect(handle.url) as client:
            results["first"] = client.evaluate(first)

    def run_burst():
        with connect(handle.url) as client:
            results["burst"] = client.evaluate_many(burst)

    def run_traced():
        tracer = Tracer()
        with use_telemetry(tracer=tracer), connect(handle.url) as client:
            results["traced"] = client.evaluate(traced_mapping)
        tracers.append(tracer)

    threads = [threading.Thread(target=run_first)]
    threads[0].start()
    assert held.wait(timeout=30)
    threads += [threading.Thread(target=run_burst),
                threading.Thread(target=run_traced)]
    for t in threads[1:]:
        t.start()
    probe = connect(handle.url)
    _wait_for(probe, "queued", n + 1)
    release.set()
    for t in threads:
        t.join(timeout=30)
    assert not any(t.is_alive() for t in threads)
    stats = probe.server_stats()
    probe.close()

    assert len(calls) == n + 2, "the hook runs once per item"
    assert stats["evaluations"] == n + 2 and not stats["errors"]
    assert stats["engine_batches"] == 1
    assert stats["engine_batched_evaluations"] >= n
    local = EvaluationEngine(preset.accelerator)
    _assert_parity(local.evaluate(first), results["first"])
    assert len(results["burst"]) == n
    for mapping, got in zip(burst, results["burst"]):
        _assert_parity(local.evaluate(mapping), got.report)
    _assert_parity(local.evaluate(traced_mapping), results["traced"])
    roots = span_tree(tracers[0].records)
    assert [r.name for r in roots] == ["remote.evaluate"]
    kernel = roots[0].find("serve.kernel")
    assert len(kernel) == 1
    assert kernel[0].find("engine.evaluate") and kernel[0].find("model.evaluate")


def test_infeasible_lanes_of_a_batch_keep_their_mapping_error(make_server):
    """A validate=True burst mixing feasible and infeasible mappings runs
    through one daemon batch; each infeasible lane's error frame carries
    the exact MappingError the in-process check raises."""
    held, release = threading.Event(), threading.Event()
    hook, __ = _holding_hook((held, release))
    handle = make_server(pre_evaluate_hook=hook)
    layer = dense_layer(64, 128, 1200)
    small = build_accelerator(
        "small-lb", macs_k=16, macs_b=8, macs_c=2,
        w_lb_bits=4 * KB, i_lb_bits=2 * KB,
    )
    model = LatencyModel(small.accelerator)
    feasible = _mapper_mappings(small, layer, 4)
    infeasible, expected = [], []
    for mapping in _mapper_mappings(case_study_accelerator(), layer, 16):
        try:
            model.check(mapping)
        except MappingError as exc:
            infeasible.append(mapping)
            expected.append(str(exc))
    infeasible, expected = infeasible[:4], expected[:4]
    assert len(infeasible) == 4
    mixed = [m for pair in zip(feasible, infeasible) for m in pair]
    responses = []

    def run_first():
        with connect(handle.url) as client:
            client.evaluate(feasible[0], validate=False)

    def run_burst():
        with connect(handle.url) as client:
            remote = client.derive(accelerator=small.accelerator)
            responses.extend(remote._transport.request_many([
                remote._request_for(m, validate=True, with_energy=False)
                for m in mixed
            ]))

    threads = [threading.Thread(target=run_first)]
    threads[0].start()
    assert held.wait(timeout=30)
    threads.append(threading.Thread(target=run_burst))
    threads[1].start()
    probe = connect(handle.url)
    _wait_for(probe, "queued", len(mixed))
    release.set()
    for t in threads:
        t.join(timeout=30)
    assert not any(t.is_alive() for t in threads)
    stats = probe.server_stats()
    probe.close()

    assert stats["engine_batches"] == 1
    assert stats["engine_batched_evaluations"] == len(feasible)
    local = EvaluationEngine(small.accelerator)
    got = dict(zip(map(id, mixed), responses))
    for mapping in feasible:
        response = got[id(mapping)]
        assert isinstance(response, EvaluateResponse)
        _assert_parity(local.evaluate(mapping), report_from_dict(response.report))
    for mapping, message in zip(infeasible, expected):
        response = got[id(mapping)]
        assert isinstance(response, ErrorResponse)
        assert (response.error, response.message) == ("MappingError", message)


def test_a_validate_frame_is_never_answered_from_the_store(make_server):
    """The store holds reports, not feasibility verdicts: once an
    unvalidated frame stored a mapping's report, a validate frame for the
    same mapping still gets the MappingError."""
    small, mapping = infeasible_mapping()
    with connect(make_server(preset=small).url) as client:
        frames = [
            client._request_for(mapping, validate=validate, with_energy=False)
            for validate in (False, True)
        ]
        stored = client._transport.request(frames[0])
        checked = client._transport.request(frames[1])
    assert isinstance(stored, EvaluateResponse)
    assert isinstance(checked, ErrorResponse)
    assert checked.error == "MappingError"


def test_drain_while_a_batch_is_in_the_kernel(make_server):
    """A drain that lands while a batched group is in the kernel answers
    every lane of that batch, fails what queued behind it with
    ServerDraining, and lets the worker exit."""
    single, release_single = threading.Event(), threading.Event()
    in_batch, release_batch = threading.Event(), threading.Event()
    hook, __ = _holding_hook((single, release_single), (in_batch, release_batch))
    handle = make_server(pre_evaluate_hook=hook)
    preset = case_study_accelerator()
    first, *mappings = _mapper_mappings(preset, dense_layer(64, 128, 1200), 9)
    batch, behind = mappings[:5], mappings[5:]
    results, errors = {}, []

    def run_first():
        with connect(handle.url) as client:
            results["first"] = client.evaluate(first)

    def run_batch():
        with connect(handle.url) as client:
            results["batch"] = client.evaluate_many(batch)

    def run_behind():
        with connect(handle.url) as client:
            try:
                client.evaluate_many(behind)
            except RemoteEvaluationError as exc:
                errors.append(exc)

    threads = [threading.Thread(target=run_first)]
    threads[0].start()
    assert single.wait(timeout=30)
    threads.append(threading.Thread(target=run_batch))
    threads[1].start()
    probe = connect(handle.url)
    _wait_for(probe, "queued", len(batch))
    release_single.set()
    assert in_batch.wait(timeout=30)  # the whole batch is in the kernel
    threads.append(threading.Thread(target=run_behind))
    threads[2].start()
    _wait_for(probe, "queued", len(behind))
    probe.close()

    drain = asyncio.run_coroutine_threadsafe(
        handle.server.drain(reason="test", interrupted=False),
        handle.server.loop,
    )
    threads[2].join(timeout=30)
    assert not threads[2].is_alive()
    assert [e.kind for e in errors] == ["ServerDraining"]
    release_batch.set()
    for t in threads[:2]:
        t.join(timeout=30)
    assert not any(t.is_alive() for t in threads)
    drain.result(timeout=30)
    handle.thread.join(timeout=30)
    assert not handle.thread.is_alive()
    assert handle.server._worker.done()

    stats = handle.server.stats
    assert stats.evaluations == 1 + len(batch)
    assert stats.errors == len(behind)
    local = EvaluationEngine(preset.accelerator)
    assert [r is not None for r in results["batch"]] == [True] * len(batch)
    for mapping, got in zip(batch, results["batch"]):
        _assert_parity(local.evaluate(mapping), got.report)


def test_drain_counts_each_queued_request_it_fails(make_server):
    """``stats.drained`` counts exactly the queued requests a drain answers
    with ServerDraining, and not the in-flight one it lets finish."""
    held, release = threading.Event(), threading.Event()
    hook, __ = _holding_hook((held, release))
    handle = make_server(pre_evaluate_hook=hook)
    preset = case_study_accelerator()
    first, *queued = _mapper_mappings(preset, dense_layer(64, 128, 1200), 4)
    results, responses = {}, []

    def run_first():
        with connect(handle.url) as client:
            results["first"] = client.evaluate(first)

    def run_queued():
        with connect(handle.url) as client:
            responses.extend(client._transport.request_many([
                client._request_for(m, validate=False, with_energy=False)
                for m in queued
            ]))

    threads = [threading.Thread(target=run_first)]
    threads[0].start()
    assert held.wait(timeout=30)
    threads.append(threading.Thread(target=run_queued))
    threads[1].start()
    probe = connect(handle.url)
    _wait_for(probe, "queued", len(queued))
    probe.close()
    assert handle.server.stats.drained == 0

    drain = asyncio.run_coroutine_threadsafe(
        handle.server.drain(reason="test", interrupted=False),
        handle.server.loop,
    )
    threads[1].join(timeout=30)
    assert [r.error for r in responses] == ["ServerDraining"] * len(queued)
    release.set()
    threads[0].join(timeout=30)
    assert not any(t.is_alive() for t in threads)
    assert "first" in results
    drain.result(timeout=30)
    handle.thread.join(timeout=30)
    stats = handle.server.stats
    assert stats.drained == len(queued)
    assert stats.evaluations == 1


def _work_items(server, mappings, make_future=lambda: None):
    """Queue-ready work items for the server's own machine and options."""
    options, options_fp = server._resolve_options(None)
    return [
        _WorkItem(
            key=(server._own_accel_fp, options_fp, mapping.fingerprint(), False),
            accelerator=server._own_accel, options=options,
            mapping=mapping, validate=True, with_energy=False,
            future=make_future(), t_enqueue=time.perf_counter(),
        )
        for mapping in mappings
    ]


def test_worker_finishes_the_batch_in_hand_when_it_drains_the_sentinel():
    """A pickup that drains the sentinel answers the items before it,
    leaves the items behind it queued, and ends the worker."""
    preset = case_study_accelerator()
    server = EvaluationServer(ServerConfig(preset=preset))
    mappings = _mapper_mappings(preset, dense_layer(64, 128, 1200), 3)

    async def scenario():
        server._queue = asyncio.Queue()
        items = _work_items(server, mappings, asyncio.get_running_loop().create_future)
        for entry in (items[0], items[1], None, items[2]):
            server._queue.put_nowait(entry)
        await asyncio.wait_for(server._kernel_loop(), timeout=30)
        return items

    try:
        items = asyncio.run(scenario())
    finally:
        server._executor.shutdown(wait=True)
    local = EvaluationEngine(preset.accelerator)
    for item in items[:2]:
        assert item.queue_wait_us > 0
        _assert_parity(local.evaluate(item.mapping), item.future.result().report)
    assert not items[2].future.done()
    assert server._queue.qsize() == 1
    assert server.engine_stats.batches == 1


def test_a_failing_group_reruns_its_items_one_at_a_time(monkeypatch):
    """When a group's evaluate_many raises, its items re-run scalar and
    only the request that also fails on its own gets the error."""
    preset = case_study_accelerator()
    server = EvaluationServer(ServerConfig(preset=preset))
    mappings = _mapper_mappings(preset, dense_layer(64, 128, 1200), 3)
    scalar = EvaluationEngine.evaluate

    def evaluate_many(self, *args, **kwargs):
        raise RuntimeError("batch fault")

    def evaluate(self, mapping, validate=True):
        if mapping is mappings[1]:
            raise RuntimeError("lane fault")
        return scalar(self, mapping, validate)

    monkeypatch.setattr(EvaluationEngine, "evaluate_many", evaluate_many)
    monkeypatch.setattr(EvaluationEngine, "evaluate", evaluate)
    items = _work_items(server, mappings)
    outcomes = {id(item): outcome for item, outcome in server._evaluate_batch(items)}

    local = EvaluationEngine(preset.accelerator)
    for item in (items[0], items[2]):
        _assert_parity(scalar(local, item.mapping), outcomes[id(item)].report)
    failed = outcomes[id(items[1])]
    assert isinstance(failed, RuntimeError) and str(failed) == "lane fault"


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
    with use_telemetry(progress=emitter):
        handle = make_server()
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


def test_cache_stats_events_carry_no_coalesced_requests(make_server):
    """A coalesced request is a served request, not a mapper candidate
    dropped as model-equivalent: the daemon's ``CacheStats`` events keep
    ``dedup_skipped`` at 0 while ``coalesced`` counts it."""
    from repro.observability import ProgressEmitter
    from repro.observability.progress import CacheStats

    gate = threading.Event()
    events = []
    emitter = ProgressEmitter()
    emitter.subscribe(events.append)
    with use_telemetry(progress=emitter):
        handle = make_server(pre_evaluate_hook=lambda item: gate.wait(timeout=30))
    preset = case_study_accelerator()
    mappings = list(TemporalMapper(
        preset.accelerator, preset.spatial_unrolling,
        MapperConfig(max_enumerated=100, samples=100),
    ).mappings(dense_layer(64, 128, 1200)))[:33]
    assert len(mappings) == 33
    client = connect(handle.url)
    burst = threading.Thread(
        target=client.evaluate_many, args=(mappings + mappings[:1],)
    )
    burst.start()
    probe = connect(handle.url)
    deadline = time.time() + 30
    while probe.server_stats()["coalesced"] < 1 and time.time() < deadline:
        time.sleep(0.02)
    gate.set()
    burst.join(timeout=30)
    stats = probe.server_stats()
    probe.close()
    client.close()
    assert stats["coalesced"] == 1 and stats["evaluations"] == 33
    cache_stats = [e for e in events if isinstance(e, CacheStats)]
    assert cache_stats
    assert all(e.dedup_skipped == 0 for e in cache_stats)
