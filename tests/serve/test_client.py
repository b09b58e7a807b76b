"""Client-side behavior: URL parsing, local cache, derive, error mapping."""

import dataclasses

import pytest

from repro.core.step1 import ModelOptions
from repro.dse.mapper import MapperConfig, TemporalMapper
from repro.engine import EvaluationEngine, Evaluator
from repro.mapping.mapping import MappingError
from repro.mapping.serde import mapping_from_dict, mapping_to_dict
from repro.serve import RemoteEngine, RemoteEvaluationError, connect, parse_url
from repro.serve.client import _raise_remote
from repro.serve.protocol import ErrorResponse, ProtocolError, report_to_dict
from repro.verify.generators import sample_cases
from repro.workload.generator import dense_layer
from tests.conftest import infeasible_mapping


# --------------------------------------------------------------------- #
# URL parsing
# --------------------------------------------------------------------- #

def test_parse_url_tcp():
    assert parse_url("serve://127.0.0.1:7621") == ("tcp", "127.0.0.1", 7621)
    assert parse_url("serve://localhost:1") == ("tcp", "localhost", 1)


def test_parse_url_unix():
    assert parse_url("unix:///tmp/repro.sock") == ("unix", "/tmp/repro.sock")
    assert parse_url("unix://rel/path.sock") == ("unix", "rel/path.sock")


@pytest.mark.parametrize("bad", [
    "serve://nohost",          # missing port
    "serve://host:notaport",   # non-numeric port
    "serve://:123",            # empty host
    "unix://",                 # empty path
    "http://host:1",           # unknown scheme
    "127.0.0.1:7621",          # scheme-less
    "",
])
def test_parse_url_rejects_bad_forms(bad):
    with pytest.raises(ValueError):
        parse_url(bad)


# --------------------------------------------------------------------- #
# Error mapping
# --------------------------------------------------------------------- #

def test_remote_errors_map_to_native_exception_types():
    with pytest.raises(MappingError, match="does not fit"):
        _raise_remote(ErrorResponse(id=1, error="MappingError",
                                    message="does not fit"))
    with pytest.raises(ProtocolError, match="bad frame"):
        _raise_remote(ErrorResponse(id=1, error="ProtocolError",
                                    message="bad frame"))
    with pytest.raises(RemoteEvaluationError, match="boom") as err:
        _raise_remote(ErrorResponse(id=1, error="ValueError", message="boom"))
    assert err.value.kind == "ValueError"


# --------------------------------------------------------------------- #
# Live-client behavior (ephemeral daemon via the shared fixture)
# --------------------------------------------------------------------- #

def test_client_satisfies_the_evaluator_protocol(server):
    client = connect(server.url)
    assert isinstance(client, Evaluator)
    assert isinstance(client, RemoteEngine)
    assert client.accelerator is not None  # adopted from the hello handshake
    assert client.accelerator_fingerprint
    assert client.options_fingerprint
    client.close()


def test_handshake_adopts_server_machine(server):
    client = connect(server.url)
    # The default fixture serves the case-study preset.
    assert client.accelerator.name == server.server.config.preset.accelerator.name
    assert client.options == server.server.config.options
    client.close()


def test_local_cache_hit_avoids_the_socket(server):
    client = connect(server.url)
    case = next(iter(sample_cases(seed=11, count=1)))
    eng = client.derive(accelerator=case.accelerator)
    eng.evaluate(case.mapping)
    before = client.server_stats()["requests"]
    again = eng.evaluate(case.mapping)
    after = client.server_stats()["requests"]
    # The counter only tracks evaluate frames, and the repeat was served
    # from the client-side cache — the server never saw it.
    assert after == before
    assert again.total_cycles > 0
    assert eng.stats.cache_hits >= 1
    client.close()


def test_derive_same_machine_keeps_server_defaults(server):
    client = connect(server.url)
    derived = client.derive()
    assert derived.accelerator is client.accelerator
    assert derived._accel_payload is None  # still "the server's machine"
    client.close()


def test_derive_new_accelerator_ships_payload(server):
    client = connect(server.url)
    case = next(iter(sample_cases(seed=11, count=1)))
    derived = client.derive(accelerator=case.accelerator)
    assert derived.accelerator is case.accelerator
    assert derived._accel_payload is not None
    assert derived.accelerator_fingerprint == case.accelerator.fingerprint()
    # Transport is shared: closing the parent closes the child too.
    assert derived._transport is client._transport
    client.close()


def test_chained_derive_carries_both_payloads(server):
    client = connect(server.url)
    case = next(iter(sample_cases(seed=11, count=1)))
    options = ModelOptions(paper_period_count=True)
    sibling = client.derive(options=options)
    view = sibling.derive(accelerator=case.accelerator)
    for derived in (sibling, view):
        assert derived._transport is client._transport
        assert derived.cache is client.cache
        assert derived.stats is client.stats
    assert view._accel_payload is not None
    assert view._options_payload is not None
    local = EvaluationEngine(case.accelerator, options)
    assert view.accelerator_fingerprint == local.accelerator_fingerprint
    assert view.options_fingerprint == local.options_fingerprint
    # Only the new machine drops the native dataflow; a copy is a copy.
    assert sibling.spatial_unrolling == client.spatial_unrolling != {}
    assert sibling.spatial_unrolling is not client.spatial_unrolling
    assert view.spatial_unrolling == {}
    assert report_to_dict(view.evaluate(case.mapping)) == report_to_dict(
        local.evaluate(case.mapping)
    )
    client.close()


def test_evaluate_many_mixed_feasibility(server):
    client = connect(server.url)
    cases = list(sample_cases(seed=11, count=6))
    by_accel = {}
    for case in cases:
        by_accel.setdefault(case.accelerator.fingerprint(), []).append(case)
    fp, group = max(by_accel.items(), key=lambda kv: len(kv[1]))
    eng = client.derive(accelerator=group[0].accelerator)
    local = EvaluationEngine(group[0].accelerator)
    mappings = [c.mapping for c in group]
    got = eng.evaluate_many(mappings, validate=True)
    want = local.evaluate_many(mappings, validate=True)
    assert [g is None for g in got] == [w is None for w in want]
    for g, w in zip(got, want):
        if g is not None:
            assert g.report.total_cycles == w.report.total_cycles
    client.close()


def test_best_of_picks_the_local_winner_from_every_answer(server):
    client = connect(server.url)
    mapper = TemporalMapper(
        client.accelerator, client.spatial_unrolling,
        MapperConfig(max_enumerated=40, samples=0),
    )
    mappings = list(mapper.mappings(dense_layer(16, 32, 64)))
    local = EvaluationEngine(client.accelerator).best_of(mappings)
    remote = client.best_of(mappings)
    assert remote.best.mapping is local.best.mapping
    assert remote.best.report.total_cycles == local.best.report.total_cycles
    assert (remote.scored, remote.pruned) == (len(mappings), 0)
    assert local.scored + local.pruned == len(mappings)
    assert client.best_of(mappings, local.best.report.total_cycles).best is None
    client.close()


def test_evaluate_many_serves_cached_prefix_without_refetch(server):
    client = connect(server.url)
    case = next(iter(sample_cases(seed=11, count=1)))
    eng = client.derive(accelerator=case.accelerator)
    eng.evaluate(case.mapping)
    before = client.server_stats()["requests"]
    results = eng.evaluate_many([case.mapping, case.mapping])
    after = client.server_stats()["requests"]
    assert after == before  # both slots answered from the client cache
    assert all(r is not None for r in results)
    assert results[0].report.total_cycles == results[1].report.total_cycles
    client.close()


def test_energy_burst_repeat_is_served_from_the_client_cache(server):
    """A repeated ``with_energy=True`` burst probes both cache keys, as
    the in-process engine does, and sends nothing over the wire."""
    client = connect(server.url)
    mapper = TemporalMapper(
        client.accelerator, client.spatial_unrolling,
        MapperConfig(max_enumerated=4, samples=0),
    )
    mappings = list(mapper.mappings(dense_layer(32, 64, 600)))[:4]
    assert len(mappings) == 4
    first = client.evaluate_many(mappings, with_energy=True)
    before = client.server_stats()["requests"]
    again = client.evaluate_many(mappings, with_energy=True)
    assert client.server_stats()["requests"] == before
    for a, b in zip(first, again):
        assert report_to_dict(a.report) == report_to_dict(b.report)
        assert a.energy == b.energy
    client.close()


def test_evaluate_fills_what_evaluate_many_of_an_equal_mapping_hits(server):
    """The client cache keys on ``Mapping.cache_key``: an equal but
    distinct mapping (serde copy, renamed layer) never reaches the socket."""
    client = connect(server.url)
    case = next(iter(sample_cases(seed=11, count=1)))
    eng = client.derive(accelerator=case.accelerator)
    report = eng.evaluate(case.mapping)
    twin = mapping_from_dict(
        mapping_to_dict(case.mapping),
        dataclasses.replace(case.mapping.layer, name="twin"),
    )
    assert twin is not case.mapping
    before = client.server_stats()["requests"]
    misses = eng.stats.cache_misses
    [result] = eng.evaluate_many([twin])
    assert client.server_stats()["requests"] == before
    assert eng.stats.cache_misses == misses
    assert result.report.total_cycles == report.total_cycles
    client.close()


def test_validate_refuses_an_infeasible_mapping_on_a_client_cache_hit(
    make_server,
):
    small, mapping = infeasible_mapping()
    with connect(make_server(preset=small).url) as client:
        client.evaluate(mapping, validate=False)
        with pytest.raises(MappingError):
            client.evaluate(mapping, validate=True)
        assert client.evaluate_many([mapping], validate=True) == [None]


def test_check_runs_locally(server):
    client = connect(server.url)
    case = next(iter(sample_cases(seed=11, count=1)))
    eng = client.derive(accelerator=case.accelerator)
    before = client.server_stats()["requests"]
    eng.check(case.mapping)
    after = client.server_stats()["requests"]
    assert after == before  # check() never touched the wire
    client.close()


def test_remote_stats_combines_both_sides_of_the_connection(server):
    from repro.serve import RemoteStats

    client = connect(server.url)
    case = next(iter(sample_cases(seed=11, count=1)))
    eng = client.derive(accelerator=case.accelerator)
    eng.evaluate(case.mapping)
    eng.evaluate(case.mapping)  # client-LRU hit: never reaches the daemon
    combined = client.remote_stats()
    assert isinstance(combined, RemoteStats)
    assert combined.client == client.stats.snapshot()
    assert combined.server["evaluations"] == 1
    assert combined.client_cache_hits == 1
    assert combined.coalesced == 0
    assert combined.queue_highwater >= 0
    line = combined.summary()
    assert "1 server eval(s)" in line
    assert "1 client LRU hit(s)" in line
    client.close()


def test_connect_refuses_dead_endpoint():
    with pytest.raises(OSError):
        connect("serve://127.0.0.1:1")


def test_connect_refuses_the_removed_cache_switch():
    # Refused before any socket opens: the client cache is always on.
    with pytest.raises(TypeError):
        connect("serve://127.0.0.1:1", use_cache=False)


def test_context_manager_closes_transport(server):
    with connect(server.url) as client:
        assert "RemoteEngine" in repr(client)
    assert client._transport._closed
