"""Cross-process trace stitching against a live daemon.

The acceptance surface of the distributed-observability PR: one
``RemoteEngine.evaluate`` under an active tracer yields ONE span tree —
client transport span, the server's request subtree grafted beneath it
(queue wait, kernel, store write), and the kernel's own stall-attribution
spans beneath the kernel span — with parent/child links verified across the
wire, and with the kernel subtree bit-identical in shape to an
in-process trace of the same mapping.
"""

from repro.engine import EvaluationEngine
from repro.observability.span import SpanNode, span_tree
from repro.observability.telemetry import telemetry, use_telemetry
from repro.observability.tracer import Tracer
from repro.serve import connect
from repro.verify.generators import sample_cases


def _case():
    return next(iter(sample_cases(seed=11, count=1)))


def _shape(node: SpanNode):
    """Timestamp-free shape of one subtree (same rule as tree_shape)."""
    return (
        node.record.name,
        tuple(sorted(node.record.attributes.items())),
        tuple(_shape(c) for c in node.children),
    )


def _single_root(tracer):
    roots = span_tree(tracer.records)
    assert len(roots) == 1, [r.name for r in roots]
    return roots[0]


# --------------------------------------------------------------------- #
# One stitched tree
# --------------------------------------------------------------------- #

def test_remote_evaluate_stitches_one_cross_process_tree(server):
    case = _case()
    tracer = Tracer()
    with use_telemetry(tracer=tracer):
        client = connect(server.url)
        client.derive(accelerator=case.accelerator).evaluate(case.mapping)
        client.close()
    root = _single_root(tracer)
    assert root.name == "remote.evaluate"

    requests = root.find("serve.request")
    assert len(requests) == 1
    request = requests[0]
    # The server subtree hangs directly off the transport span, and its
    # propagated identity points back at that very span: the parent link
    # is verified on BOTH sides of the wire.
    assert request.record.parent_id == root.record.span_id
    assert request.attributes["trace_id"] == tracer.trace_id
    assert request.attributes["client_span_id"] == root.record.span_id
    assert request.attributes["source"] == "evaluated"

    kernel = request.find("serve.kernel")
    assert len(kernel) == 1
    # The kernel's own stall-attribution spans sit under the kernel span.
    assert kernel[0].find("engine.evaluate")
    assert kernel[0].find("model.evaluate")
    assert request.find("serve.store_write"), "write-through must be spanned"


def test_stitched_kernel_subtree_matches_in_process_trace(server):
    """Shape equality: the daemon's kernel spans == a local evaluation."""
    case = _case()

    local_tracer = Tracer()
    with use_telemetry(tracer=local_tracer):
        EvaluationEngine(case.accelerator).evaluate(
            case.mapping
        )
    local_roots = span_tree(local_tracer.records)
    assert [r.name for r in local_roots] == ["engine.evaluate"]

    remote_tracer = Tracer()
    with use_telemetry(tracer=remote_tracer):
        client = connect(server.url)
        client.derive(accelerator=case.accelerator).evaluate(case.mapping)
        client.close()
    remote_kernel = _single_root(remote_tracer).find("engine.evaluate")
    assert len(remote_kernel) == 1
    assert _shape(remote_kernel[0]) == _shape(local_roots[0])


def test_repeat_request_is_a_store_hit_span(server):
    case = _case()
    tracer = Tracer()
    with use_telemetry(tracer=tracer):
        client = connect(server.url)
        remote = client.derive(accelerator=case.accelerator)
        remote.evaluate(case.mapping)
        # Empty the client LRU: the repeat must hit the wire and the *store*.
        client.cache.clear()
        remote.evaluate(case.mapping)
        client.close()
    roots = span_tree(tracer.records)
    assert [r.name for r in roots] == ["remote.evaluate", "remote.evaluate"]
    second = roots[1].find("serve.request")[0]
    assert second.attributes["source"] == "store"
    assert not second.find("serve.kernel"), "store hits never reach the kernel"


def test_evaluate_many_stitches_one_batch_tree(server):
    cases = [c for c in sample_cases(seed=11, count=8)]
    by_accel = {}
    for case in cases:
        by_accel.setdefault(case.accelerator.fingerprint(), []).append(case)
    group = max(by_accel.values(), key=len)
    mappings = [case.mapping for case in group]
    tracer = Tracer()
    with use_telemetry(tracer=tracer):
        client = connect(server.url)
        results = client.derive(accelerator=group[0].accelerator).evaluate_many(
            mappings, validate=True
        )
        client.close()
    root = _single_root(tracer)
    assert root.name == "remote.batch"
    answered = sum(1 for r in results if r is not None)
    # One server subtree per answered (non-infeasible) request, merged
    # in request order under the single batch span.
    assert len(root.find("serve.request")) == answered


def test_untraced_evaluation_leaves_no_records(server):
    case = _case()
    client = connect(server.url)
    client.derive(accelerator=case.accelerator).evaluate(case.mapping)
    client.close()
    # Nothing was ambient, so nothing accumulated anywhere: the no-op
    # path is the default and must stay invisible.

    assert telemetry().tracer.enabled is False
    assert telemetry().tracer.roots() == []
