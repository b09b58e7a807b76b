"""The persistent result store: warm start, write-through, report fidelity."""

import json

from repro.engine import EvaluationEngine
from repro.fingerprint import stable_fingerprint
from repro.observability.ledger import RunLedger, record_from_report
from repro.serve.store import ResultStore, record_to_report
from repro.verify.generators import sample_cases

PARITY_FIELDS = (
    "cc_ideal", "cc_spatial", "ss_overall", "preload", "offload",
    "scenario", "total_cycles", "utilization",
)


def _evaluated_cases(count=4, seed=5):
    out = []
    for case in sample_cases(seed=seed, count=count + 6):
        engine = EvaluationEngine(case.accelerator)
        try:
            report = engine.evaluate(case.mapping)
        except Exception:
            continue
        key = (
            case.accelerator.fingerprint(),
            stable_fingerprint(engine.options),
            case.mapping.fingerprint(),
        )
        out.append((key, report))
        if len(out) == count:
            break
    assert len(out) == count
    return out


def test_record_to_report_preserves_every_gated_metric():
    for key, report in _evaluated_cases():
        record = record_from_report(
            report, accelerator_fp=key[0], options_fp=key[1], mapping_fp=key[2]
        )
        back = record_to_report(record)
        for field in PARITY_FIELDS:
            assert getattr(back, field) == getattr(report, field), field
        # The per-unit-memory stall map survives (operand/level/memory/ss).
        want = {(s.operand, s.level, s.memory, s.ss) for s in report.served_stalls}
        got = {(s.operand, s.level, s.memory, s.ss) for s in back.served_stalls}
        assert got == want


def test_put_then_get_marks_store_hit_not_warm():
    store = ResultStore()
    (key, report), = _evaluated_cases(count=1)
    store.put(key, report)
    hit = store.get(key)
    assert hit is not None
    got, warm = hit
    assert not warm
    assert got.total_cycles == report.total_cycles
    assert store.get(("nope",) * 3) is None


def test_warm_start_from_sqlite_ledger(tmp_path):
    path = str(tmp_path / "runs.sqlite")
    ledger = RunLedger(path)
    cases = _evaluated_cases()
    for key, report in cases:
        ledger.append(record_from_report(
            report, accelerator_fp=key[0], options_fp=key[1], mapping_fp=key[2]
        ))
    ledger.close()
    store = ResultStore()
    assert store.warm_start([path]) == len(cases)
    for key, report in cases:
        got, warm = store.get(key)
        assert warm
        for field in PARITY_FIELDS:
            assert getattr(got, field) == getattr(report, field)


def test_warm_start_from_jsonl_export(tmp_path):
    (key, report), = _evaluated_cases(count=1)
    record = record_from_report(
        report, accelerator_fp=key[0], options_fp=key[1], mapping_fp=key[2]
    )
    path = tmp_path / "export.jsonl"
    path.write_text(json.dumps(record.as_dict()) + "\n")
    store = ResultStore()
    assert store.warm_start([str(path)]) == 1
    got, warm = store.get(key)
    assert warm and got.total_cycles == report.total_cycles


def test_warm_start_skips_missing_files_and_unfingerprinted_rows(tmp_path):
    (key, report), = _evaluated_cases(count=1)
    # A row without fingerprints is not content-addressable: skipped.
    bare = record_from_report(report)
    path = tmp_path / "mixed.jsonl"
    path.write_text(json.dumps(bare.as_dict()) + "\n")
    store = ResultStore()
    loaded = store.warm_start([
        str(tmp_path / "never-created.sqlite"),  # silently skipped
        str(path),
    ])
    assert loaded == 0
    assert len(store) == 0
    assert store.get(key) is None


def test_write_through_appends_to_backing_ledger(tmp_path):
    path = str(tmp_path / "serve.sqlite")
    ledger = RunLedger(path)
    store = ResultStore(ledger)
    (key, report), = _evaluated_cases(count=1)
    store.put(key, report, wall_time_s=0.25)
    ledger.close()
    # A fresh store warm-starts from what the first one persisted.
    restarted = ResultStore()
    assert restarted.warm_start([path]) == 1
    got, warm = restarted.get(key)
    assert warm and got.total_cycles == report.total_cycles
