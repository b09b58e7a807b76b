"""The persistent run ledger: storage, migration, snapshots, and the diff gate.

The ledger is the durable complement to the tracer: append-only SQLite
with a JSONL snapshot form, schema-versioned so old files open forever,
and diffable with tolerances so CI can gate on model drift without
tripping on wall-clock noise.
"""

import json
import sqlite3

import pytest

from repro.observability.ledger import (
    NULL_LEDGER,
    LedgerSchemaError,
    RunLedger,
    RunRecord,
    SCHEMA_VERSION,
    _create_v1,
    current_ledger,
    diff_records,
    load_jsonl,
    load_snapshot,
    use_ledger,
)


def make_record(**overrides) -> RunRecord:
    base = dict(
        kind="evaluation",
        label="",
        ts=1234.5,
        git_sha="abc1234",
        accelerator="case-study-16x16",
        layer="dense(64,128,1200)",
        accelerator_fp="fp-acc",
        mapping_fp="fp-map",
        options_fp="fp-opt",
        scenario=3,
        cc_ideal=38400.0,
        cc_spatial=38400.0,
        spatial_stall=0.0,
        ss_overall=13225.0,
        preload=721.0,
        offload=24.0,
        total_cycles=52370.0,
        utilization=0.733,
        cache_hit=False,
        wall_time_s=0.0005,
        ss_comb={"O@O-Reg/L0": 13225.0, "W@W-LB/L1": 5888.0},
        extra={},
    )
    base.update(overrides)
    return RunRecord(**base)


# --------------------------------------------------------------------- #
# Storage round-trips
# --------------------------------------------------------------------- #


def test_sqlite_roundtrip(tmp_path):
    path = str(tmp_path / "runs.sqlite")
    rec = make_record()
    with RunLedger(path) as ledger:
        assert ledger.schema_version == SCHEMA_VERSION
        ledger.append(rec)
        ledger.append_many([make_record(cache_hit=True), make_record(cache_hit=None)])
        assert len(ledger) == 3
        back = ledger.records()
    assert back[0] == rec
    assert back[1].cache_hit is True
    assert back[2].cache_hit is None


def test_jsonl_roundtrip(tmp_path):
    db = str(tmp_path / "runs.sqlite")
    snap = str(tmp_path / "runs.jsonl")
    records = [make_record(), make_record(kind="bench", label="engine",
                                          extra={"eval_us": 12.5})]
    with RunLedger(db) as ledger:
        ledger.append_many(records)
        assert ledger.export_jsonl(snap) == 2
    assert load_jsonl(snap) == records
    # Every line carries the schema version.
    with open(snap) as handle:
        for line in handle:
            assert json.loads(line)["v"] == SCHEMA_VERSION


def test_load_snapshot_dispatches_on_content(tmp_path):
    """SQLite vs JSONL is decided by file magic, not extension."""
    db = str(tmp_path / "a.ledger")       # sqlite behind a neutral name
    snap = str(tmp_path / "b.ledger")
    with RunLedger(db) as ledger:
        ledger.append(make_record())
        ledger.export_jsonl(snap)
    assert load_snapshot(db) == load_snapshot(snap)


def test_load_snapshot_sha_filter(tmp_path):
    db = str(tmp_path / "runs.sqlite")
    with RunLedger(db) as ledger:
        ledger.append_many([make_record(git_sha="aaa"), make_record(git_sha="bbb")])
    assert [r.git_sha for r in load_snapshot(db, sha="bbb")] == ["bbb"]


def test_records_kind_filter(tmp_path):
    with RunLedger(str(tmp_path / "runs.sqlite")) as ledger:
        ledger.append_many([make_record(), make_record(kind="bench", label="x")])
        assert [r.kind for r in ledger.records(kind="bench")] == ["bench"]


# --------------------------------------------------------------------- #
# Schema versioning
# --------------------------------------------------------------------- #


def test_v1_file_migrates_in_place(tmp_path):
    """A v1 ledger (pre label/git_sha/ss_comb/backend) opens with current
    code — the migration chain carries it through every schema step."""
    path = str(tmp_path / "old.sqlite")
    conn = sqlite3.connect(path)
    _create_v1(conn)
    conn.execute(
        "INSERT INTO runs (kind, ts, accelerator, layer, ss_overall, extra_json)"
        " VALUES ('evaluation', 1.0, 'chip', 'L', 42.0, '{}')"
    )
    conn.commit()
    conn.close()

    with RunLedger(path) as ledger:
        assert ledger.schema_version == SCHEMA_VERSION
        (rec,) = ledger.records()
        # Old row, new columns' defaults.
        assert rec.ss_overall == 42.0
        assert rec.label == ""
        assert rec.git_sha == "unknown"
        assert rec.ss_comb == {}
        assert rec.backend == ""
        # And the migrated file accepts current rows alongside.
        ledger.append(make_record())
        assert len(ledger) == 2


def test_v2_file_migrates_and_normalizes_verify_backend(tmp_path):
    """A v2 ledger (pre backend) migrates in place; its verify rows — all
    event-backend by construction — read back as ``backend="event"``."""
    from repro.observability.ledger import _V2_ADDED_COLUMNS

    path = str(tmp_path / "v2.sqlite")
    conn = sqlite3.connect(path)
    _create_v1(conn)
    for name, typ, default in _V2_ADDED_COLUMNS:
        conn.execute(f"ALTER TABLE runs ADD COLUMN {name} {typ} DEFAULT {default}")
    conn.execute("PRAGMA user_version = 2")
    conn.execute(
        "INSERT INTO runs (kind, ts, accelerator, layer, extra_json, label)"
        " VALUES ('verify', 1.0, 'generated', '64 examples', '{}', 'seed=0')"
    )
    conn.execute(
        "INSERT INTO runs (kind, ts, accelerator, layer, extra_json, label)"
        " VALUES ('evaluation', 2.0, 'chip', 'L', '{}', '')"
    )
    conn.commit()
    conn.close()

    with RunLedger(path) as ledger:
        assert ledger.schema_version == SCHEMA_VERSION
        verify, evaluation = ledger.records()
        assert verify.backend == "event"       # absent = event, for verify
        assert evaluation.backend == ""        # no backend axis otherwise


def test_from_dict_backend_normalization():
    assert RunRecord.from_dict({"kind": "verify"}).backend == "event"
    assert RunRecord.from_dict({"kind": "evaluation"}).backend == ""
    assert RunRecord.from_dict({"kind": "verify", "backend": "rtl"}).backend == "rtl"


def test_verify_record_backend_roundtrip(tmp_path):
    from repro.observability.ledger import record_from_verification

    rec = record_from_verification(
        seed=7, examples=16, cases_checked=16, violations=0,
        corpus_cases=3, corpus_violations=0, shrunk=0,
        backend="both", git_sha_value="abc1234",
    )
    assert rec.kind == "verify" and rec.backend == "both"
    db = str(tmp_path / "runs.sqlite")
    snap = str(tmp_path / "runs.jsonl")
    with RunLedger(db) as ledger:
        ledger.append(rec)
        (back,) = ledger.records()
        ledger.export_jsonl(snap)
    assert back.backend == "both"
    assert load_jsonl(snap)[0].backend == "both"


def test_backend_is_part_of_the_diff_key():
    """Event- and rtl-backend verify runs gate independently: they never
    match each other, so one backend's baseline can't mask the other."""
    from repro.observability.ledger import record_from_verification

    def verify_row(backend, violations=0):
        return record_from_verification(
            seed=0, examples=8, cases_checked=8, violations=violations,
            corpus_cases=3, corpus_violations=0, shrunk=0,
            backend=backend, git_sha_value="abc1234",
        )

    event, rtl = verify_row("event"), verify_row("rtl")
    assert event.key() != rtl.key()
    assert event.key()[-1] == "event" and rtl.key()[-1] == "rtl"
    diff = diff_records([event], [rtl])
    assert diff.missing_keys == (event.key(),)
    assert diff.added_keys == (rtl.key(),)
    # Same-backend rows still match and diff clean.
    assert diff_records([event], [verify_row("event")]).clean


def test_v3_file_migrates_adding_campaign_column(tmp_path):
    """A v3 ledger (pre campaign) opens in place: its rows read back with
    ``campaign=""`` and the migrated file accepts campaign-stamped rows."""
    from repro.observability.ledger import _V2_ADDED_COLUMNS, _V3_ADDED_COLUMNS

    path = str(tmp_path / "v3.sqlite")
    conn = sqlite3.connect(path)
    _create_v1(conn)
    for name, typ, default in _V2_ADDED_COLUMNS + _V3_ADDED_COLUMNS:
        conn.execute(f"ALTER TABLE runs ADD COLUMN {name} {typ} DEFAULT {default}")
    conn.execute("PRAGMA user_version = 3")
    conn.execute(
        "INSERT INTO runs (kind, ts, accelerator, layer, extra_json, label)"
        " VALUES ('evaluation', 1.0, 'chip', 'L', '{}', '')"
    )
    conn.commit()
    conn.close()

    with RunLedger(path) as ledger:
        assert ledger.schema_version == SCHEMA_VERSION
        (old,) = ledger.records()
        assert old.campaign == ""
        ledger.append(make_record(campaign="sweep-1"))
        __, new = ledger.records()
    assert new.campaign == "sweep-1"


def test_v1_chain_reaches_v4_with_empty_campaign(tmp_path):
    """The full v1 -> v2 -> v3 -> v4 chain leaves pre-campaign rows with
    the empty-campaign default."""
    path = str(tmp_path / "chain.sqlite")
    conn = sqlite3.connect(path)
    _create_v1(conn)
    conn.execute(
        "INSERT INTO runs (kind, ts, accelerator, layer, ss_overall, extra_json)"
        " VALUES ('evaluation', 1.0, 'chip', 'L', 42.0, '{}')"
    )
    conn.commit()
    conn.close()
    with RunLedger(path) as ledger:
        (rec,) = ledger.records()
    assert rec.campaign == "" and rec.backend == ""


def test_campaign_column_roundtrips_sqlite_and_jsonl(tmp_path):
    db = str(tmp_path / "runs.sqlite")
    snap = str(tmp_path / "runs.jsonl")
    rec = make_record(campaign="nightly")
    with RunLedger(db) as ledger:
        ledger.append(rec)
        (back,) = ledger.records()
        ledger.export_jsonl(snap)
    assert back.campaign == "nightly"
    assert load_jsonl(snap)[0].campaign == "nightly"


def test_campaign_is_not_part_of_the_diff_key():
    """The same design point evaluated inside and outside a campaign must
    still match in the regression gate — campaign names change per run."""
    inside, outside = make_record(campaign="sweep"), make_record()
    assert inside.key() == outside.key()
    assert diff_records([inside], [outside]).clean


def test_newer_schema_refused(tmp_path):
    path = str(tmp_path / "future.sqlite")
    with RunLedger(path) as ledger:
        ledger.append(make_record())
    conn = sqlite3.connect(path)
    conn.execute(f"PRAGMA user_version = {SCHEMA_VERSION + 1}")
    conn.commit()
    conn.close()
    with pytest.raises(LedgerSchemaError):
        RunLedger(path)


def test_newer_jsonl_line_refused(tmp_path):
    snap = tmp_path / "future.jsonl"
    line = {"v": SCHEMA_VERSION + 1}
    line.update(make_record().as_dict())
    snap.write_text(json.dumps(line) + "\n")
    with pytest.raises(LedgerSchemaError):
        load_jsonl(str(snap))


def test_v1_jsonl_line_loads_with_defaults(tmp_path):
    """A versionless (v1) snapshot line fills the v2 fields."""
    snap = tmp_path / "old.jsonl"
    snap.write_text(json.dumps({"kind": "evaluation", "ss_overall": 7.0}) + "\n")
    (rec,) = load_jsonl(str(snap))
    assert rec.ss_overall == 7.0
    assert rec.label == "" and rec.ss_comb == {} and rec.extra == {}


@pytest.mark.parametrize("bad, says", [
    ("[1,2]", "not a JSON object"),
    ("null", "not a JSON object"),
    ('"text"', "not a JSON object"),
    ('{"kind": "evaluation", "ss_ov', "not JSON"),
    ('{"v": "two", "kind": "evaluation"}', "schema version"),
])
def test_hostile_jsonl_line_is_a_typed_error_naming_the_line(tmp_path, bad, says):
    snap = tmp_path / "hostile.jsonl"
    good = json.dumps(make_record().as_dict())
    snap.write_text(good + "\n" + bad + "\n")
    with pytest.raises(LedgerSchemaError) as err:
        load_jsonl(str(snap))
    assert "hostile.jsonl" in str(err.value)
    assert "line 2" in str(err.value)
    assert says in str(err.value)


def test_corrupt_sqlite_snapshot_is_a_typed_error(tmp_path):
    path = tmp_path / "corrupt.sqlite"
    path.write_bytes(b"SQLite format 3\x00" + b"garbage" * 64)
    with pytest.raises(LedgerSchemaError, match="corrupt.sqlite"):
        load_snapshot(str(path))


# --------------------------------------------------------------------- #
# Diff / regression gate
# --------------------------------------------------------------------- #


def test_identical_snapshots_diff_clean():
    diff = diff_records([make_record()], [make_record(wall_time_s=0.9)])
    assert diff.clean
    # Wall time changed but is reported non-gated, never drifting.
    (wall,) = [d for d in diff.deltas if d.metric == "wall_time_s"]
    assert wall.delta and not wall.drifted and not wall.gated


def test_ss_overall_perturbation_drifts():
    diff = diff_records([make_record()], [make_record(ss_overall=13230.0)])
    assert not diff.clean
    assert {d.metric for d in diff.drifted} == {"ss_overall"}


def test_ss_comb_entry_perturbation_drifts():
    cand = make_record(ss_comb={"O@O-Reg/L0": 13226.0, "W@W-LB/L1": 5888.0})
    diff = diff_records([make_record()], [cand])
    assert {d.metric for d in diff.drifted} == {"ss_comb.O@O-Reg/L0"}


def test_zero_baseline_uses_abs_tol():
    base = make_record(spatial_stall=0.0)
    # Float dust against a zero baseline must pass ...
    assert diff_records([base], [make_record(spatial_stall=1e-9)]).clean
    # ... a real value must not.
    diff = diff_records([base], [make_record(spatial_stall=1.0)])
    assert {d.metric for d in diff.drifted} == {"spatial_stall"}


def test_tolerances_are_configurable():
    pair = ([make_record()], [make_record(ss_overall=13225.0 * 1.005)])
    assert not diff_records(*pair).clean
    assert diff_records(*pair, rel_tol=0.01).clean


def test_fingerprint_mismatch_drifts():
    diff = diff_records([make_record()], [make_record(mapping_fp="fp-other")])
    assert {d.metric for d in diff.drifted} == {"mapping_fp"}


def test_missing_key_informational_unless_strict():
    base = [make_record(), make_record(layer="other-layer")]
    cand = [make_record()]
    diff = diff_records(base, cand)
    assert diff.clean
    assert diff.missing_keys == (
        ("evaluation", "", "case-study-16x16", "other-layer", ""),
    )
    strict = diff_records(base, cand, strict_keys=True)
    assert not strict.clean


def test_missing_metric_on_one_side_never_drifts():
    """New metrics appear as the model grows; that is not a regression."""
    cand = make_record(ss_comb={"O@O-Reg/L0": 13225.0})  # one key gone
    diff = diff_records([make_record()], [cand])
    assert diff.clean
    (gone,) = [d for d in diff.deltas if d.metric == "ss_comb.W@W-LB/L1"]
    assert gone.candidate is None and not gone.drifted


def test_diff_matches_last_record_per_key():
    base = [make_record(ss_overall=1.0), make_record(ss_overall=13225.0)]
    assert diff_records(base, [make_record()]).clean


def test_diff_describe_mentions_drift():
    diff = diff_records([make_record()], [make_record(ss_overall=9999.0)])
    text = diff.describe()
    assert "ss_overall" in text and "DRIFT" in text and "drifted" in text


# --------------------------------------------------------------------- #
# Ambient ledger + engine integration
# --------------------------------------------------------------------- #


def test_ambient_default_is_null():
    assert current_ledger() is NULL_LEDGER
    assert not NULL_LEDGER.enabled
    NULL_LEDGER.append(make_record())  # accepted and dropped
    assert len(NULL_LEDGER) == 0 and NULL_LEDGER.records() == []


def test_use_ledger_installs_and_restores(tmp_path):
    with RunLedger(str(tmp_path / "runs.sqlite")) as ledger:
        with use_ledger(ledger):
            assert current_ledger() is ledger
        assert current_ledger() is NULL_LEDGER


def test_engine_writes_evaluations_and_cache_hits(tmp_path, case_preset, small_layer):
    from repro.dse.mapper import MapperConfig, TemporalMapper
    from repro.engine import EvaluationEngine

    mapper = TemporalMapper(
        case_preset.accelerator,
        case_preset.spatial_unrolling,
        MapperConfig(max_enumerated=20, samples=10),
    )
    mappings = []
    for mapping in mapper.mappings(small_layer):
        mappings.append(mapping)
        if len(mappings) >= 4:
            break

    engine = EvaluationEngine.from_preset(case_preset)
    with RunLedger(str(tmp_path / "runs.sqlite")) as ledger:
        with use_ledger(ledger):
            reports = engine.evaluate_many(mappings)
            engine.evaluate(mappings[0])          # cache hit
        rows = ledger.records()

    assert len(rows) == len(mappings) + 1
    assert rows[0].ss_overall == reports[0].report.ss_overall
    assert rows[0].cache_hit is False and rows[0].mapping_fp
    assert rows[-1].cache_hit is True
    # Two runs of the same design point diff clean against each other.
    assert diff_records([rows[0]], [rows[-1]]).clean
