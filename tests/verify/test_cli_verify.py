"""End-to-end exit codes and ledger rows for ``repro-latency verify``."""

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.observability.ledger import RunLedger


def test_clean_run_exits_zero_and_writes_ledger_row(tmp_path, capsys):
    ledger_path = tmp_path / "ledger.sqlite"
    report_path = tmp_path / "report.json"
    code = main([
        "verify", "--examples", "10", "--seed", "0",
        "--corpus", str(tmp_path / "no-corpus"),
        "--ledger", str(ledger_path),
        "--report", str(report_path),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "0 violation(s)" in out
    ledger = RunLedger(str(ledger_path))
    rows = [r for r in ledger.records() if r.kind == "verify"]
    ledger.close()
    assert len(rows) == 1
    assert rows[0].extra["cases_checked"] == 10.0
    assert rows[0].extra["violations"] == 0.0
    report = json.loads(report_path.read_text())
    assert report["ok"] is True
    assert report["cases_checked"] == 10


def test_planted_bug_exits_one_with_shrunk_artifacts(
    tmp_path, planted_clamp_bug, capsys
):
    artifacts = tmp_path / "artifacts"
    code = main([
        "verify", "--examples", "2", "--seed", "0",
        "--corpus", str(tmp_path / "no-corpus"),
        "--ledger", str(tmp_path / "ledger.sqlite"),
        "--artifacts", str(artifacts),
    ])
    assert code == 1
    out = capsys.readouterr().out
    assert "violated:" in out
    # The shrunk counterexample is written corpus-ready.
    written = sorted(artifacts.glob("*.json"))
    assert written
    payload = json.loads(written[0].read_text())
    assert payload["schema"] == 1
    assert payload["properties"]
    assert (artifacts / written[0].name.replace(".json", ".txt")).exists()


def test_verify_ledger_default_does_not_leak_into_other_subcommands():
    """verify defaults to its own ledger file; sharing the parent parser's
    --ledger action (or set_defaults on it) would leak that default into
    every other subcommand."""
    from repro.cli import build_parser

    parser = build_parser()
    assert parser.parse_args(["verify"]).ledger == "verify-ledger.sqlite"
    args = parser.parse_args(["evaluate", "--layer", "4,8,16"])
    assert args.ledger is None


def test_corpus_only_skips_generation(tmp_path, capsys):
    code = main([
        "verify", "--corpus-only",
        "--corpus", str(tmp_path / "no-corpus"),
        "--ledger", str(tmp_path / "ledger.sqlite"),
    ])
    assert code == 0
    assert "0 generated" in capsys.readouterr().out


def test_a_refused_run_leaves_no_ledger_behind(tmp_path, capsys):
    """A malformed corpus file ends the run with exit code 2, before it
    recorded anything: no ledger file is created and no ``ledger:`` line
    is printed. The well-formed corpus still gets its verify row."""
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    good = next(iter(sorted((Path(__file__).parent / "corpus").glob("*.json"))))
    data = json.loads(good.read_text())
    ledger_path = tmp_path / "verify.sqlite"
    args = ["verify", "--corpus", str(corpus), "--corpus-only",
            "--ledger", str(ledger_path)]

    (corpus / "case.json").write_text(json.dumps(dict(data, properties="abc")))
    with pytest.raises(SystemExit) as refused:
        main(args)
    assert refused.value.code == 2
    assert not ledger_path.exists()
    assert "ledger:" not in capsys.readouterr().out

    (corpus / "case.json").write_text(json.dumps(data))
    assert main(args) == 0
    assert "ledger: 1 record(s)" in capsys.readouterr().out
    ledger = RunLedger(str(ledger_path))
    assert [r.kind for r in ledger.records()] == ["verify"]
    ledger.close()
