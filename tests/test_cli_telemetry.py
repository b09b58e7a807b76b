"""CLI telemetry: --events recordings, the top dashboard, SIGINT exit."""

import pathlib

from repro.cli import main
from repro.observability import (
    ChunkCompleted,
    RunFinished,
    RunInterrupted,
    RunStarted,
    load_snapshot,
    read_events,
)

FIXTURE = pathlib.Path(__file__).parent / "observability" / "golden"


def test_search_events_writes_recording(capsys, tmp_path):
    events_path = str(tmp_path / "events.jsonl")
    rc = main(["search", "--layer", "16,32,60", "--enumerate", "30",
               "--samples", "20", "--events", events_path])
    assert rc == 0
    events = read_events(events_path)
    assert isinstance(events[0], RunStarted)
    assert events[0].flow == "mapper.search"
    assert events[0].unit == "evals"
    assert isinstance(events[-1], RunFinished)
    chunks = [e for e in events if isinstance(e, ChunkCompleted)]
    assert chunks and chunks[-1].done_units == events[-1].done_units
    # the console subscriber narrates lifecycle events
    out = capsys.readouterr().out
    assert "mapper.search started" in out
    assert "finished:" in out


def test_arch_search_command_streams_events(capsys, tmp_path):
    events_path = str(tmp_path / "events.jsonl")
    rc = main(["arch-search", "--layer", "16,32,60", "--arrays", "16x16",
               "--enumerate", "20", "--samples", "10",
               "--events", events_path])
    assert rc == 0
    out = capsys.readouterr().out
    assert "design point(s)" in out
    assert "pareto front" in out
    events = read_events(events_path)
    sweeps = [e for e in events if isinstance(e, RunStarted)
              and e.flow == "arch_search.sweep"]
    assert len(sweeps) == 1
    assert sweeps[0].unit == "points"
    assert any(isinstance(e, RunFinished) and e.run_id == sweeps[0].run_id
               for e in events)


def test_arch_search_rejects_unknown_array_label(capsys):
    rc = main(["arch-search", "--layer", "16,32,60", "--arrays", "9x9"])
    assert rc == 2
    assert "unknown array label" in capsys.readouterr().err


def test_top_replays_committed_fixture_byte_stable(capsys):
    rc = main(["top", str(FIXTURE / "progress_events.jsonl")])
    assert rc == 0
    expected = (FIXTURE / "top_snapshot.txt").read_text()
    assert capsys.readouterr().out == expected


def test_top_missing_recording_exits_two(capsys, tmp_path):
    rc = main(["top", str(tmp_path / "absent.jsonl")])
    assert rc == 2
    assert "no events file" in capsys.readouterr().out


def test_top_replays_a_cli_recording(capsys, tmp_path):
    events_path = str(tmp_path / "events.jsonl")
    assert main(["search", "--layer", "16,32,60", "--enumerate", "20",
                 "--samples", "10", "--events", events_path]) == 0
    capsys.readouterr()
    assert main(["top", events_path]) == 0
    out = capsys.readouterr().out
    assert "repro-latency top" in out
    assert "mapper.search" in out
    assert "done in" in out


def test_sigint_exits_130_with_interrupted_ledger_row(
    capsys, tmp_path, monkeypatch
):
    """Ctrl-C mid-sweep: partial rows + kind="interrupted" row land in the
    ledger, a RunInterrupted closes the event stream, and main exits 130."""
    from repro.dse.arch_search import ArchSearch

    real = ArchSearch.evaluate_one
    calls = {"n": 0}

    def interrupt_after_two(self, *args, **kwargs):
        if calls["n"] >= 2:
            raise KeyboardInterrupt
        calls["n"] += 1
        return real(self, *args, **kwargs)

    monkeypatch.setattr(ArchSearch, "evaluate_one", interrupt_after_two)

    events_path = str(tmp_path / "events.jsonl")
    ledger_path = str(tmp_path / "run.sqlite")
    rc = main(["arch-search", "--layer", "16,32,60", "--arrays", "16x16",
               "--enumerate", "20", "--samples", "10",
               "--events", events_path, "--ledger", ledger_path])
    assert rc == 130
    err = capsys.readouterr().err
    assert "interrupted: partial results checkpointed" in err

    rows = load_snapshot(ledger_path)
    interrupted = [r for r in rows if r.kind == "interrupted"]
    assert len(interrupted) == 1
    assert interrupted[0].label == "arch_search.sweep"
    assert interrupted[0].extra["done_units"] == 2.0
    assert len(rows) > 1  # the completed points' evaluations were flushed

    events = read_events(events_path)
    stops = [e for e in events if isinstance(e, RunInterrupted)]
    assert len(stops) == 1
    assert stops[0].done_units == 2
    assert stops[0].reason == "KeyboardInterrupt"
    # nothing after the stream closed
    assert not any(isinstance(e, RunFinished)
                   and e.run_id == stops[0].run_id for e in events)


def test_sigint_during_engine_batch_drains_and_checkpoints(
    capsys, tmp_path, monkeypatch
):
    """A KeyboardInterrupt inside evaluate_many still leaves the engine's
    own interruption row (the run is owned by the enclosing mapper here,
    so the stream shows exactly one RunInterrupted)."""
    import repro.engine.evaluation as evaluation

    def interrupt_batch(self, mappings, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(
        evaluation.EvaluationEngine, "evaluate_many", interrupt_batch
    )

    events_path = str(tmp_path / "events.jsonl")
    rc = main(["search", "--layer", "16,32,60", "--enumerate", "10",
               "--samples", "30", "--events", events_path])
    assert rc == 130
    events = read_events(events_path)
    stops = [e for e in events if isinstance(e, RunInterrupted)]
    assert len(stops) == 1


# --------------------------------------------------------------------- #
# Campaign plane: --campaign runs, SIGINT partial rows, the gate
# --------------------------------------------------------------------- #


def _run_campaign_ledger(tmp_path, name, filename="camp.sqlite"):
    ledger_path = str(tmp_path / filename)
    rc = main(["search", "--layer", "16,32,60", "--enumerate", "30",
               "--samples", "20", "--campaign", name,
               "--ledger", ledger_path])
    assert rc == 0
    return ledger_path


def test_campaign_run_writes_summary_and_phase_rows(capsys, tmp_path):
    ledger_path = _run_campaign_ledger(tmp_path, "cli-camp")
    out = capsys.readouterr().out
    assert "campaign 'cli-camp' (complete)" in out
    rows = load_snapshot(ledger_path)
    campaigns = [r for r in rows if r.kind == "campaign"]
    phases = [r for r in rows if r.kind == "campaign_phase"]
    assert len(campaigns) == 1 and campaigns[0].label == "cli-camp"
    assert campaigns[0].extra["conserved"] == 1.0
    assert phases and phases[0].label == "mapper"
    # Every evaluation row of the run is stamped with the campaign name.
    evals = [r for r in rows if r.kind == "evaluation"]
    assert evals and all(r.campaign == "cli-camp" for r in evals)


def test_sigint_flushes_partial_campaign_row(capsys, tmp_path, monkeypatch):
    """Ctrl-C mid-sweep: alongside the kind="interrupted" row, a partial
    campaign summary (funnel counts + incumbent-so-far) lands in the
    ledger and main still exits 130."""
    from repro.dse.arch_search import ArchSearch

    real = ArchSearch.evaluate_one
    calls = {"n": 0}

    def interrupt_after_two(self, *args, **kwargs):
        if calls["n"] >= 2:
            raise KeyboardInterrupt
        calls["n"] += 1
        return real(self, *args, **kwargs)

    monkeypatch.setattr(ArchSearch, "evaluate_one", interrupt_after_two)

    ledger_path = str(tmp_path / "run.sqlite")
    rc = main(["arch-search", "--layer", "16,32,60", "--arrays", "16x16",
               "--enumerate", "20", "--samples", "10",
               "--campaign", "interrupted-sweep", "--ledger", ledger_path])
    assert rc == 130
    out = capsys.readouterr()
    assert "interrupted: partial results checkpointed" in out.err
    assert "campaign 'interrupted-sweep' (partial)" in out.out

    rows = load_snapshot(ledger_path)
    assert [r.kind for r in rows if r.kind == "interrupted"]
    (summary,) = [r for r in rows if r.kind == "campaign"]
    assert summary.label == "interrupted-sweep"
    assert summary.extra["partial"] == 1.0
    assert summary.extra["enumerated"] > 0
    assert "best_objective" in summary.extra     # incumbent-so-far kept
    # The flow's own handler flushed; the CLI epilogue must not have
    # written a second copy.
    assert len([r for r in rows if r.kind == "campaign"]) == 1


def test_campaign_gate_subcommand_exit_codes(capsys, tmp_path):
    base = _run_campaign_ledger(tmp_path, "gated", "base.sqlite")
    cand = _run_campaign_ledger(tmp_path, "gated", "cand.sqlite")
    capsys.readouterr()

    assert main(["campaign", "gate", base, cand]) == 0
    assert "gate: ok" in capsys.readouterr().out

    # A regressed candidate fails the gate unless --warn-only.
    import json

    from repro.observability import RunRecord

    rows = load_snapshot(cand)
    bad = str(tmp_path / "bad.jsonl")
    with open(bad, "w") as handle:
        for rec in rows:
            if rec.kind == "campaign":
                extra = dict(rec.extra)
                extra["best_objective"] = extra["best_objective"] * 10
                rec = RunRecord(**{**rec.as_dict(), "extra": extra})
            from repro.observability import SCHEMA_VERSION
            line = {"v": SCHEMA_VERSION}
            line.update(rec.as_dict())
            handle.write(json.dumps(line) + "\n")
    assert main(["campaign", "gate", base, bad]) == 1
    assert "FAIL best_objective" in capsys.readouterr().out
    assert main(["campaign", "gate", base, bad, "--warn-only"]) == 0
    assert "--warn-only" in capsys.readouterr().out

    # Missing campaign rows are usage errors, not regressions.
    empty = str(tmp_path / "empty.jsonl")
    open(empty, "w").close()
    assert main(["campaign", "gate", empty, cand]) == 2


def test_campaign_list_show_compare_html(capsys, tmp_path):
    ledger_path = _run_campaign_ledger(tmp_path, "inspect")
    capsys.readouterr()

    assert main(["campaign", "list", ledger_path]) == 0
    assert "inspect" in capsys.readouterr().out

    html_path = str(tmp_path / "campaign.html")
    assert main(["campaign", "show", ledger_path, "--html", html_path]) == 0
    out = capsys.readouterr().out
    assert "funnel" in out and "conserved" in out
    from repro.observability import read_campaign_report_data

    assert read_campaign_report_data(html_path)["campaign"] == "inspect"

    assert main(["campaign", "compare", ledger_path, ledger_path]) == 0
    assert "best_objective" in capsys.readouterr().out

    # No campaign rows at all: list exits 1, show exits 2.
    empty = str(tmp_path / "none.jsonl")
    open(empty, "w").close()
    assert main(["campaign", "list", empty]) == 1
    assert main(["campaign", "show", empty]) == 2
