"""CLI smoke tests (fast paths only)."""

import pytest

from repro.cli import build_parser, main


def test_parser_subcommands():
    parser = build_parser()
    args = parser.parse_args(["evaluate", "--layer", "8,16,32"])
    assert args.command == "evaluate"
    assert args.layer.total_macs == 8 * 16 * 32


def test_layer_parse_error(capsys):
    parser = build_parser()
    for bad in ("8,16", "8,16.5,32", "8,x,32"):
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(["evaluate", "--layer", bad])
        assert exc.value.code == 2
        assert "B,K,C" in capsys.readouterr().err


def test_evaluate_command_runs(capsys):
    rc = main(["evaluate", "--layer", "16,32,60", "--enumerate", "30", "--samples", "20"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "CC_ideal" in out and "TOTAL" in out


def test_search_command_runs(capsys):
    rc = main(["search", "--layer", "16,32,60", "--enumerate", "30",
               "--samples", "20", "--top", "3"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "mapping space" in out


def test_simulate_command_runs(capsys):
    rc = main(["simulate", "--layer", "16,16,24", "--enumerate", "20", "--samples", "10"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "accuracy" in out


@pytest.mark.slow
def test_validate_command_runs(capsys):
    rc = main(["validate", "--limit", "2", "--enumerate", "60", "--samples", "40"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "average accuracy" in out


def test_network_command_runs(capsys, tmp_path):
    csv_path = str(tmp_path / "net.csv")
    rc = main(["network", "--network", "transformer", "--limit", "2",
               "--enumerate", "40", "--samples", "30", "--csv", csv_path])
    assert rc == 0
    out = capsys.readouterr().out
    assert "total latency" in out
    assert (tmp_path / "net.csv").exists()


def test_sensitivity_command_runs(capsys):
    rc = main(["sensitivity", "--layer", "128,128,8", "--memory", "GB",
               "--bandwidths", "128,1024", "--enumerate", "40", "--samples", "30"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "bandwidth sweep" in out


def test_report_command_runs(capsys, tmp_path):
    out = str(tmp_path / "report.md")
    rc = main(["report", "--layer", "128,128,8", "--enumerate", "40",
               "--samples", "30", "--out", out])
    assert rc == 0
    text = (tmp_path / "report.md").read_text()
    assert "## Latency" in text and "## Bottlenecks" in text


def test_advise_command_runs(capsys):
    rc = main(["advise", "--layer", "128,128,8", "--enumerate", "30",
               "--samples", "20", "--top", "3"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "upgrade" in out


def test_advise_stats_prints_the_engine_line(capsys):
    rc = main(["advise", "--layer", "128,128,8", "--enumerate", "30",
               "--samples", "20", "--top", "3", "--stats"])
    assert rc == 0
    assert "engine:" in capsys.readouterr().out


def test_export_and_load_arch(capsys, tmp_path):
    path = str(tmp_path / "arch.json")
    assert main(["export-arch", "--out", path]) == 0
    rc = main(["evaluate", "--layer", "16,16,24", "--arch", path,
               "--enumerate", "20", "--samples", "15"])
    assert rc == 0
    assert "case-study-16x16" in capsys.readouterr().out


@pytest.mark.parametrize("text", ['{"name": "x", "mac_array": {"rows": ', "[]", None])
def test_bad_arch_file_is_a_one_line_usage_error(capsys, tmp_path, text):
    path = tmp_path / "arch.json"
    if text is not None:  # None: the file does not exist
        path.write_text(text)
    with pytest.raises(SystemExit) as exc:
        main(["search", "--layer", "8,8,8", "--arch", str(path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("repro-latency: error: argument --arch: ")
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("url", [
    "serve://127.0.0.1:1",   # nothing listens there
    "serve://no-port",
    "http://127.0.0.1:80",
])
def test_bad_engine_url_is_a_one_line_usage_error(capsys, url):
    with pytest.raises(SystemExit) as exc:
        main(["evaluate", "--layer", "8,8,8", "--engine", url])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("repro-latency: error: argument --engine: ")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_trace_out_reconciles_with_printed_report(capsys, tmp_path):
    import json
    import re

    from repro.observability import load_chrome_trace, reconcile_ss_overall

    path = str(tmp_path / "t.json")
    rc = main(["evaluate", "--layer", "16,32,60", "--enumerate", "30",
               "--samples", "20", "--trace", "--trace-out", path])
    assert rc == 0
    out = capsys.readouterr().out
    assert f"-> {path}" in out

    with open(path) as handle:
        doc = json.load(handle)  # valid Chrome trace-event JSON
    assert doc["traceEvents"][0]["ph"] == "M"

    printed = float(re.search(r"SS_overall\s*=\s*([\d.]+)", out).group(1))
    records = load_chrome_trace(path)
    assert reconcile_ss_overall(records) == printed


def test_trace_without_file_prints_summary(capsys):
    rc = main(["evaluate", "--layer", "16,32,60", "--enumerate", "30",
               "--samples", "20", "--trace"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "trace:" in out
    assert "model.evaluate" in out and "step1.dtl" in out


def test_metrics_flag_prints_prometheus_text(capsys):
    rc = main(["evaluate", "--layer", "16,32,60", "--enumerate", "30",
               "--samples", "20", "--metrics"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "# TYPE repro_engine_evaluations_total counter" in out
    assert "# TYPE repro_engine_evaluations gauge" in out
    assert "repro_mapper_searches_total 1" in out


def test_ledger_flag_appends_records(capsys, tmp_path):
    from repro.observability.ledger import RunLedger

    path = str(tmp_path / "runs.sqlite")
    rc = main(["evaluate", "--layer", "16,32,60", "--enumerate", "30",
               "--samples", "20", "--ledger", path])
    assert rc == 0
    assert "ledger:" in capsys.readouterr().out
    with RunLedger(path) as ledger:
        rows = ledger.records()
    assert rows
    assert all(r.kind == "evaluation" and r.mapping_fp for r in rows)
    # The winning mapping's re-evaluation is the last row; it carries the
    # full CC decomposition.
    assert rows[-1].total_cycles > 0 and rows[-1].ss_comb


def test_report_html_waterfall_reconciles_with_trace(capsys, tmp_path):
    from repro.observability import load_chrome_trace, reconcile_ss_overall
    from repro.observability.report import read_report_data

    html = str(tmp_path / "report.html")
    trace = str(tmp_path / "t.json")
    rc = main(["report", "--layer", "16,32,60", "--enumerate", "30",
               "--samples", "20", "--html", html, "--trace-out", trace,
               "--ledger", str(tmp_path / "runs.sqlite")])
    assert rc == 0
    data = read_report_data(html)
    reconciled = reconcile_ss_overall(load_chrome_trace(trace))
    assert data["waterfall"]["total"] == reconciled
    assert data["reconciled_ss_overall"] == reconciled
    assert data["ledger_entries"] > 0


def test_diff_command_gates_on_drift(capsys, tmp_path):
    import json

    from repro.observability.ledger import RunLedger

    a = str(tmp_path / "a.sqlite")
    b = str(tmp_path / "b.sqlite")
    common = ["--layer", "16,32,60", "--enumerate", "30", "--samples", "20"]
    assert main(["evaluate", *common, "--ledger", a]) == 0
    assert main(["evaluate", *common, "--ledger", b]) == 0
    capsys.readouterr()

    # Identical runs diff clean.
    assert main(["diff", a, b]) == 0
    assert "diff: clean" in capsys.readouterr().out

    # An injected SS_overall perturbation must fail the gate ...
    with RunLedger(b) as ledger:
        rows = ledger.records()
    rows[-1].ss_overall += 5.0
    perturbed = tmp_path / "perturbed.jsonl"
    with open(perturbed, "w") as handle:
        for row in rows:
            handle.write(json.dumps({"v": 2, **row.as_dict()}) + "\n")
    assert main(["diff", a, str(perturbed)]) == 1
    out = capsys.readouterr().out
    assert "ss_overall" in out and "DRIFT" in out

    # ... unless the run is warn-only or the tolerance allows it.
    assert main(["diff", a, str(perturbed), "--warn-only"]) == 0
    assert main(["diff", a, str(perturbed), "--abs-tol", "10"]) == 0


def test_diff_requires_a_candidate():
    assert main(["diff", "nonexistent.sqlite"]) == 2


@pytest.mark.parametrize("text", [
    "[1,2]\n",
    '{"kind": "evaluation", "ss_',
    '{"v": 4, "kind": "evaluation", "label": "a", "total_cycles": "abc"}\n',
    '{"v": 4, "kind": "evaluation", "label": "a", "ss_comb": [1, 2]}\n',
])
def test_diff_reports_a_malformed_snapshot_in_one_line(capsys, tmp_path, text):
    bad = tmp_path / "bad.jsonl"
    bad.write_text(text)
    assert main(["diff", str(bad), str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("repro-latency: error: snapshot ")
    assert "bad.jsonl" in err and "line 1" in err
    assert len(err.strip().splitlines()) == 1


def test_common_flags_shared_across_subcommands():
    parser = build_parser()
    for command, extra in (
        ("evaluate", ["--layer", "8,16,32"]),
        ("search", ["--layer", "8,16,32"]),
        ("validate", []),
        ("network", []),
    ):
        args = parser.parse_args(
            [command, *extra, "--trace", "--metrics", "--gb-bw", "256"]
        )
        assert args.trace and args.metrics
        assert args.gb_bw == 256.0
        assert args.trace_out is None


def test_build_engine_from_args_defaults_to_in_process_engine():
    from repro.cli import build_engine_from_args, _preset
    from repro.engine import EvaluationEngine

    parser = build_parser()
    args = parser.parse_args(["evaluate", "--layer", "8,16,32"])
    preset = _preset(args)
    engine = build_engine_from_args(preset, args)
    assert isinstance(engine, EvaluationEngine)
    assert engine.accelerator is preset.accelerator
