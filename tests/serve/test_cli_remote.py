"""Every what-if subcommand honours ``--engine``: it runs on the daemon,
and on the served machine rather than the local ``--chip``."""

import pytest

from repro.cli import main
from repro.hardware.presets import shared_lb_accelerator
from repro.serve import connect


@pytest.mark.parametrize("argv", [
    ["advise", "--layer", "32,64,60", "--top", "2"],
    # "LB" exists only on the served machine, not on the local --chip.
    ["sensitivity", "--layer", "32,64,60", "--memory", "LB",
     "--bandwidths", "128,512"],
    ["arch-search", "--layer", "16,32,60", "--arrays", "16x16"],
], ids=lambda argv: argv[0])
def test_what_if_subcommands_evaluate_on_the_daemon(make_server, capsys, argv):
    server = make_server(preset=shared_lb_accelerator())
    probe = connect(server.url)
    before = probe.server_stats()["requests"]
    rc = main(argv + ["--enumerate", "20", "--samples", "10",
                      "--engine", server.url, "--stats"])
    assert rc == 0
    assert probe.server_stats()["requests"] > before
    probe.close()
    assert "engine:" in capsys.readouterr().out
