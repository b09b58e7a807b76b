"""``repro-latency top``: state folding and the byte-stable snapshot.

The committed fixture ``golden/progress_events.jsonl`` is produced by
:func:`build_fixture_events` (a deterministic emitter run on a fake
clock) and the dashboard it renders is pinned byte-for-byte against
``golden/top_snapshot.txt``. Regenerate both after an intentional
format change with::

    PYTHONPATH=src python tests/observability/test_top.py --regen
"""

import json
import pathlib

import pytest

from repro.observability import (
    DashboardState,
    ProgressEmitter,
    WorkerStalled,
    event_to_dict,
    read_events,
    render,
    run_top,
)

GOLDEN = pathlib.Path(__file__).parent / "golden"
FIXTURE = GOLDEN / "progress_events.jsonl"
SNAPSHOT = GOLDEN / "top_snapshot.txt"


class FakeClock:
    def __init__(self, start: float = 100.0) -> None:
        self.now = start

    def __call__(self) -> float:
        return self.now

    def tick(self, seconds: float) -> None:
        self.now += seconds


def build_fixture_events():
    """A deterministic recording exercising every dashboard feature:

    one finished run with cache stats and an incumbent, one stalled
    worker (with the derived warning in-stream), and one interrupted
    sweep — everything the renderer shows.
    """
    clock = FakeClock(100.0)
    emitter = ProgressEmitter(clock=clock)
    events = []
    emitter.subscribe(events.append)

    sweep = emitter.start_run(
        "arch_search.sweep", total_units=8, unit="points", accelerator="sweep"
    )
    mapper = emitter.start_run(
        "mapper.search", total_units=40, unit="evals",
        accelerator="eyeriss_like", layer="conv3",
    )
    mapper.cache_stats(10, 30)
    clock.tick(2.0)
    mapper.advance(20, wall_s=2.0, worker="pid:11")
    mapper.best(1500.0, total_cycles=1500.0, utilization=0.8, label="m0")
    clock.tick(2.0)
    mapper.advance(20, errors=2, wall_s=2.0, worker="pid:12")
    mapper.best(1200.0, total_cycles=1200.0, utilization=0.9, label="m7")
    mapper.finish()

    sweep.advance(4, wall_s=4.0, worker="pid:11", note="point 4")
    sweep.best(1200.0, label="eyeriss_like")
    clock.tick(12.0)           # pid:12 goes silent past the threshold
    sweep.advance(2, wall_s=12.0, worker="pid:11")
    emitter.emit(WorkerStalled(
        run_id=mapper.run_id, worker="pid:12",
        silent_for_s=12.0, threshold_s=10.0,
    ))
    clock.tick(1.0)
    sweep.interrupt("KeyboardInterrupt")
    return events


def write_fixture() -> None:
    lines = [
        json.dumps(event_to_dict(event), sort_keys=True)
        for event in build_fixture_events()
    ]
    FIXTURE.write_text("\n".join(lines) + "\n")
    state = DashboardState()
    state.apply_all(build_fixture_events())
    SNAPSHOT.write_text(render(state) + "\n")


def test_fixture_matches_generator():
    """The committed recording is exactly what the builder produces."""
    expected = [event_to_dict(e) for e in build_fixture_events()]
    got = [event_to_dict(e) for e in read_events(str(FIXTURE))]
    assert got == expected


def test_dashboard_state_folds_fixture():
    state = DashboardState()
    state.apply_all(read_events(str(FIXTURE)))

    assert list(state.runs) == ["r1", "r2"]
    sweep, mapper = state.runs["r1"], state.runs["r2"]
    assert sweep.status == "interrupted"
    assert sweep.done_units == 6
    assert sweep.total_units == 8
    assert sweep.best == 1200.0
    assert mapper.status == "done"
    assert mapper.done_units == 40
    assert mapper.errors == 2
    assert mapper.best == 1200.0
    assert set(state.worker_seen) == {"pid:11", "pid:12"}
    assert state.cache is not None and state.cache.hits == 10
    assert len(state.stalls) == 1
    assert state.all_closed


def test_all_closed_requires_every_run_closed():
    state = DashboardState()
    assert not state.all_closed  # vacuously closed streams are not "done"
    events = build_fixture_events()
    state.apply_all(events[:-1])
    assert not state.all_closed  # the sweep is still open
    state.apply(events[-1])
    assert state.all_closed


def test_render_snapshot_is_byte_stable():
    state = DashboardState()
    state.apply_all(read_events(str(FIXTURE)))
    assert render(state) + "\n" == SNAPSHOT.read_text()
    # pure function: re-rendering changes nothing
    assert render(state) + "\n" == SNAPSHOT.read_text()


def test_run_top_replay_writes_snapshot_and_exits_zero():
    lines = []
    code = run_top(str(FIXTURE), write=lines.append)
    assert code == 0
    assert "\n".join(lines) + "\n" == SNAPSHOT.read_text()


def test_footer_line_appends_without_touching_the_snapshot():
    state = DashboardState()
    state.apply_all(read_events(str(FIXTURE)))
    footer = "remote: 4 server eval(s), 1 coalesced, 0 warm, queue hw 2"
    with_footer = render(state, footer=footer)
    assert with_footer == render(state) + "\n" + footer
    # The committed snapshot is the footer-less rendering.
    assert render(state, footer="") + "\n" == SNAPSHOT.read_text()


def test_run_top_replay_queries_the_footer_supplier_once():
    calls = []

    def footer() -> str:
        calls.append(1)
        return "remote: live"

    lines = []
    assert run_top(str(FIXTURE), write=lines.append, footer=footer) == 0
    assert len(calls) == 1
    assert lines[0].endswith("remote: live")


def test_run_top_replay_missing_or_empty_file_exits_two(tmp_path):
    lines = []
    assert run_top(str(tmp_path / "nope.jsonl"), write=lines.append) == 2
    assert "no events file" in lines[0]
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    lines.clear()
    assert run_top(str(empty), write=lines.append) == 2
    assert "no events yet" in lines[0]


def test_run_top_follow_stops_when_all_runs_close(tmp_path):
    path = tmp_path / "events.jsonl"
    all_lines = FIXTURE.read_text().splitlines()
    split = len(all_lines) // 2
    path.write_text("\n".join(all_lines[:split]) + "\n")

    polls = 0

    def feed(_seconds: float) -> None:
        nonlocal polls
        polls += 1
        if polls == 1:  # the producer writes its second half, then closes
            with open(path, "a") as handle:
                handle.write("\n".join(all_lines[split:]) + "\n")

    frames = []
    code = run_top(
        str(path), follow=True, poll_s=0.0, max_polls=50,
        write=frames.append, sleep=feed,
    )
    assert code == 0
    assert polls <= 2  # returned as soon as every run closed
    assert frames[-1] + "\n" == SNAPSHOT.read_text()


def test_run_top_follow_max_polls_bounds_an_idle_tail(tmp_path):
    path = tmp_path / "events.jsonl"
    path.write_text("")  # exists but never grows
    frames = []
    code = run_top(
        str(path), follow=True, poll_s=0.0, max_polls=3,
        write=frames.append, sleep=lambda _s: None,
    )
    assert code == 2  # saw nothing at all
    assert frames == [f"top: {path} holds no events yet"]


MALFORMED = {
    "unknown-type": '{"type": "NoSuchEvent", "run_id": "r1"}',
    "not-an-object": "[1, 2]",
    "not-json": '{"type": "Heartbeat", "run',
    "mistyped-field": '{"type": "ChunkCompleted", "run_id": "r1", "done_units": "abc"}',
}


@pytest.mark.parametrize("follow", [False, True], ids=["replay", "follow"])
@pytest.mark.parametrize("line", MALFORMED.values(), ids=list(MALFORMED))
def test_run_top_malformed_line_exits_two_with_one_line(tmp_path, line, follow):
    """A complete line that does not hold an event is one ``top:`` line
    naming the file and line, and exit 2: not a traceback, and not a
    dashboard that renders ``abc/? units``."""
    path = tmp_path / "events.jsonl"
    path.write_text(FIXTURE.read_text().splitlines()[0] + "\n" + line + "\n")
    lines = []
    code = run_top(
        str(path), follow=follow, poll_s=0.0, max_polls=2,
        write=lines.append, sleep=lambda _s: None,
    )
    assert code == 2
    assert len(lines) == 1 and lines[0].startswith(f"top: {path} line 2: ")


if __name__ == "__main__":
    import sys

    if "--regen" in sys.argv:
        write_fixture()
        print(f"wrote {FIXTURE} and {SNAPSHOT}")
