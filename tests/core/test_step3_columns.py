"""The Step-3 column kernel against a per-lane reference.

``_per_lane`` is the per-lane integration the kernel replaced, kept here
verbatim as the reference: each lane's present entries, integrated one
at a time. Every case must agree with it under ``==`` on every lane:
hand-built columns, and the served stalls of real batches.
"""

from typing import Dict, Hashable, List, Sequence, Tuple

import numpy as np
import pytest

from repro.core.batch import BatchEvaluator
from repro.core.step1 import ModelOptions
from repro.core.step3 import integrate_lane, integrate_stall_entries
from tests.core.test_batch_bracket import _generated_batches, _preset_batches


def _per_lane(
    entries: Sequence[Tuple[int, float, Hashable]],
) -> Tuple[float, List[Tuple[int, float, int]]]:
    groups: Dict[int, List[int]] = {}
    for idx, (gid, __, ___) in enumerate(entries):
        groups.setdefault(gid, []).append(idx)
    per_group: List[Tuple[int, float, int]] = []
    charged: Dict[Hashable, float] = {}
    total = 0.0
    for gid in sorted(groups):
        members = groups[gid]
        worst = max(
            members,
            key=lambda i: entries[i][1] - charged.get(entries[i][2], 0.0),
        )
        __, ss, port = entries[worst]
        contribution = max(0.0, ss - charged.get(port, 0.0))
        if contribution > 0:
            charged[port] = charged.get(port, 0.0) + contribution
        per_group.append((gid, contribution, worst))
        total += contribution
    return max(0.0, total), per_group


def _check(gids, ss, ports, present):
    """Kernel == reference on every lane (and integrate_lane == reference)."""
    ss = [np.asarray(col, dtype=np.float64) for col in ss]
    ports = [np.asarray(col, dtype=np.int64) for col in ports]
    present = [np.asarray(col, dtype=bool) for col in present]
    n_ports = int(max(col.max() for col in ports)) + 1
    total, per_group = integrate_stall_entries(gids, ss, ports, present, n_ports)
    for lane in range(total.shape[0]):
        kept = [e for e in range(len(gids)) if present[e][lane]]
        entries = [(gids[e], float(ss[e][lane]), int(ports[e][lane])) for e in kept]
        want_total, want_groups = _per_lane(entries)
        got_groups = [
            (gid, float(contribution[lane]), kept.index(int(worst[lane])))
            for gid, contribution, worst, has in per_group
            if has[lane]
        ]
        assert float(total[lane]) == want_total
        assert got_groups == want_groups
        assert integrate_lane(entries) == (want_total, want_groups)
    return total, per_group


def test_a_port_shared_across_groups_is_charged_once():
    # Entries 0 and 2 sit in different groups but are limited by port 0;
    # lane 1 limits entry 2 by a port of its own instead.
    total, __ = _check(
        gids=[0, 0, 1],
        ss=[[10.0, 10.0], [4.0, 4.0], [12.0, 12.0]],
        ports=[[0, 0], [1, 1], [0, 2]],
        present=[[True, True]] * 3,
    )
    assert total.tolist() == [12.0, 22.0]


def test_equal_effective_stalls_go_to_the_first_member():
    # Lane 0: a plain tie. Lane 1: entry 2 reaches entry 3's effective
    # stall only after group 0 charged its port.
    __, per_group = _check(
        gids=[0, 1, 1, 1],
        ss=[[3.0, 5.0], [7.0, 1.0], [7.0, 9.0], [2.0, 4.0]],
        ports=[[0, 1], [1, 2], [2, 1], [3, 3]],
        present=[[True, True]] * 4,
    )
    assert per_group[1][2].tolist() == [1, 2]


def test_absent_members_and_an_all_absent_group():
    # Group 1 has no present member in lane 0; lane 2 has no entry at all.
    __, per_group = _check(
        gids=[0, 1, 1, 2],
        ss=[[1.0, 2.0, 3.0], [9.0, 9.0, 9.0], [8.0, 1.0, 8.0], [5.0, 6.0, 7.0]],
        ports=[[0, 0, 0], [1, 1, 1], [2, 2, 2], [3, 3, 3]],
        present=[
            [True, True, False],
            [False, True, False],
            [False, False, False],
            [True, False, False],
        ],
    )
    assert [has.tolist() for __, ___, ____, has in per_group] == [
        [True, True, False], [False, True, False], [True, False, False],
    ]


@pytest.mark.parametrize("shared", [False, True])
def test_all_negative_slack_integrates_to_zero(shared):
    total, per_group = _check(
        gids=[0, 0, 1, 2],
        ss=[[-1.0, -0.5], [-3.0, -0.0], [-2.5, -7.0], [-4.0, -1e-9]],
        ports=[[0, 0], [1, 1], [0 if shared else 2] * 2, [3, 3]],
        present=[[True, True]] * 4,
    )
    assert total.tolist() == [0.0, 0.0]
    assert all(c.tolist() == [0.0, 0.0] for __, c, ___, ____ in per_group)


def test_no_entries_is_no_stall():
    assert integrate_lane([]) == _per_lane([]) == (0.0, [])


@pytest.mark.parametrize("options", [ModelOptions(), ModelOptions.paper_faithful()],
                         ids=["truncated-repeats", "full-repeats"])
def test_served_stalls_of_real_batches_integrate_as_the_reference(options):
    # The batch core's Step 3 on the served stalls of the preset sweeps and
    # of generated machines (the bracket tests' generator, run longer so
    # that some lanes get a cross-group port credit), lane by lane against
    # the per-lane reference: total, per-group stalls and dominant sources.
    lanes = credited = 0
    for accelerator, mappings in [*_preset_batches(), *_generated_batches(200)]:
        if not mappings:
            continue
        overlap = accelerator.stall_overlap
        result = BatchEvaluator(accelerator, options).evaluate(mappings)
        for report in result.reports:
            served = report.served_stalls
            entries = [(overlap.group_of(s.memory), s.ss, s.limiting_port) for s in served]
            want_total, want_groups = _per_lane(entries)
            assert report.ss_overall == want_total
            assert report.integration.group_stalls == tuple(
                (gid, contribution) for gid, contribution, __ in want_groups
            )
            assert report.integration.dominant == tuple(sorted(
                (served[worst] for __, contribution, worst in want_groups
                 if contribution > 0),
                key=lambda s: -s.ss,
            ))
            worst = {}
            for gid, ss, __ in entries:
                worst[gid] = max(worst.get(gid, 0.0), ss)
            credited += sum(worst.values()) != want_total
            lanes += 1
    assert lanes > 1000 and credited > 0
