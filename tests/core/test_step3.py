"""Step 3: stall integration across memory modules."""

from repro.core.step2 import ServedMemoryStall
from repro.core.step3 import integrate_stalls
from repro.hardware.accelerator import StallOverlapConfig
from repro.workload.operand import Operand


def _stall(memory, ss, operand=Operand.W, level=0, port=None):
    return ServedMemoryStall(operand, level, memory, ss, port or (memory, "rd"))


def test_all_concurrent_takes_max():
    served = [_stall("A", 100), _stall("B", 70, Operand.I), _stall("C", 30, Operand.O)]
    result = integrate_stalls(served, StallOverlapConfig.all_concurrent())
    assert result.ss_overall == 100
    assert result.dominant[0].memory == "A"


def test_all_sequential_sums():
    served = [_stall("A", 100), _stall("B", 70, Operand.I), _stall("C", 30, Operand.O)]
    result = integrate_stalls(served, StallOverlapConfig.all_sequential("ABC"))
    assert result.ss_overall == 200
    assert len(result.group_stalls) == 3


def test_mixed_groups():
    config = StallOverlapConfig((frozenset({"A", "B"}),))  # C in implicit group
    served = [_stall("A", 100), _stall("B", 70, Operand.I), _stall("C", 30, Operand.O)]
    result = integrate_stalls(served, config)
    assert result.ss_overall == 100 + 30


def test_negative_group_clamped_to_zero():
    config = StallOverlapConfig.all_sequential("AB")
    served = [_stall("A", 50), _stall("B", -500, Operand.I)]
    result = integrate_stalls(served, config)
    # B's slack must not cancel A's stall (no-cancellation philosophy).
    assert result.ss_overall == 50


def test_overall_clamped_nonnegative():
    served = [_stall("A", -10), _stall("B", -20, Operand.I)]
    result = integrate_stalls(served)
    assert result.ss_overall == 0
    assert result.dominant == ()


def test_empty_input():
    result = integrate_stalls([])
    assert result.ss_overall == 0
    assert result.group_stalls == ()


def test_dominant_sorted_descending():
    config = StallOverlapConfig.all_sequential("ABC")
    served = [_stall("A", 10), _stall("B", 30, Operand.I), _stall("C", 20, Operand.O)]
    result = integrate_stalls(served, config)
    assert [s.ss for s in result.dominant] == [30, 20, 10]


def test_max_within_group_ignores_smaller_same_module_stalls():
    served = [
        _stall("A", 10, Operand.W, 0),
        _stall("A", 40, Operand.I, 1),
        _stall("A", 25, Operand.O, 0),
    ]
    result = integrate_stalls(served)
    assert result.ss_overall == 40


def test_shared_port_charged_once_across_sequential_groups():
    """One single-ported GB serving W/I/O hands the same SS_comb to all
    three served memories; a sequential partition must bill the port once,
    not once per group (the port can only be busy once)."""
    port = ("GB", "rw")
    served = [
        _stall("A", 100, Operand.W, port=port),
        _stall("B", 100, Operand.I, port=port),
        _stall("C", 100, Operand.O, port=port),
    ]
    result = integrate_stalls(served, StallOverlapConfig.all_sequential("ABC"))
    assert result.ss_overall == 100
    # The first group pays in full; later groups' copies are fully covered.
    assert [ss for _, ss in result.group_stalls] == [100, 0, 0]


def test_shared_port_pays_only_the_excess():
    port = ("GB", "rw")
    served = [
        _stall("A", 60, Operand.W, port=port),
        _stall("B", 100, Operand.I, port=port),
    ]
    result = integrate_stalls(served, StallOverlapConfig.all_sequential("AB"))
    # 60 from A's group, then B tops the same port up to its own 100.
    assert result.ss_overall == 100
    assert [ss for _, ss in result.group_stalls] == [60, 40]


def test_disjoint_ports_still_sum():
    served = [
        _stall("A", 100, Operand.W, port=("A", "rd")),
        _stall("B", 100, Operand.I, port=("B", "rd")),
    ]
    result = integrate_stalls(served, StallOverlapConfig.all_sequential("AB"))
    assert result.ss_overall == 200


def test_group_picks_member_with_largest_uncovered_stall():
    """Within a group the max is over *uncovered* stall, not raw SS."""
    shared = ("GB", "rw")
    served = [
        _stall("A", 100, Operand.W, port=shared),
        # Group 2: B shares the GB port (fully covered); C has its own
        # smaller stall on a private port that is NOT covered.
        _stall("B", 100, Operand.I, port=shared),
        _stall("C", 30, Operand.O, port=("C", "rd")),
    ]
    config = StallOverlapConfig((frozenset({"A"}), frozenset({"B", "C"})))
    result = integrate_stalls(served, config)
    assert result.ss_overall == 130
    assert result.dominant[-1].memory == "C"


def test_describe():
    result = integrate_stalls([_stall("A", 5)])
    assert "SS_overall=5.0" in result.describe()
