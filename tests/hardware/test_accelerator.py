"""Accelerator assembly and the stall-overlap configuration."""

import dataclasses

import pytest

from repro.hardware.accelerator import StallOverlapConfig
from repro.hardware.hierarchy import auto_allocate
from repro.hardware.mac_array import MacArray
from repro.hardware.memory import single_rw_port
from repro.hardware.presets import KB, shared_lb_accelerator
from repro.workload.operand import Operand

from tests.conftest import toy_accelerator


def test_mac_array_sizes():
    array = MacArray(rows=16, cols=32, macs_per_pe=2)
    assert array.num_pes == 512
    assert array.size == 1024
    assert "1024 MACs" in array.describe()
    with pytest.raises(ValueError):
        MacArray(rows=0, cols=1)


def test_overlap_all_concurrent_groups_everything_together():
    config = StallOverlapConfig.all_concurrent()
    assert config.group_of("GB") == config.group_of("W-LB") == 0


def test_overlap_all_sequential():
    config = StallOverlapConfig.all_sequential(["A", "B", "C"])
    groups = {config.group_of(n) for n in "ABC"}
    assert len(groups) == 3


def test_overlap_explicit_groups_and_implicit_rest():
    config = StallOverlapConfig((frozenset({"GB"}), frozenset({"W-LB", "I-LB"})))
    assert config.group_of("GB") == 0
    assert config.group_of("W-LB") == config.group_of("I-LB") == 1
    # Unlisted memories share the implicit last group.
    assert config.group_of("O-Reg") == config.group_of("W-Reg") == 2


def test_overlap_rejects_duplicates_and_empty():
    with pytest.raises(ValueError, match="more than one group"):
        StallOverlapConfig((frozenset({"GB"}), frozenset({"GB", "X"})))
    with pytest.raises(ValueError, match="empty"):
        StallOverlapConfig((frozenset(),))


def test_accelerator_lookup_and_describe():
    acc = toy_accelerator()
    assert acc.memory_by_name("GB").name == "GB"
    with pytest.raises(KeyError):
        acc.memory_by_name("DRAM")
    text = acc.describe()
    assert "toy" in text and "GB" in text
    assert acc.peak_macs_per_cycle == 1
    assert set(acc.memory_names()) == {"W-Reg", "I-Reg", "O-Reg", "GB"}


def test_replace_stall_overlap():
    acc = toy_accelerator()
    seq = acc.replace_stall_overlap(StallOverlapConfig.all_sequential(acc.memory_names()))
    assert seq.stall_overlap.group_of("GB") != seq.stall_overlap.group_of("W-Reg")
    assert acc.stall_overlap.group_of("GB") == acc.stall_overlap.group_of("W-Reg")


def test_area_positive_and_selective():
    acc = toy_accelerator()
    full = acc.area_mm2()
    partial = acc.area_mm2(include=["W-Reg"])
    assert 0 < partial < full


def test_replace_memory_swaps_one_shared_level_in_every_chain():
    shares = {Operand.W: 16 * KB, Operand.I: 16 * KB, Operand.O: 32 * KB}
    acc = shared_lb_accelerator(lb_shares=shares).accelerator
    old = acc.memory_by_name("LB")
    bigger = acc.replace_memory("LB", size_bits=2 * old.instance.size_bits)
    new = bigger.memory_by_name("LB")
    assert new.instance == dataclasses.replace(
        old.instance, size_bits=2 * old.instance.size_bits
    )
    assert new.serves == old.serves
    assert new.allocation == old.allocation
    assert new.capacity_share == old.capacity_share
    for op in Operand:  # LB sits in all three chains: one object in each
        for before, after in zip(acc.hierarchy.levels(op), bigger.hierarchy.levels(op)):
            assert after is (new if before is old else before)
    assert len(bigger.hierarchy.unique_levels()) == len(acc.hierarchy.unique_levels())
    assert acc.memory_by_name("LB") is old  # the original is untouched


def test_replace_level_takes_a_level_with_new_ports():
    acc = toy_accelerator()
    gb = acc.memory_by_name("GB")
    single = dataclasses.replace(gb.instance, ports=single_rw_port(32.0))
    level = auto_allocate(single, gb.serves)
    swapped = acc.replace_level("GB", level)
    assert swapped.memory_by_name("GB") is level
    for op in Operand:
        assert swapped.hierarchy.outermost(op) is level
