"""Bottleneck diagnosis."""

import dataclasses

import pytest

from repro.analysis.bottleneck import diagnose
from repro.core.model import LatencyModel
from repro.mapping.loop import Loop
from repro.workload.dims import LoopDim
from repro.workload.generator import dense_layer
from repro.workload.operand import Operand

from tests.conftest import make_mapping, toy_accelerator


def _mapping(b=8, k=4, c=4):
    layer = dense_layer(b, k, c)
    levels = {
        Operand.W: [[Loop(LoopDim.B, b)], [Loop(LoopDim.C, c), Loop(LoopDim.K, k)]],
        Operand.I: [[], [Loop(LoopDim.B, b), Loop(LoopDim.C, c), Loop(LoopDim.K, k)]],
        Operand.O: [[Loop(LoopDim.B, b), Loop(LoopDim.C, c)], [Loop(LoopDim.K, k)]],
    }
    return make_mapping(layer, {}, levels)


def test_no_findings_without_stall():
    acc = toy_accelerator(reg_bits=8, o_reg_bits=24 * 32, gb_read_bw=1024,
                          gb_write_bw=1024, reg_bw=64)
    report = LatencyModel(acc).evaluate(_mapping())
    assert diagnose(report) == []


def test_findings_ranked_and_described():
    acc = toy_accelerator(reg_bits=8, o_reg_bits=24 * 32, gb_read_bw=1, gb_write_bw=1)
    report = LatencyModel(acc).evaluate(_mapping())
    findings = diagnose(report)
    assert findings
    assert findings[0].rank == 1
    assert findings[0].stall_cycles >= findings[-1].stall_cycles
    text = findings[0].describe()
    assert "ReqBW" in text and "#1" in text


def test_advice_scales_with_severity():
    mildly = toy_accelerator(reg_bits=8, o_reg_bits=24 * 32, gb_read_bw=6, gb_write_bw=6)
    badly = toy_accelerator(reg_bits=8, o_reg_bits=24 * 32, gb_read_bw=1, gb_write_bw=1)
    mild_findings = diagnose(LatencyModel(mildly).evaluate(_mapping()))
    bad_findings = diagnose(LatencyModel(badly).evaluate(_mapping()))
    assert bad_findings
    # Severe mismatch advises traffic reduction, not just more bandwidth.
    assert any("reduce traffic" in f.advice for f in bad_findings)
    if mild_findings:
        assert all(f.stall_share <= 1.0 for f in mild_findings)


def test_top_limits_results():
    acc = toy_accelerator(reg_bits=8, o_reg_bits=24 * 32, gb_read_bw=1, gb_write_bw=1)
    report = LatencyModel(acc).evaluate(_mapping())
    assert len(diagnose(report, top=1)) == 1


def test_slim_report_with_stall_is_refused():
    """A stalling slim report (no port anatomy, as a search returns) is an
    error that says what to do; a stall-free one still has no findings."""
    stalling = LatencyModel(
        toy_accelerator(reg_bits=8, o_reg_bits=24 * 32, gb_read_bw=1, gb_write_bw=1)
    ).evaluate(_mapping())
    assert stalling.ss_overall > 0
    slim = dataclasses.replace(stalling, dtls=(), port_combinations={})
    with pytest.raises(ValueError, match=r"engine\.evaluate\(mapping, validate=False\)"):
        diagnose(slim)
    free = LatencyModel(
        toy_accelerator(reg_bits=8, o_reg_bits=24 * 32, gb_read_bw=1024,
                        gb_write_bw=1024, reg_bw=64)
    ).evaluate(_mapping())
    assert diagnose(dataclasses.replace(free, dtls=(), port_combinations={})) == []
