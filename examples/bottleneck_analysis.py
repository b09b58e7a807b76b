#!/usr/bin/env python
"""Bottleneck hunting: find the stalling link and fix it.

Section V closes with the model's design guidance: match ReqBW with RealBW
or reduce traffic on the hot link. This example takes a BW-starved design,
ranks its stall sources, renders the Fig. 3-style timeline of the worst
DTL, applies the model's own advice (raise the GB bandwidth), and shows
the stall disappearing.

Run:  python examples/bottleneck_analysis.py
"""

from repro import TemporalMapper, case_study_accelerator, dense_layer
from repro.analysis.bottleneck import diagnose
from repro.analysis.timeline import render_timeline
from repro.dse.mapper import MapperConfig


def evaluate(gb_bw: float, layer):
    preset = case_study_accelerator(gb_read_bw=gb_bw)
    mapper = TemporalMapper(
        preset.accelerator, preset.spatial_unrolling,
        MapperConfig(max_enumerated=200, samples=150),
    )
    best = mapper.best_mapping(layer)
    return preset, best


def main() -> None:
    layer = dense_layer(512, 512, 8)  # the Output-dominant Fig. 7 corner

    preset, best = evaluate(128.0, layer)
    report = best.report
    print(f"GB at 128 b/cyc: {report.summary()}\n")

    findings = diagnose(report)
    print("Ranked stall sources and remedies:")
    for finding in findings:
        print("  " + finding.describe())

    worst = findings[0]
    stalling_dtls = [
        d for d in report.dtls
        if d.port_key == (worst.memory, worst.port) and d.ss_u > 0
    ]
    if stalling_dtls:
        print("\nTimeline of the worst DTL (Fig. 3 style):")
        print(render_timeline(max(stalling_dtls, key=lambda d: d.ss_u)))

    # Apply the advice: scale the GB port bandwidth.
    for bw in (256.0, 512.0, 1024.0):
        __, better = evaluate(bw, layer)
        r = better.report
        print(f"\nGB at {bw:5.0f} b/cyc: total {r.total_cycles:9.0f} cc, "
              f"temporal stall {r.ss_overall:9.0f} cc, "
              f"utilization {r.utilization:6.1%}")

    print(
        "\nTakeaway: the model pinpoints the bottleneck port, quantifies the "
        "ReqBW/RealBW mismatch, and predicts how far extra bandwidth (e.g. "
        "3D-stacked SRAM links) actually helps."
    )


if __name__ == "__main__":
    main()
