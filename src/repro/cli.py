"""Command-line interface: evaluate, simulate, search and run case studies.

Examples::

    repro-latency evaluate --layer 64,128,1200 --gb-bw 128
    repro-latency evaluate --layer 64,128,1200 --trace --trace-out t.json
    repro-latency simulate --layer 64,128,1200
    repro-latency search --layer 64,128,1200 --samples 500 --top 5
    repro-latency validate --limit 4 --metrics
    repro-latency evaluate --layer 64,128,1200 --ledger runs.sqlite
    repro-latency report --layer 64,128,1200 --html report.html
    repro-latency diff baseline.jsonl runs.sqlite --rel-tol 1e-6
    repro-latency verify --examples 200 --seed 0
    repro-latency serve --port 7421 --ledger serve.sqlite --events serve.jsonl
    repro-latency evaluate --layer 64,128,1200 --engine serve://127.0.0.1:7421

Every subcommand shares one option set (chip selection, mapper budget,
engine, observability) declared once on a parent parser;
:func:`build_engine_from_args` turns the parsed options into the
:class:`~repro.engine.Evaluator` all flows evaluate through — an
in-process :class:`~repro.engine.EvaluationEngine`, or (with
``--engine URL``) a :class:`~repro.serve.RemoteEngine` speaking to a
``repro-latency serve`` daemon.
``--ledger PATH`` makes any run append its evaluations to a persistent
:class:`~repro.observability.RunLedger`; ``diff`` compares two ledger
snapshots (or two git SHAs inside one ledger) and exits non-zero when a
latency-model output drifts beyond tolerance — the CI regression gate.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, NoReturn, Optional, Tuple

from repro.dse.mapper import MapperConfig, TemporalMapper
from repro.engine import EvaluationEngine, Evaluator
from repro.hardware.presets import (
    Preset,
    case_study_accelerator,
    inhouse_accelerator,
)
from repro.observability import (
    CampaignRecorder,
    JsonlSink,
    MetricsRegistry,
    MetricsSubscriber,
    NULL_CAMPAIGN,
    NULL_EMITTER,
    NULL_LEDGER,
    NULL_METRICS,
    NULL_TRACER,
    ProgressEmitter,
    RunLedger,
    Tracer,
    telemetry,
    use_telemetry,
    write_chrome_trace,
)
from repro.observability.progress import console_subscriber
from repro.simulator.engine import CycleSimulator
from repro.simulator.result import accuracy
from repro.workload.generator import parse_dense_layer
from repro.workload.im2col import im2col
from repro.workload.networks import validation_layers


def _parse_layer(text: str):
    try:
        return parse_dense_layer(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _bad_argument(option: str, message: object) -> NoReturn:
    # One line and exit code 2, as argparse reports a bad argument.
    print(f"repro-latency: error: argument {option}: {message}", file=sys.stderr)
    raise SystemExit(2) from None


def _preset(args: argparse.Namespace):
    if args.arch:
        from repro.hardware.serde import SerdeError, load_preset

        try:
            return load_preset(args.arch)
        except (SerdeError, OSError) as exc:
            _bad_argument("--arch", exc)
    if args.chip == "inhouse":
        return inhouse_accelerator()
    return case_study_accelerator(gb_read_bw=args.gb_bw)


def build_engine_from_args(preset, args: argparse.Namespace):
    """The engine every CLI flow evaluates through (one place, not nine).

    Honors ``--engine URL`` (a :class:`~repro.serve.RemoteEngine`
    connected to a running ``repro-latency serve`` daemon).
    Subcommand handlers must route all evaluations through the returned
    engine so ``--stats``/``--metrics`` see the whole run. A malformed or
    unreachable URL ends the run like any bad argument: one line on
    stderr and exit code 2.
    """
    url = getattr(args, "engine", None)
    if url:
        from repro.serve.client import RemoteEngine, RemoteEvaluationError

        try:
            return RemoteEngine(url)
        except ValueError as exc:  # a bad URL, or a ProtocolError handshake
            _bad_argument("--engine", exc)
        except (OSError, RemoteEvaluationError) as exc:
            _bad_argument("--engine", f"cannot reach {url}: {exc}")
    return EvaluationEngine.from_preset(preset)


def _machine(args: argparse.Namespace) -> Tuple[Preset, Evaluator]:
    """Which machine, which engine: the one rule every flow follows.

    Locally the machine is ``--chip``/``--arch`` and the engine runs
    in-process. With ``--engine URL`` the flow runs on the *served*
    machine (the daemon's preset), so the mapper's geometry always
    matches the machine the engine evaluates.
    """
    preset = _preset(args)
    engine = build_engine_from_args(preset, args)
    if getattr(args, "engine", None):
        preset = Preset(
            accelerator=engine.accelerator,
            spatial_unrolling=dict(engine.spatial_unrolling),
        )
    return preset, engine


def _mapper_config(args: argparse.Namespace, **overrides) -> MapperConfig:
    """The mapper budget of ``--enumerate``/``--samples``."""
    return MapperConfig(
        max_enumerated=args.enumerate, samples=args.samples, **overrides
    )


def _mapper(args: argparse.Namespace) -> TemporalMapper:
    preset, engine = _machine(args)
    return TemporalMapper(
        preset.accelerator, preset.spatial_unrolling, _mapper_config(args),
        engine=engine,
    )

def _finish(engine: EvaluationEngine, args: argparse.Namespace) -> int:
    if args.stats:
        print(engine.stats.summary())
    telemetry().metrics.ingest("repro_engine", engine.stats.snapshot())
    engine.close()
    return 0


def _traced_report(mapper: TemporalMapper, best):
    """Re-emit the winning mapping's span tree after a search.

    A search traces every candidate; the *last* ``model.evaluate`` span
    would otherwise belong to an arbitrary loser. Projecting the winner's
    report appends its spans last, so trace consumers —
    ``reconcile_ss_overall`` above all — read the same numbers the report
    prints.
    """
    from repro.core.batch import BatchEvaluator
    from repro.core.report import trace_report

    options = mapper.engine.options
    report = best.report
    if not report.dtls:  # a remote engine's reports travel slim
        report = BatchEvaluator(mapper.accelerator, options).evaluate(
            [best.mapping]
        ).full_report(0)
    trace_report(report, mapper.accelerator.stall_overlap, options)


def _cmd_evaluate(args: argparse.Namespace) -> int:
    mapper = _mapper(args)
    best = mapper.best_mapping(args.layer)
    if telemetry().tracer.enabled:
        _traced_report(mapper, best)
    print(best.mapping.describe())
    print(best.report.summary())
    energy = mapper.engine.evaluate_energy(best.mapping)
    print(energy.summary())
    return _finish(mapper.engine, args)


def _cmd_simulate(args: argparse.Namespace) -> int:
    mapper = _mapper(args)
    best = mapper.best_mapping(args.layer)
    print(best.report.summary())
    sim = CycleSimulator(mapper.accelerator, best.mapping).run()
    print(sim.summary())
    print(f"model-vs-simulator accuracy: {accuracy(best.report.total_cycles, sim.total_cycles):.1%}")
    return _finish(mapper.engine, args)


def _cmd_search(args: argparse.Namespace) -> int:
    mapper = _mapper(args)
    results = mapper.search(args.layer)
    print(f"mapping space: {mapper.space_size(args.layer)} orders; showing top {args.top}")
    for result in results[: args.top]:
        print("  " + result.describe())
    return _finish(mapper.engine, args)


def _cmd_validate(args: argparse.Namespace) -> int:
    mapper = _mapper(args)
    layers = validation_layers()[: args.limit]
    accs: List[float] = []
    for layer in layers:
        lowered = im2col(layer)
        best = mapper.best_mapping(lowered)
        sim = CycleSimulator(mapper.accelerator, best.mapping).run()
        acc = accuracy(best.report.total_cycles, sim.total_cycles)
        accs.append(acc)
        print(
            f"{layer.name or '?':8s} model {best.report.total_cycles:10.0f}  "
            f"sim {sim.total_cycles:10.0f}  accuracy {acc:6.1%}"
        )
    print(f"average accuracy: {sum(accs) / len(accs):.1%}")
    return _finish(mapper.engine, args)


def _cmd_network(args: argparse.Namespace) -> int:
    from repro.analysis.export import to_csv
    from repro.analysis.network import NetworkEvaluator
    from repro.workload.networks import (
        hand_tracking_layers,
        resnet18_layers,
        transformer_gemm_layers,
    )

    preset, engine = _machine(args)
    zoo = {
        "handtracking": lambda: hand_tracking_layers(limit=args.limit),
        "resnet18": lambda: resnet18_layers()[: args.limit],
        "transformer": lambda: transformer_gemm_layers()[: args.limit],
    }
    layers = zoo[args.network]()
    evaluator = NetworkEvaluator(
        preset,
        mapper_config=_mapper_config(args),
        with_energy=True,
        engine=engine,
    )
    result = evaluator.evaluate(layers)
    print(result.summary())
    if args.csv:
        to_csv(evaluator.layer_table(result), args.csv)
        print(f"per-layer table written to {args.csv}")
    return _finish(evaluator.engine, args)


def _cmd_sensitivity(args: argparse.Namespace) -> int:
    from repro.core.sensitivity import SensitivityAnalyzer

    preset, engine = _machine(args)
    analyzer = SensitivityAnalyzer(
        preset.accelerator, preset.spatial_unrolling, _mapper_config(args),
        engine=engine,
    )
    bandwidths = [float(b) for b in args.bandwidths.split(",")]
    curve = analyzer.bandwidth_sweep(args.layer, args.memory, bandwidths)
    print(f"{args.memory} bandwidth sweep for {args.layer.describe()}:")
    for p in curve.points:
        print(f"  {p.value:8.0f} b/cyc -> {p.total_cycles:10.0f} cc "
              f"(stall {p.ss_overall:9.0f}, U {p.utilization:6.1%})")
    knee = curve.knee()
    if knee is not None:
        print(f"knee: {knee.value:.0f} b/cyc (within 2% of best latency)")
    bound = curve.compute_bound_from()
    if bound is not None:
        print(f"compute-bound from: {bound:.0f} b/cyc")
    return _finish(engine, args)


def _cmd_advise(args: argparse.Namespace) -> int:
    from repro.core.advisor import UpgradeAdvisor

    preset, engine = _machine(args)
    advisor = UpgradeAdvisor(
        preset.accelerator, preset.spatial_unrolling, _mapper_config(args),
        engine=engine,
    )
    options = advisor.advise(args.layer)
    if options:
        print(f"ranked single-knob upgrades for {args.layer.describe()}:")
        for option in options[: args.top]:
            print("  " + option.describe())
    else:
        print("no single-knob upgrade saves >= 1% latency — the design is "
              "balanced for this layer.")
    return _finish(engine, args)


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.analysis.summary import ReportConfig, generate_report

    if args.html:
        return _cmd_report_html(args)
    preset = _preset(args)
    config = ReportConfig(
        mapper_config=_mapper_config(args),
        simulate=args.with_simulator,
    )
    text = generate_report(preset, args.layer, config)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text)
        print(f"report written to {args.out}")
    else:
        print(text)
    return 0


def _cmd_report_html(args: argparse.Namespace) -> int:
    """`report --html`: traced evaluation -> self-contained HTML file.

    Reuses the ambient tracer when ``--trace`` installed one (so
    ``--trace-out`` still gets the same spans); otherwise runs under a
    local tracer. The winner is re-traced last (see
    :func:`_traced_report`) so the report's stall waterfall reconciles
    with the printed numbers, and the ambient ledger — populated by this
    very run when ``--ledger`` is given — supplies the trajectory.
    """
    from repro.observability import write_report

    ambient = telemetry()
    tracer = ambient.tracer if ambient.tracer.enabled else Tracer()
    mapper = _mapper(args)
    with use_telemetry(tracer=tracer):
        best = mapper.best_mapping(args.layer)
        _traced_report(mapper, best)
        if args.with_simulator:
            CycleSimulator(mapper.accelerator, best.mapping).run()
    print(best.report.summary())
    write_report(
        args.html,
        tracer.records,
        ambient.ledger.records(),
        title=f"{args.layer.describe()} on {mapper.accelerator.name}",
    )
    print(f"HTML report written to {args.html}")
    return _finish(mapper.engine, args)


def _cmd_diff(args: argparse.Namespace) -> int:
    """Compare two ledger snapshots; non-zero exit on model drift."""
    from repro.observability.ledger import (
        LedgerSchemaError,
        diff_records,
        load_snapshot,
    )

    if args.candidate is None and not (args.baseline_sha or args.candidate_sha):
        print("diff: need a CANDIDATE snapshot or --baseline-sha/--candidate-sha "
              "filters to compare within one ledger", file=sys.stderr)
        return 2
    candidate_path = args.candidate or args.baseline
    try:
        baseline = load_snapshot(args.baseline, sha=args.baseline_sha)
        candidate = load_snapshot(candidate_path, sha=args.candidate_sha)
    except (LedgerSchemaError, OSError) as exc:
        # One line and exit code 2, as argparse reports a bad argument.
        print(f"repro-latency: error: {exc}", file=sys.stderr)
        return 2
    print(f"baseline : {len(baseline)} record(s) from {args.baseline}"
          + (f" @ {args.baseline_sha}" if args.baseline_sha else ""))
    print(f"candidate: {len(candidate)} record(s) from {candidate_path}"
          + (f" @ {args.candidate_sha}" if args.candidate_sha else ""))
    diff = diff_records(
        baseline,
        candidate,
        rel_tol=args.rel_tol,
        abs_tol=args.abs_tol,
        strict_keys=args.strict_keys,
    )
    print(diff.describe(changed_only=not args.show_all))
    if diff.clean:
        return 0
    if args.warn_only:
        print("diff: drift detected, but --warn-only requested -> exit 0")
        return 0
    return 1


def _cmd_verify(args: argparse.Namespace) -> int:
    """Property-based differential verification (model vs simulator)."""
    import pathlib

    from repro.verify import run_verification
    from repro.verify.runner import write_artifacts

    summary = run_verification(
        examples=args.examples,
        seed=args.seed,
        corpus_dir=pathlib.Path(args.corpus) if args.corpus else None,
        corpus_only=args.corpus_only,
        shrink=not args.no_shrink,
        backend=args.backend,
    )
    total = len(summary.violations) + len(summary.corpus_violations)
    print(
        f"verify: seed={summary.seed} backend={summary.backend} "
        f"{summary.cases_checked} generated + {summary.corpus_cases} corpus "
        f"case(s), {total} violation(s) in {summary.wall_time_s:.1f}s"
    )
    written = write_artifacts(
        summary,
        report_path=pathlib.Path(args.report) if args.report else None,
        artifact_dir=pathlib.Path(args.artifacts) if args.artifacts else None,
    )
    for path in written:
        print(f"  wrote {path}")
    if summary.ok:
        return 0
    for failure in summary.failures:
        print()
        print(failure.describe())
    return 1


def _cmd_arch_search(args: argparse.Namespace) -> int:
    """Case-study-3 sweep from the command line (the long-running flow
    the live event stream exists for — pair with ``--events`` + ``top``)."""
    from repro.dse.arch_search import ArchSearch, ArchSearchConfig
    from repro.hardware.pool import MemoryPool
    from repro.hardware.presets import array_scales

    scales = array_scales()
    if args.arrays:
        wanted = [a.strip() for a in args.arrays.split(",")]
        unknown = [a for a in wanted if a not in scales]
        if unknown:
            print(
                f"arch-search: unknown array label(s) {', '.join(unknown)} "
                f"(choose from {', '.join(scales)})",
                file=sys.stderr,
            )
            return 2
        scales = {label: scales[label] for label in wanted}
    pool = MemoryPool() if args.full_pool else MemoryPool.small()
    config = ArchSearchConfig(
        array_scales=scales,
        pool=pool,
        gb_bandwidths=tuple(float(b) for b in args.gb_bandwidths.split(",")),
        mapper_config=_mapper_config(args, keep_top=1),
    )
    __, engine = _machine(args)
    search = ArchSearch(config, engine=engine)
    print(f"arch-search: {search.space_size()} design point(s) "
          f"({len(scales)} array(s) x {len(pool)} memory config(s) x "
          f"{len(config.gb_bandwidths)} bandwidth(s))")
    points = search.evaluate(args.layer)
    print(f"mappable: {len(points)} point(s)")
    for label, best in sorted(ArchSearch.best_per_array(points).items()):
        print(f"  {label:8s} best {best.latency:12.0f} cc "
              f"@ {best.area_mm2:7.3f} mm^2  ({best.accelerator_name})")
    front = ArchSearch.front(points)
    front.sort(key=lambda p: p.area_mm2)
    print(f"pareto front: {len(front)} point(s)")
    for p in front[: args.top]:
        print(f"  {p.array_label:6s} {p.candidate.label():32s} "
              f"{p.area_mm2:7.3f} mm^2 -> {p.latency:9.0f} cc")
    return _finish(engine, args)


def _cmd_campaign(args: argparse.Namespace) -> int:
    """Inspect, compare and gate campaign rows in ledger snapshots."""
    from repro.observability.campaign import (
        campaign_records,
        compare_campaigns,
        gate_campaigns,
        phase_records,
        select_campaign,
    )
    from repro.observability.ledger import load_snapshot

    if args.campaign_command == "list":
        rows = campaign_records(load_snapshot(args.snapshot))
        if not rows:
            print(f"no campaign rows in {args.snapshot}")
            return 1
        for row in rows:
            extra = row.extra
            state = "partial" if extra.get("partial") else "complete"
            best = extra.get("best_objective")
            best_text = f"{best:g}" if isinstance(best, (int, float)) else "-"
            print(f"  {row.label:24s} {state:8s} best {best_text:>12s}  "
                  f"enumerated {extra.get('enumerated', 0):g}  "
                  f"scored {extra.get('scored', 0):g}  @ {row.git_sha}")
        return 0

    if args.campaign_command == "show":
        records = load_snapshot(args.snapshot)
        summary = select_campaign(records, args.name)
        if summary is None:
            print("campaign show: no campaign row"
                  + (f" named {args.name!r}" if args.name else "")
                  + f" in {args.snapshot}", file=sys.stderr)
            return 2
        phases = phase_records(records, summary.label)
        extra = summary.extra
        state = "partial" if extra.get("partial") else "complete"
        best = extra.get("best_objective")
        best_text = f"{best:g}" if isinstance(best, (int, float)) else "n/a"
        print(f"campaign {summary.label!r} ({state}) @ {summary.git_sha}")
        print(f"  best objective : {best_text}")
        print(f"  observed       : {extra.get('observed', 0):g} "
              f"({extra.get('improvements', 0):g} improvement(s), "
              f"rate {extra.get('improvement_rate', 0.0):.2%})")
        print(f"  funnel         : enumerated {extra.get('enumerated', 0):g} "
              f"= deduped {extra.get('deduped', 0):g} "
              f"+ cache {extra.get('cache_hits', 0):g} "
              f"+ evaluated {extra.get('evaluated', 0):g} "
              f"+ invalid {extra.get('invalid', 0):g} "
              f"+ dominated {extra.get('dominated', 0):g} "
              f"[{'conserved' if extra.get('conserved') else 'NOT conserved'}]")
        for phase in phases:
            tags = ", ".join(
                f"{key[4:]}={phase.extra[key]:g}"
                for key in sorted(phase.extra) if key.startswith("tag.")
            )
            print(f"  phase {phase.label:16s} "
                  f"enumerated {phase.extra.get('enumerated', 0):g} "
                  f"scored {phase.extra.get('scored', 0):g}"
                  + (f"  ({tags})" if tags else ""))
        if args.html:
            from repro.observability.report import write_campaign_report

            write_campaign_report(args.html, summary, phases)
            print(f"campaign report written to {args.html}")
        return 0

    if args.campaign_command == "compare":
        baseline = select_campaign(load_snapshot(args.baseline), args.name)
        candidate = select_campaign(load_snapshot(args.candidate), args.name)
        if baseline is None or candidate is None:
            side = "baseline" if baseline is None else "candidate"
            print(f"campaign compare: no campaign row in the {side} snapshot",
                  file=sys.stderr)
            return 2
        for line in compare_campaigns(baseline, candidate):
            print(line)
        return 0

    # gate
    result = gate_campaigns(
        load_snapshot(args.baseline),
        load_snapshot(args.candidate),
        name=args.name,
        rel_tol=args.rel_tol,
        coverage_floor=args.coverage_floor,
    )
    for line in result.lines:
        print(line)
    if result.code and args.warn_only:
        print("campaign gate: regression detected, but --warn-only "
              "requested -> exit 0")
        return 0
    return result.code


def _cmd_serve(args: argparse.Namespace) -> int:
    """Boot the evaluation daemon (see ``docs/SERVICE.md``).

    Runs until SIGINT/SIGTERM or a client ``shutdown`` frame, then
    drains: queued requests get clean errors, in-flight evaluations
    finish, and an interrupt leaves a ``kind="interrupted"`` ledger row
    (plus exit code 130, like every other interrupted flow).
    """
    import asyncio

    from repro.serve import EvaluationServer, ServerConfig

    preset = _preset(args)
    config = ServerConfig(
        preset=preset,
        host=args.host,
        port=args.port,
        socket_path=args.socket,
        queue_depth=args.queue_depth,
        warm_start=tuple(args.warm_start or ()),
        admin_port=args.admin_port,
        slow_ms=args.slow_ms,
        flight_path=args.flight_out,
    )
    server = EvaluationServer(config)

    def _on_ready(url: str) -> None:
        admin = f", admin {server.admin.url}" if server.admin else ""
        print(
            f"serving {preset.accelerator.name} on {url} "
            f"({server.store.warm_rows} warm row(s){admin})",
            flush=True,
        )

    interrupted = asyncio.run(server.run(
        ready_file=args.ready_file,
        on_ready=_on_ready,
    ))
    stats = server.stats_snapshot()
    print(
        f"serve: {int(stats['requests'])} request(s), "
        f"{int(stats['evaluations'])} evaluated, "
        f"{int(stats['coalesced'])} coalesced, "
        f"{int(stats['warm_hits'])} warm / {int(stats['store_hits'])} "
        f"store hit(s)"
    )
    return 130 if interrupted else 0


def _cmd_top(args: argparse.Namespace) -> int:
    """Render the live dashboard from an events.jsonl recording."""
    from repro.observability.top import run_top

    footer = None
    engine = None
    if args.engine:
        from repro.serve.client import connect

        engine = connect(args.engine)

        def footer() -> str:
            try:
                return engine.remote_stats().summary()
            except Exception as exc:  # daemon may drain mid-follow
                return f"remote: unavailable ({exc})"

    try:
        return run_top(
            args.events_file,
            follow=args.follow,
            plain=not args.live,
            poll_s=args.interval,
            max_polls=args.max_polls,
            footer=footer,
        )
    finally:
        if engine is not None:
            engine.close()


def _cmd_export_arch(args: argparse.Namespace) -> int:
    from repro.hardware.serde import save_preset

    preset = _preset(args)
    save_preset(preset, args.out)
    print(f"{preset.accelerator.name} written to {args.out}")
    return 0


def _common_options() -> argparse.ArgumentParser:
    """The options every subcommand shares, declared exactly once."""
    common = argparse.ArgumentParser(add_help=False)
    machine = common.add_argument_group("machine")
    machine.add_argument("--chip", choices=("case-study", "inhouse"),
                         default="case-study")
    machine.add_argument("--arch", default=None,
                         help="JSON accelerator description (overrides --chip)")
    machine.add_argument("--gb-bw", type=float, default=128.0,
                         help="GB read/write bandwidth in bits/cycle "
                              "(case-study chip)")
    search = common.add_argument_group("search budget")
    search.add_argument("--enumerate", type=int, default=500,
                        help="exhaustive enumeration cap for the mapper")
    search.add_argument("--samples", type=int, default=400,
                        help="sampled loop orders above the cap")
    search.add_argument("--top", type=int, default=5)
    search.add_argument("--limit", type=int, default=6,
                        help="layer-count limit (validate / network)")
    engine = common.add_argument_group("engine")
    engine.add_argument("--engine", default=None, metavar="URL",
                        help="evaluate against a running 'repro-latency "
                             "serve' daemon instead of in-process "
                             "(serve://host:port or unix:///path.sock; "
                             "the search runs on the served machine)")
    obs = common.add_argument_group("observability")
    obs.add_argument("--stats", action="store_true",
                     help="print engine statistics (evaluations, cache "
                          "hit rate, phase timings) on exit")
    obs.add_argument("--trace", action="store_true",
                     help="record hierarchical spans for the whole run")
    obs.add_argument("--trace-out", default=None, metavar="FILE",
                     help="write the spans as Chrome trace-event JSON "
                          "(open in chrome://tracing or Perfetto); "
                          "implies --trace")
    obs.add_argument("--metrics", action="store_true",
                     help="collect a metrics registry and print it in "
                          "Prometheus text format on exit")
    obs.add_argument("--ledger", default=None, metavar="FILE",
                     help="append every evaluation of this run to a "
                          "persistent SQLite run ledger (created/migrated "
                          "on first use; diff snapshots with "
                          "'repro-latency diff')")
    obs.add_argument("--events", default=None, metavar="FILE",
                     help="stream typed progress events (run lifecycle, "
                          "per-chunk throughput/ETA, worker heartbeats, "
                          "best-so-far, cache stats) to this JSONL file; "
                          "watch it live with 'repro-latency top FILE "
                          "--follow'")
    obs.add_argument("--campaign", default=None, metavar="NAME",
                     help="record this run as a named search campaign: "
                          "candidate-funnel accounting with pruning "
                          "provenance, convergence telemetry and Pareto "
                          "snapshots; persisted to --ledger as "
                          "kind=\"campaign\" rows (inspect with "
                          "'repro-latency campaign')")
    return common


def build_parser() -> argparse.ArgumentParser:
    """The repro-latency argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-latency",
        description="Uniform intra-layer latency model for DNN accelerators "
        "(DATE 2022 reproduction).",
    )
    common = _common_options()
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, needs_layer in (
        ("evaluate", _cmd_evaluate, True),
        ("simulate", _cmd_simulate, True),
        ("search", _cmd_search, True),
        ("validate", _cmd_validate, False),
        ("network", _cmd_network, False),
        ("sensitivity", _cmd_sensitivity, True),
        ("report", _cmd_report, True),
        ("advise", _cmd_advise, True),
        ("arch-search", _cmd_arch_search, True),
        ("export-arch", _cmd_export_arch, False),
    ):
        p = sub.add_parser(name, parents=[common])
        p.set_defaults(func=func)
        if needs_layer:
            p.add_argument("--layer", type=_parse_layer, required=True,
                           help="Dense layer as B,K,C")
        if name == "network":
            p.add_argument("--network",
                           choices=("handtracking", "resnet18", "transformer"),
                           default="handtracking")
            p.add_argument("--csv", default=None,
                           help="write the per-layer table to this CSV file")
        if name == "sensitivity":
            p.add_argument("--memory", default="GB",
                           help="memory whose port bandwidth is swept")
            p.add_argument("--bandwidths",
                           default="64,128,256,512,1024,2048",
                           help="comma-separated bits/cycle values")
        if name == "report":
            p.add_argument("--out", default=None, help="write markdown here")
            p.add_argument("--html", default=None, metavar="FILE",
                           help="render a self-contained HTML report "
                                "(stall waterfall, CC breakdown, ledger "
                                "trajectory) instead of markdown")
            p.add_argument("--with-simulator", action="store_true",
                           help="include a simulator cross-check section")
        if name == "arch-search":
            p.add_argument("--arrays", default=None,
                           help="comma-separated MAC-array labels to sweep "
                                "(default: all preset scales)")
            p.add_argument("--gb-bandwidths", default="128",
                           help="comma-separated GB bandwidths in bits/cycle")
            p.add_argument("--full-pool", action="store_true",
                           help="sweep the full memory pool instead of the "
                                "reduced smoke pool")
        if name == "export-arch":
            p.add_argument("--out", required=True, help="output JSON path")

    # Standalone like `diff` — sharing the parent parser would also share
    # its --ledger action object, and overriding the default here would
    # leak the override into every other subcommand.
    verify = sub.add_parser(
        "verify",
        help="property-based differential verification: random machines "
             "and mappings, model-vs-simulator oracle, shrunk "
             "counterexamples; non-zero exit on any violation",
    )
    verify.set_defaults(func=_cmd_verify)
    verify.add_argument("--ledger", default="verify-ledger.sqlite",
                        metavar="FILE",
                        help="run ledger receiving one kind=\"verify\" row "
                             "per run (a verification is a regression "
                             "gate, so it is recorded by default)")
    verify.add_argument("--examples", type=int, default=200,
                        help="number of generated cases to check")
    verify.add_argument("--backend", choices=("event", "rtl", "both"),
                        default="event",
                        help="simulator backend(s) for the differential "
                             "oracles: the event engine, the register-"
                             "stage-accurate RTL backend, or both (which "
                             "also arms the three-way sim-vs-sim "
                             "agreement property)")
    verify.add_argument("--seed", type=int, default=0,
                        help="generator seed (same seed -> same cases)")
    verify.add_argument("--corpus", default="tests/verify/corpus",
                        help="regression-corpus directory to replay "
                             "(missing directory -> zero corpus cases)")
    verify.add_argument("--corpus-only", action="store_true",
                        help="replay the corpus only; generate nothing")
    verify.add_argument("--no-shrink", action="store_true",
                        help="skip counterexample minimisation on failure")
    verify.add_argument("--report", default=None, metavar="FILE",
                        help="write a JSON run report here")
    verify.add_argument("--artifacts", default=None, metavar="DIR",
                        help="write shrunk counterexamples (corpus-ready "
                             "JSON + text report) into this directory")
    verify.add_argument("--events", default=None, metavar="FILE",
                        help="stream progress events of the run to this "
                             "JSONL file (same stream as the search flows)")

    serve = sub.add_parser(
        "serve",
        help="boot the evaluation daemon: line-framed JSON over "
             "TCP or a Unix socket, request coalescing, a persistent "
             "result store warm-started from prior ledgers; clients "
             "connect with --engine serve://host:port",
    )
    serve.set_defaults(func=_cmd_serve)
    serve.add_argument("--chip", choices=("case-study", "inhouse"),
                       default="case-study")
    serve.add_argument("--arch", default=None,
                       help="JSON accelerator description (overrides --chip)")
    serve.add_argument("--gb-bw", type=float, default=128.0,
                       help="GB read/write bandwidth in bits/cycle "
                            "(case-study chip)")
    serve.add_argument("--host", default="127.0.0.1",
                       help="TCP bind address")
    serve.add_argument("--port", type=int, default=0,
                       help="TCP port (0 = ephemeral; see --ready-file)")
    serve.add_argument("--socket", default=None, metavar="PATH",
                       help="serve on a Unix socket instead of TCP")
    serve.add_argument("--queue-depth", type=int, default=128,
                       help="bounded kernel queue length (backpressure)")
    serve.add_argument("--warm-start", action="append", default=None,
                       metavar="SNAPSHOT",
                       help="ledger snapshot (SQLite or JSONL) whose "
                            "evaluations seed the result store; repeatable")
    serve.add_argument("--ready-file", default=None, metavar="FILE",
                       help="write the bound endpoint URL here as JSON "
                            "once listening (scripts wait on this)")
    serve.add_argument("--ledger", default=None, metavar="FILE",
                       help="append every evaluation to this run ledger "
                            "(the store's persistence; also a future "
                            "--warm-start source)")
    serve.add_argument("--admin-port", type=int, default=None, metavar="PORT",
                       help="also serve an HTTP admin surface (/metrics, "
                            "/healthz, /readyz, /statusz) on this port "
                            "(0 = ephemeral, reported at startup)")
    serve.add_argument("--slow-ms", type=float, default=None, metavar="MS",
                       help="log requests slower than MS ms to the ledger "
                            "(kind=slow_request), the progress stream and "
                            "/statusz")
    serve.add_argument("--flight-out", default=None, metavar="FILE",
                       help="flight-recorder dump path: written on SIGQUIT, "
                            "drain, first server-side error, or "
                            "/statusz?dump=1")
    serve.add_argument("--events", default=None, metavar="FILE",
                       help="stream the daemon's health plane (one "
                            "flow=serve run: per-evaluation progress, "
                            "cache stats) to this JSONL file; watch with "
                            "'repro-latency top FILE --follow'")

    top = sub.add_parser(
        "top",
        help="terminal dashboard over a progress-event recording: per-run "
             "throughput/ETA, worker liveness, best-so-far, cache stats; "
             "--follow tails a file a live run is still writing",
    )
    top.set_defaults(func=_cmd_top)
    top.add_argument("events_file", metavar="EVENTS",
                     help="events.jsonl written by a run's --events flag")
    top.add_argument("--follow", action="store_true",
                     help="keep tailing the file until every run closes")
    top.add_argument("--interval", type=float, default=0.5, metavar="S",
                     help="poll interval in seconds when following")
    top.add_argument("--max-polls", type=int, default=None, metavar="N",
                     help="stop following after N polls (smoke runs)")
    top.add_argument("--engine", default=None, metavar="URL",
                     help="also poll a running daemon "
                          "(serve://host:port or unix:///path.sock) and "
                          "append its live counters as a footer line")
    top.add_argument("--live", action="store_true",
                     help="repaint the screen in place while following "
                          "(default: append deterministic plain text)")

    diff = sub.add_parser(
        "diff",
        help="compare two run-ledger snapshots (SQLite or JSONL); "
             "non-zero exit when a latency-model output drifts",
    )
    diff.set_defaults(func=_cmd_diff)
    diff.add_argument("baseline", help="baseline snapshot (.sqlite or .jsonl)")
    diff.add_argument("candidate", nargs="?", default=None,
                      help="candidate snapshot; omit to compare two SHAs "
                           "inside the baseline ledger")
    diff.add_argument("--baseline-sha", default=None,
                      help="only baseline records from this git SHA")
    diff.add_argument("--candidate-sha", default=None,
                      help="only candidate records from this git SHA")
    diff.add_argument("--rel-tol", type=float, default=1e-9,
                      help="relative drift tolerance per metric")
    diff.add_argument("--abs-tol", type=float, default=1e-6,
                      help="absolute drift tolerance (guards zero-baseline "
                           "metrics)")
    diff.add_argument("--strict-keys", action="store_true",
                      help="a key missing from the candidate fails the gate")
    diff.add_argument("--warn-only", action="store_true",
                      help="report drift but always exit 0 (CI soft gate)")
    diff.add_argument("--show-all", action="store_true",
                      help="print unchanged metrics too")

    campaign = sub.add_parser(
        "campaign",
        help="inspect, compare and gate kind=\"campaign\" ledger rows "
             "written by runs started with --campaign NAME: candidate "
             "funnel with pruning provenance, convergence trajectory, "
             "Pareto evolution, and a search-quality regression gate",
    )
    campaign.set_defaults(func=_cmd_campaign)
    campaign_sub = campaign.add_subparsers(
        dest="campaign_command", required=True
    )
    c_list = campaign_sub.add_parser(
        "list", help="list every campaign row in a ledger snapshot"
    )
    c_list.add_argument("snapshot", help="ledger snapshot (.sqlite or .jsonl)")
    c_show = campaign_sub.add_parser(
        "show",
        help="print one campaign's funnel, convergence and per-phase "
             "provenance; --html renders the self-contained report",
    )
    c_show.add_argument("snapshot", help="ledger snapshot (.sqlite or .jsonl)")
    c_show.add_argument("--name", default=None,
                        help="campaign name (default: the latest row)")
    c_show.add_argument("--html", default=None, metavar="FILE",
                        help="write the self-contained HTML campaign report "
                             "(funnel waterfall, convergence curve, Pareto "
                             "evolution) here")
    c_compare = campaign_sub.add_parser(
        "compare", help="print deltas between two snapshots' campaign rows"
    )
    c_compare.add_argument("baseline", help="baseline snapshot")
    c_compare.add_argument("candidate", help="candidate snapshot")
    c_compare.add_argument("--name", default=None,
                           help="campaign name (default: latest per side)")
    c_gate = campaign_sub.add_parser(
        "gate",
        help="search-quality regression gate: exit 1 when the candidate "
             "campaign's best objective regresses beyond --rel-tol or its "
             "scored coverage collapses below --coverage-floor x baseline; "
             "exit 2 when either snapshot has no campaign row",
    )
    c_gate.add_argument("baseline", help="baseline snapshot")
    c_gate.add_argument("candidate", help="candidate snapshot")
    c_gate.add_argument("--name", default=None,
                        help="campaign name (default: latest per side)")
    c_gate.add_argument("--rel-tol", type=float, default=0.01,
                        help="tolerated relative best-objective regression")
    c_gate.add_argument("--coverage-floor", type=float, default=0.5,
                        help="minimum candidate scored count as a fraction "
                             "of the baseline's")
    c_gate.add_argument("--warn-only", action="store_true",
                        help="report regressions but always exit 0 "
                             "(CI soft gate)")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point: parse, install observability, dispatch, export.

    ``--events FILE`` installs a :class:`ProgressEmitter` streaming to a
    JSONL sink (plus notable-event console lines, and metrics-registry
    mirroring under ``--metrics``). A ``KeyboardInterrupt`` anywhere in a
    subcommand exits 130 after the flows have checkpointed: partial
    ledger rows plus a ``kind="interrupted"`` row flushed, and a
    ``RunInterrupted`` event on the stream.
    """
    args = build_parser().parse_args(argv)
    want_trace = getattr(args, "trace", False) or getattr(args, "trace_out", None)
    tracer = Tracer() if want_trace else NULL_TRACER
    registry = MetricsRegistry() if getattr(args, "metrics", False) else NULL_METRICS
    ledger_path = getattr(args, "ledger", None)
    ledger = RunLedger(ledger_path) if ledger_path else NULL_LEDGER
    events_path = getattr(args, "events", None)
    emitter = NULL_EMITTER
    if events_path:
        emitter = ProgressEmitter()
        emitter.subscribe(JsonlSink(events_path))
        emitter.subscribe(console_subscriber(print))
        if registry.enabled:
            emitter.subscribe(MetricsSubscriber(registry))
    campaign_name = getattr(args, "campaign", None)
    campaign = CampaignRecorder(campaign_name) if campaign_name \
        else NULL_CAMPAIGN

    interrupted = False
    try:
        with use_telemetry(tracer=tracer, metrics=registry, ledger=ledger,
                           progress=emitter, campaign=campaign):
            try:
                code = args.func(args)
            except KeyboardInterrupt:
                # Caught inside the ambient scopes so the campaign can
                # finish (convergence/funnel events) and flush its partial
                # rows alongside the flow's own kind="interrupted" row.
                # Flows that already checkpointed the campaign in their
                # handler make the flush here a no-op (idempotent).
                interrupted = True
                code = 130
            finally:
                if campaign.enabled:
                    campaign.finish(partial=interrupted)
                    campaign.flush_to(ledger, partial=interrupted)
                    print(campaign.summary_line())
    finally:
        if ledger.enabled:
            print(f"ledger: {len(ledger)} record(s) in {ledger_path}")
        ledger.close()
        emitter.close()
    if interrupted:
        print("interrupted: partial results checkpointed"
              + (f"; events in {events_path}" if events_path else "")
              + (f"; ledger rows in {ledger_path}" if ledger_path else ""),
              file=sys.stderr)

    if tracer.enabled:
        if args.trace_out:
            write_chrome_trace(tracer.records, args.trace_out)
            print(f"trace: {len(tracer.records)} spans -> {args.trace_out}")
        else:
            _print_span_summary(tracer)
    if registry.enabled:
        sys.stdout.write(registry.to_prometheus())
    return code


def _print_span_summary(tracer: Tracer) -> None:
    """`--trace` without `--trace-out`: per-span-name counts and time."""
    totals: dict = {}
    for record in tracer.records:
        count, micros = totals.get(record.name, (0, 0.0))
        totals[record.name] = (count + 1, micros + record.duration_us)
    print(f"trace: {len(tracer.records)} spans")
    for name in sorted(totals):
        count, micros = totals[name]
        print(f"  {name:24s} x{count:<6d} {micros / 1e3:10.2f} ms")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
