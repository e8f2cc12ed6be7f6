"""Command-line interface: ``python -m repro <command> ...``.

Commands mirror the workflow of the paper's Figure 6a:

* ``simulate``   — run the timing simulator once, print CPI and stats;
* ``analyze``    — full single-simulation analysis: bottleneck stacks,
  optionally archive the RpStacks model to ``.npz``;
* ``dse sweep``  — sweep a latency design space (from a live analysis,
  the artifact cache or a previously saved model) in chunks of bounded
  memory and print the Pareto front;
* ``compare``    — score RpStacks / CP1 / FMT against a ground-truth
  re-simulation on given latency overrides;
* ``pipeline``   — textbook-style ASCII pipeline diagram of a run;
* ``suite``      — the Figure 12 table over all workload analogues;
* ``profile``    — per-stage overhead breakdown (the paper's Table VI)
  measured live, with Chrome-trace / metrics-JSON export;
* ``bench``      — governed benchmark scenarios: ``run`` measures and
  appends to the ``BENCH_<scenario>.json`` trajectory store, ``compare``
  gates against committed baselines (CI fails on regression), ``report``
  renders the committed perf-trajectory table;
* ``cache``      — inspect or clear the artifact cache.

``analyze``, ``suite``, ``dse sweep`` and ``profile`` accept
``--trace-out`` (Chrome/Perfetto trace) and ``--metrics-json``
(metrics-registry snapshot); the ``REPRO_TRACE_OUT`` /
``REPRO_METRICS_JSON`` / ``REPRO_OBS`` environment variables enable the
same instrumentation without flags (see ``docs/observability.md``).
"""

from __future__ import annotations

import argparse
import pathlib
import sys
from typing import Dict, List, Optional, Sequence

from repro.common.config import LatencyConfig
from repro.common.events import LATENCY_DOMAIN, EventType, parse_event
from repro.core.io import ModelFormatError, load_model, save_model
from repro.dse.designspace import DesignSpace
from repro.dse.pipeline import analyze
from repro.dse.report import format_table, render_cpi_stack
from repro.dse.sweep import DEFAULT_CHUNK_SIZE, sweep_space
from repro.simulator.machine import Machine
from repro.simulator.traceio import TraceFormatError, load_result, save_result
from repro.workloads.suite import SPEC_LABELS, make_workload, suite_names

#: Exit code of any command stopped by Ctrl-C.  A ``suite --cache-dir``
#: run continues when rerun on the same cache.
EXIT_INTERRUPTED = 4


def _parse_overrides(items: Sequence[str]) -> Dict[EventType, int]:
    """Parse ``EVENT=CYCLES`` pairs (e.g. ``L1D=2 Fadd=3``)."""
    overrides: Dict[EventType, int] = {}
    for item in items:
        try:
            name, value = item.split("=", 1)
            overrides[parse_event(name)] = int(value)
        except (ValueError, KeyError) as error:
            raise SystemExit(f"bad override {item!r}: {error}")
    return overrides


def _parse_axis(spec: str) -> tuple:
    """Parse ``EVENT=v1,v2,v3`` into (event, values)."""
    try:
        name, values = spec.split("=", 1)
        event = parse_event(name)
        candidates = [int(v) for v in values.split(",") if v]
        if not candidates:
            raise ValueError("no candidate latencies")
        return event, candidates
    except (ValueError, KeyError) as error:
        raise SystemExit(f"bad axis {spec!r}: {error}")


def _workload(args) -> object:
    if args.workload not in suite_names():
        raise SystemExit(
            f"unknown workload {args.workload!r}; "
            f"choose from {', '.join(suite_names())}"
        )
    return make_workload(args.workload, args.macros, seed=args.seed)


def _load_archive(load, path):
    """``load(path)``, or a one-line exit naming *path* when the file
    cannot be read or is not an archive of the kind *load* reads."""
    try:
        return load(path)
    except OSError as error:
        raise SystemExit(f"cannot read {path}: {error.strerror or error}")
    except (TraceFormatError, ModelFormatError) as error:
        raise SystemExit(str(error))


def _observer_from_args(args, force_enabled: bool = False):
    """The command's observer: the environment's
    (:func:`~repro.obs.observer.from_env`), enabled as well by
    *force_enabled*, ``--progress``, ``--trace-out`` or
    ``--metrics-json``, whose paths override the environment's."""
    from repro.obs.observer import Observer, from_env

    env = from_env()
    trace_out = getattr(args, "trace_out", None)
    metrics_out = getattr(args, "metrics_json", None)
    progress = getattr(args, "progress", None)
    if not (force_enabled or trace_out or metrics_out
            or progress is not None):
        return env
    return Observer(
        enabled=True,
        trace_out=trace_out or env.trace_out,
        metrics_out=metrics_out or env.metrics_out,
    )


def _finish_observer(obs) -> None:
    for path in obs.finish():
        print(f"instrumentation written to {path}")


def cmd_simulate(args) -> int:
    workload = _workload(args)
    machine = Machine(workload)
    latency = LatencyConfig().with_overrides(_parse_overrides(args.override))
    result = machine.simulate(latency)
    print(result.describe())
    rows = [[key, value] for key, value in sorted(result.stats.items())]
    print(format_table(["stat", "value"], rows))
    if args.save_trace:
        path = save_result(result, args.save_trace)
        print(f"trace saved to {path}")
    return 0


def cmd_analyze(args) -> int:
    if args.jobs < 1:
        raise SystemExit("--jobs must be at least 1")
    if args.segment_length < 1:
        raise SystemExit("--segment-length must be at least 1")
    if args.from_trace:
        from repro.core.generator import generate_rpstacks
        from repro.graphmodel.builder import build_graph

        result = _load_archive(load_result, args.from_trace)
        workload = result.workload
        base = result.config.latency
        graph = build_graph(result)
        model = generate_rpstacks(
            graph,
            base,
            segment_length=args.segment_length,
            include_base_in_similarity=args.include_base_similarity,
            jobs=args.jobs,
        )
        baseline_cpi = result.cpi
    else:
        workload = _workload(args)
        obs = _observer_from_args(args)
        session = analyze(
            workload,
            segment_length=args.segment_length,
            include_base_in_similarity=args.include_base_similarity,
            jobs=args.jobs,
            cache=args.cache_dir,
            obs=obs,
        )
        base = session.config.latency
        model = session.rpstacks
        baseline_cpi = session.baseline_cpi
        _finish_observer(obs)
    print(
        f"{workload.name}: {len(workload)} uops, baseline CPI "
        f"{baseline_cpi:.3f}, {model.num_paths} "
        f"representative paths in {model.num_segments} segments"
    )
    stack = model.representative_stack(base)
    print(render_cpi_stack("penalty decomposition", stack, base, len(workload)))
    if args.save:
        path = save_model(model, args.save)
        print(f"model saved to {path}")
    return 0


def cmd_dse_sweep(args) -> int:
    axes = dict(_parse_axis(spec) for spec in args.axis)
    if not axes:
        raise SystemExit("sweep needs at least one --axis")
    try:
        space = DesignSpace.from_mapping(axes)
    except ValueError as error:
        raise SystemExit(str(error))
    if args.chunk_size < 1:
        raise SystemExit("--chunk-size must be at least 1")

    obs = _observer_from_args(args)
    if args.model:
        model = _load_archive(load_model, args.model)
        print(f"loaded model: {model.num_paths} paths, "
              f"{model.num_uops} uops")
    else:
        workload = _workload(args)
        model = analyze(workload, cache=args.cache_dir, obs=obs).rpstacks
    target = args.target_cpi
    if target is None and args.target_fraction is not None:
        target = model.predict_cpi(model.baseline) * args.target_fraction
    try:
        result = sweep_space(
            model,
            space,
            target_cpi=target,
            chunk_size=args.chunk_size,
            top_k=args.top_k,
            obs=obs,
            progress_interval=args.progress,
        )
    except ValueError as error:
        raise SystemExit(str(error))
    _finish_observer(obs)
    if args.json:
        import json

        print(json.dumps(result.as_dict(), indent=2))
        return 0
    print(
        f"{result.num_points} design points, "
        f"{result.num_meeting_target} meet the target"
        + (f" CPI {target:.3f}" if target is not None else "")
    )
    print(result.metrics.describe())
    rows = [
        [c.latency.describe(), f"{c.predicted_cpi:.3f}", f"{c.cost:.2f}"]
        for c in result.pareto_front()[: args.top]
    ]
    print(format_table(["design point", "predicted CPI", "cost"], rows))
    return 0


def cmd_compare(args) -> int:
    workload = _workload(args)
    session = analyze(workload)
    overrides = _parse_overrides(args.override)
    if not overrides:
        raise SystemExit("compare needs at least one --override")
    latency = session.config.latency.with_overrides(overrides)
    simulated = session.machine.cycles(latency)
    rows = []
    for name, predictor in session.predictors().items():
        predicted = predictor.predict_cycles(latency)
        rows.append(
            [
                name,
                f"{predicted / len(workload):.3f}",
                f"{(predicted - simulated) / simulated * 100:+.2f}%",
            ]
        )
    print(f"simulated CPI: {simulated / len(workload):.3f}")
    print(format_table(["method", "predicted CPI", "error"], rows))
    return 0


def cmd_report(args) -> int:
    workload = _workload(args)
    session = analyze(workload)
    from repro.dse.markdown import workload_report

    overrides = _parse_overrides(args.override) or None
    text = workload_report(session, probe_overrides=overrides)
    if args.output:
        import pathlib

        path = pathlib.Path(args.output)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
        print(f"report written to {path}")
    else:
        print(text)
    return 0


def cmd_pipeline(args) -> int:
    workload = _workload(args)
    machine = Machine(workload)
    latency = LatencyConfig().with_overrides(_parse_overrides(args.override))
    result = machine.simulate(latency)
    from repro.simulator.pipeview import render_pipeline

    print(result.describe())
    print(
        render_pipeline(
            result, first=args.first, count=args.count,
            max_width=args.width,
        )
    )
    return 0


def cmd_suite(args) -> int:
    from repro.runtime.runner import run_suite
    from repro.workloads.suite import resolve_names

    try:
        resolve_names(tuple(args.only or ()))
    except KeyError as exc:
        raise SystemExit(exc.args[0]) from exc
    if args.jobs < 1:
        raise SystemExit("--jobs must be at least 1")
    if args.retries < 0:
        raise SystemExit("--retries must be non-negative")
    obs = _observer_from_args(args)
    report = run_suite(
        names=tuple(args.only or ()),
        macros=args.macros,
        seed=args.seed,
        jobs=args.jobs,
        cache=args.cache_dir,
        timeout=args.timeout,
        obs=obs,
        retries=args.retries,
    )
    _finish_observer(obs)
    rows = []
    for outcome in report:
        if not outcome.ok:
            reason = (outcome.error or "").strip().splitlines()
            rows.append(
                [
                    SPEC_LABELS.get(outcome.name, outcome.name),
                    "FAILED",
                    reason[-1] if reason else "unknown error",
                ]
            )
            continue
        session = outcome.session
        top = session.rpstacks.bottlenecks(session.config.latency, top=3)
        rows.append(
            [
                SPEC_LABELS.get(outcome.name, outcome.name),
                f"{session.baseline_cpi:.3f}",
                ", ".join(label for label, _v in top),
            ]
        )
    print(format_table(["application", "baseline CPI", "bottlenecks"], rows))
    hits = sum(1 for outcome in report if outcome.cache_hit)
    retried = sum(1 for outcome in report if outcome.attempts > 1)
    summary = (
        f"{len(report.succeeded)}/{len(report)} workloads in "
        f"{report.wall_seconds:.2f}s ({report.jobs} job(s))"
    )
    if hits:
        summary += f", {hits} cache hit(s)"
    if retried:
        summary += f", {retried} retried"
    slowest = report.slowest
    if slowest is not None:
        summary += (
            f", slowest {slowest.name} ({slowest.elapsed_seconds:.2f}s)"
        )
    print(summary)
    if report.failed and report.succeeded:
        print(
            f"partial failure: {len(report.failed)} workload(s) failed "
            f"after retries (exit {report.exit_code})"
        )
    return report.exit_code


def cmd_profile(args) -> int:
    """Per-stage wall-time breakdown from live instrumentation.

    Reproduces the paper's Table VI overhead decomposition — baseline
    simulation / graph construction / stack generation / per-design
    evaluation — measured on this machine, with optional Chrome-trace
    and metrics-JSON export.
    """
    from repro.dse.overhead import measure_overhead
    from repro.obs.report import span_rollup

    if args.segment_length < 1:
        raise SystemExit("--segment-length must be at least 1")
    workload = _workload(args)
    # Profiling is the whole point of this command: collect always,
    # write files only where asked.
    obs = _observer_from_args(args, force_enabled=True)
    profile = measure_overhead(
        workload,
        eval_points=args.eval_points,
        reeval_points=args.reeval_points,
        segment_length=args.segment_length,
        obs=obs,
    )
    if args.json:
        import dataclasses
        import json

        payload = dataclasses.asdict(profile)
        payload["stages"] = [
            {"stage": name, "seconds": seconds}
            for name, seconds in profile.stage_breakdown()
        ]
        payload["metrics"] = obs.metrics.snapshot()
        print(json.dumps(payload, indent=2))
    else:
        print(profile.describe())
        print()
        print(span_rollup(obs.tracer.totals_by_name()))
    _finish_observer(obs)
    return 0


def _bench_scenarios(args) -> list:
    """Resolve the scenario objects a ``bench`` subcommand targets."""
    from repro.obs.bench import get_scenario, scenario_names

    if args.all:
        names = scenario_names()
    elif args.scenarios:
        names = args.scenarios
    else:
        raise SystemExit(
            "bench: name scenarios or pass --all "
            f"(registered: {', '.join(scenario_names())})"
        )
    return [get_scenario(name) for name in names]


def _native_available() -> bool:
    try:
        from repro.simulator.native import load_native_sim

        return load_native_sim() is not None
    except Exception:
        return False


def _bench_summary(record) -> str:
    shares = sorted(
        record.stage_shares().items(), key=lambda kv: kv[1], reverse=True
    )
    top = ", ".join(f"{name} {share:.0%}" for name, share in shares[:3])
    line = (
        f"{record.scenario}[{record.tier}]: "
        f"min {record.min_seconds:.4f}s  "
        f"median {record.median_seconds:.4f}s  "
        f"spread {record.spread:.1%}"
    )
    if top:
        line += f"  [{top}]"
    return line


def _bench_measure(args, scenario):
    """Run one scenario at the requested tier, or ``None`` if skipped
    (native-sensitive scenario without the compiled kernel)."""
    from repro.obs.bench import run_scenario

    if scenario.native_sensitive and not _native_available():
        print(
            f"{scenario.name}: skipped (native kernel unavailable "
            "or REPRO_NATIVE=0)",
            file=sys.stderr,
        )
        return None
    progress = None
    if args.progress:
        progress = lambda message: print(message, file=sys.stderr)
    return run_scenario(
        scenario,
        tier=args.tier,
        repeats=args.repeats,
        warmup=args.warmup,
        progress=progress,
    )


def cmd_bench_run(args) -> int:
    """Measure scenarios and append records to the trajectory store."""
    from repro.obs.bench import REPO_ROOT
    from repro.obs.schema import TrajectoryFile, trajectory_path

    directory = args.dir or REPO_ROOT
    for scenario in _bench_scenarios(args):
        record = _bench_measure(args, scenario)
        if record is None:
            continue
        trajectory = TrajectoryFile.open(directory, scenario.name)
        trajectory.append(record)
        if args.update_baseline:
            trajectory.set_baseline(record)
        path = trajectory.save(trajectory_path(directory, scenario.name))
        note = " (baseline updated)" if args.update_baseline else ""
        print(f"{_bench_summary(record)} -> {path.name}{note}")
    return 0


def cmd_bench_compare(args) -> int:
    """Re-measure scenarios and gate them against committed baselines.

    Exit status 1 iff any scenario regressed (or broke digest parity) —
    the contract the ``bench-trajectory`` CI job enforces.  The summary
    counts the findings per status and the scenarios whose timings were
    compared; "all gates passed" is printed only when every scenario's
    were.
    """
    from repro.obs.bench import REPO_ROOT
    from repro.obs.regress import GatePolicy, Verdict, compare_records
    from repro.obs.schema import TrajectoryFile, trajectory_path

    directory = args.dir or REPO_ROOT
    policy = GatePolicy.for_tier(
        args.tier,
        env_policy="strict" if args.strict_env else "warn",
    )
    timed = (Verdict.OK, Verdict.REGRESSION, Verdict.IMPROVEMENT)
    failures = compared = 0
    statuses: Dict[str, int] = {}
    for scenario in _bench_scenarios(args):
        trajectory = TrajectoryFile.open(directory, scenario.name)
        if args.latest:
            record = trajectory.latest_run(args.tier)
            if record is None:
                print(
                    f"{scenario.name}: no stored {args.tier}-tier run "
                    "to compare"
                )
                failures += 1
                statuses["no-run"] = statuses.get("no-run", 0) + 1
                continue
        else:
            record = _bench_measure(args, scenario)
            if record is None:
                statuses["skipped"] = statuses.get("skipped", 0) + 1
                continue
            trajectory.append(record)
            trajectory.save(trajectory_path(directory, scenario.name))
        finding = compare_records(
            record, trajectory.baseline_for(args.tier), policy
        )
        print(finding.describe())
        status = finding.verdict.value
        statuses[status] = statuses.get(status, 0) + 1
        compared += finding.verdict in timed
        if finding.failed:
            failures += 1
    total = sum(statuses.values())
    print(
        "bench compare: "
        + ", ".join(
            f"{count} {status}" for status, count in sorted(statuses.items())
        )
    )
    print(f"bench compare: timings compared on {compared} of {total} scenarios")
    if failures:
        print(f"bench compare: {failures} scenario(s) failed the gates")
        return 1
    if compared == total:
        print("bench compare: all gates passed")
    else:
        print(
            f"bench compare: no gate failed, but {total - compared} "
            "scenario(s) compared no timing"
        )
    return 0


def cmd_bench_report(args) -> int:
    """Render the committed perf trajectory as a table."""
    from repro.obs.bench import REPO_ROOT, get_scenario, scenario_names
    from repro.obs.schema import TrajectoryFile, trajectory_path

    directory = pathlib.Path(args.dir or REPO_ROOT)
    rows = []
    for name in scenario_names():
        path = trajectory_path(directory, name)
        if not path.exists():
            continue
        trajectory = TrajectoryFile.load(path)
        record = trajectory.baseline_for(args.tier)
        if record is None:
            record = trajectory.latest_run(args.tier)
        if record is None:
            continue
        shares = sorted(
            record.stage_shares().items(),
            key=lambda kv: kv[1],
            reverse=True,
        )
        throughput = ""
        for key, unit in (
            ("requests_per_second", "req/s"),
            ("points_per_second", "points/s"),
            ("uops_per_second", "uops/s"),
            ("macros_per_second", "macros/s"),
        ):
            value = record.aux.get(key)
            if value:
                throughput = f"{value:,.0f} {unit}"
                break
        rows.append(
            {
                "scenario": name,
                "title": get_scenario(name).title,
                "scale": " ".join(
                    f"{k}={v}" for k, v in sorted(record.scale.items())
                ),
                "best": f"{record.min_seconds:.4f}",
                "median": f"{record.median_seconds:.4f}",
                "spread": f"{record.spread:.1%}",
                "throughput": throughput,
                "stages": ", ".join(
                    f"{stage} {share:.0%}" for stage, share in shares[:3]
                ),
            }
        )
    if not rows:
        print(f"no BENCH_<scenario>.json trajectories under {directory}")
        return 1
    headers = [
        ("scenario", "Scenario"),
        ("scale", "Scale"),
        ("best", "Best (s)"),
        ("median", "Median (s)"),
        ("spread", "Spread"),
        ("throughput", "Throughput"),
        ("stages", "Top stages"),
    ]
    if args.markdown:
        print(
            f"<!-- generated by `repro bench report --markdown "
            f"--tier {args.tier}` — do not hand-edit -->"
        )
        print("| " + " | ".join(title for _, title in headers) + " |")
        print("|" + "|".join(" --- " for _ in headers) + "|")
        for row in rows:
            print(
                "| "
                + " | ".join(row[key] for key, _ in headers)
                + " |"
            )
    else:
        widths = {
            key: max(len(title), *(len(row[key]) for row in rows))
            for key, title in headers
        }
        print(
            "  ".join(
                title.ljust(widths[key]) for key, title in headers
            ).rstrip()
        )
        for row in rows:
            print(
                "  ".join(
                    row[key].ljust(widths[key]) for key, _ in headers
                ).rstrip()
            )
    return 0


def cmd_cache(args) -> int:
    from repro.runtime.cache import ArtifactCache

    cache = ArtifactCache(args.cache_dir)
    if args.cache_command == "stats":
        print(cache.stats().describe())
        return 0
    if args.cache_command == "clear":
        removed = cache.clear()
        print(f"removed {removed} cache entries from {cache.root}")
        return 0
    raise SystemExit(f"unknown cache command {args.cache_command!r}")


def cmd_serve(args) -> int:
    """Run the long-lived analysis daemon (see ``docs/serve.md``).

    Blocks until a SIGTERM/SIGINT drain completes; exits 0 on a clean
    drain.  The observer is always collecting (``/metrics`` exports its
    registry live); ``--trace-out`` / ``--metrics-json`` additionally
    write files when the daemon shuts down.
    """
    from repro.serve.server import ServeConfig, run_forever

    obs = _observer_from_args(args, force_enabled=True)
    config = ServeConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        queue_limit=args.queue_limit,
        cache_dir=args.cache_dir,
        drain_grace=args.drain_grace,
    )
    try:
        return run_forever(config, obs=obs)
    finally:
        _finish_observer(obs)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="RpStacks: single-simulation processor design space "
        "exploration (MICRO 2014 reproduction)",
    )
    parser.add_argument(
        "--native", choices=["auto", "on", "off"], default=None,
        help="compiled simulator/analysis kernels: 'auto' probes for a C "
        "compiler and falls back to Python, 'on' requires the compiled "
        "path, 'off' forces pure Python (equivalent to REPRO_NATIVE=1/0; "
        "both paths are bit-identical)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_workload_args(p):
        p.add_argument("workload", help="suite workload name (e.g. gamess)")
        p.add_argument("--macros", type=int, default=500,
                       help="dynamic length in macro-ops")
        p.add_argument("--seed", type=int, default=1)

    def add_obs_args(p):
        p.add_argument("--trace-out", metavar="PATH",
                       help="write a Chrome/Perfetto trace_event JSON "
                       "(also via REPRO_TRACE_OUT)")
        p.add_argument("--metrics-json", metavar="PATH",
                       help="write a metrics-registry snapshot as JSON "
                       "(also via REPRO_METRICS_JSON)")

    p = sub.add_parser("simulate", help="one timing simulation")
    add_workload_args(p)
    p.add_argument("--override", action="append", default=[],
                   metavar="EVENT=CYCLES")
    p.add_argument("--save-trace", help="archive the run (.npz)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("analyze", help="bottleneck analysis + model")
    add_workload_args(p)
    p.add_argument("--segment-length", type=int, default=256)
    p.add_argument("--jobs", type=int, default=1,
                   help="most threads for the compiled segment walk "
                   "(model is byte-identical for any value)")
    p.add_argument("--include-base-similarity", action="store_true",
                   help="include the BASE dimension when comparing "
                   "stacks for merging (Fig 14 ablation regime)")
    p.add_argument("--save", help="archive the RpStacks model (.npz)")
    p.add_argument("--from-trace",
                   help="analyse a saved trace instead of simulating")
    p.add_argument("--cache-dir",
                   help="artifact cache directory (reuse prior analyses)")
    add_obs_args(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser(
        "dse",
        help="array-native design-space exploration (streaming sweep)",
    )
    dse_sub = p.add_subparsers(dest="dse_command", required=True)
    p = dse_sub.add_parser(
        "sweep",
        help="stream a latency space through the bounded-memory "
        "chunked sweep engine",
    )
    add_workload_args(p)
    p.add_argument("--axis", action="append", default=[],
                   metavar="EVENT=V1,V2,...")
    p.add_argument("--model", help="load a saved model instead of analysing")
    p.add_argument("--cache-dir",
                   help="artifact cache directory (reuse prior analyses)")
    p.add_argument("--target-cpi", type=float)
    p.add_argument("--target-fraction", type=float,
                   help="target = baseline CPI x fraction")
    p.add_argument("--chunk-size", type=int, default=DEFAULT_CHUNK_SIZE,
                   help="design points per chunk, the unit of the "
                        "Pareto prune")
    p.add_argument("--top-k", type=int,
                   help="hard cap on the held candidate set (memory bound)")
    p.add_argument("--top", type=int, default=10,
                   help="Pareto entries to print")
    p.add_argument("--json", action="store_true",
                   help="emit the result (with sweep metrics) as JSON")
    p.add_argument("--progress", type=float, metavar="SECONDS",
                   help="emit a progress line (chunks done / points "
                   "priced / front size) at this interval")
    add_obs_args(p)
    p.set_defaults(func=cmd_dse_sweep)

    p = sub.add_parser("compare", help="RpStacks vs CP1 vs FMT vs simulator")
    add_workload_args(p)
    p.add_argument("--override", action="append", default=[],
                   metavar="EVENT=CYCLES")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("report", help="one-stop markdown analysis report")
    add_workload_args(p)
    p.add_argument("--override", action="append", default=[],
                   metavar="EVENT=CYCLES",
                   help="probe scenario for the validation section")
    p.add_argument("--output", help="write the report to a file")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("pipeline", help="ASCII pipeline diagram of a run")
    add_workload_args(p)
    p.add_argument("--override", action="append", default=[],
                   metavar="EVENT=CYCLES")
    p.add_argument("--first", type=int, default=0,
                   help="first µop to draw")
    p.add_argument("--count", type=int, default=16,
                   help="number of µops")
    p.add_argument("--width", type=int, default=120,
                   help="maximum cycle columns")
    p.set_defaults(func=cmd_pipeline)

    p = sub.add_parser("suite", help="Fig 12 table over all analogues")
    p.add_argument("--macros", type=int, default=300)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--only", action="append", metavar="NAME",
                   help="restrict to the named workloads (repeatable)")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes for the suite fan-out")
    p.add_argument("--cache-dir",
                   help="artifact cache directory (reuse prior analyses)")
    p.add_argument("--timeout", type=float,
                   help="per-workload wall-clock budget in seconds, "
                   "from when a worker is handed it; a straggler's "
                   "worker is killed")
    p.add_argument("--retries", type=int, default=0,
                   help="retry a failing workload up to this many extra "
                   "times (backoff 0.05 s, doubling, at most 2 s; a "
                   "worker death costs its own workload an attempt)")
    add_obs_args(p)
    p.set_defaults(func=cmd_suite)

    p = sub.add_parser(
        "profile",
        help="per-stage overhead breakdown (the paper's Table VI) from "
        "live instrumentation",
    )
    add_workload_args(p)
    p.add_argument("--segment-length", type=int, default=256)
    p.add_argument("--eval-points", type=int, default=64,
                   help="RpStacks evaluations to average over")
    p.add_argument("--reeval-points", type=int, default=3,
                   help="graph re-evaluations to average over (slow)")
    p.add_argument("--json", action="store_true",
                   help="emit the breakdown (with metrics) as JSON")
    add_obs_args(p)
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser(
        "bench",
        help="governed benchmark scenarios + perf-trajectory store",
    )
    bench_sub = p.add_subparsers(dest="bench_command", required=True)

    def add_bench_target_args(bp):
        bp.add_argument(
            "scenarios", nargs="*",
            help="registered scenario names (see --all)",
        )
        bp.add_argument(
            "--all", action="store_true",
            help="target every registered scenario",
        )
        bp.add_argument(
            "--tier", choices=["full", "ci"], default="full",
            help="measurement tier: 'full' = committed headline scale, "
            "'ci' = reduced per-PR gating scale",
        )
        bp.add_argument(
            "--dir", default=None,
            help="trajectory-store directory (default: repo root)",
        )

    def add_bench_measure_args(bp):
        bp.add_argument(
            "--repeats", type=int, default=None,
            help="timed repetitions (default: per-scenario)",
        )
        bp.add_argument(
            "--warmup", type=int, default=None,
            help="throwaway repetitions (default: per-scenario)",
        )
        bp.add_argument(
            "--progress", action="store_true",
            help="narrate setup and per-rep timings on stderr",
        )

    bp = bench_sub.add_parser(
        "run",
        help="measure scenarios, append to BENCH_<scenario>.json",
    )
    add_bench_target_args(bp)
    add_bench_measure_args(bp)
    bp.add_argument(
        "--update-baseline", action="store_true",
        help="also promote this run to the tier's committed baseline",
    )
    bp.set_defaults(func=cmd_bench_run)

    bp = bench_sub.add_parser(
        "compare",
        help="measure and gate against committed baselines "
        "(exit 1 on regression)",
    )
    add_bench_target_args(bp)
    add_bench_measure_args(bp)
    bp.add_argument(
        "--latest", action="store_true",
        help="gate the most recent stored run instead of re-measuring",
    )
    bp.add_argument(
        "--strict-env", action="store_true",
        help="treat environment-fingerprint drift as incomparable "
        "timings instead of gating anyway (result digests are still "
        "compared whenever numpy and platform match)",
    )
    bp.set_defaults(func=cmd_bench_compare)

    bp = bench_sub.add_parser(
        "report",
        help="render the committed perf trajectory as a table",
    )
    bp.add_argument(
        "--tier", choices=["full", "ci"], default="full",
        help="which tier's baselines to render",
    )
    bp.add_argument(
        "--dir", default=None,
        help="trajectory-store directory (default: repo root)",
    )
    bp.add_argument(
        "--markdown", action="store_true",
        help="emit a GitHub-flavoured markdown table (for README)",
    )
    bp.set_defaults(func=cmd_bench_report)

    p = sub.add_parser("cache", help="inspect or clear the artifact cache")
    p.add_argument("cache_command", choices=["stats", "clear"])
    p.add_argument("--cache-dir", required=True,
                   help="artifact cache directory")
    p.set_defaults(func=cmd_cache)

    p = sub.add_parser(
        "serve",
        help="long-running analysis daemon (HTTP/JSON, warm models)",
    )
    p.add_argument("--host", default="127.0.0.1",
                   help="bind address (default 127.0.0.1)")
    p.add_argument("--port", type=int, default=8321,
                   help="bind port; 0 picks a free one (default 8321)")
    p.add_argument("--workers", type=int, default=2,
                   help="executor threads for cold builds and sweeps")
    p.add_argument("--queue-limit", type=int, default=8,
                   help="heavy requests allowed to queue before 429")
    p.add_argument("--cache-dir", default=None,
                   help="artifact cache directory (content-addressed "
                   "reuse across restarts)")
    p.add_argument("--drain-grace", type=float, default=10.0,
                   help="seconds in-flight work gets after SIGTERM")
    add_obs_args(p)
    p.set_defaults(func=cmd_serve)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.native is not None:
        # The gate is read ambiently (simulator, pre-pass, analysis
        # kernels), so publish it through the environment rather than
        # threading a flag through every call site.  ``auto`` restores
        # the probe-and-fall-back default even if REPRO_NATIVE is set.
        import os

        os.environ["REPRO_NATIVE"] = {
            "auto": "auto", "on": "1", "off": "0"
        }[args.native]
    try:
        return args.func(args)
    except KeyboardInterrupt:
        # Ctrl-C is a clean stop, not a traceback.  A suite stores each
        # finished workload in its cache atomically, so rerunning it on
        # that cache continues where it stopped.
        if args.command == "suite" and args.cache_dir:
            print(f"interrupted; rerun with --cache-dir {args.cache_dir} "
                  "to continue", file=sys.stderr)
        else:
            print("interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED


if __name__ == "__main__":
    sys.exit(main())
