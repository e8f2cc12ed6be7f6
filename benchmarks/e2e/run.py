"""End-to-end benchmark of the RpStacks pipeline.

Usage, from the repository root::

    python3 benchmarks/e2e/run.py [--workload W] [--seed N] [--seconds S]
                                  [--trace 0|1] [--corpus-seed C]

Without ``--workload`` every workload runs, each in its own process.
``--seed`` makes the run's inputs; ``--corpus-seed`` picks the analysed
trace corpus (default 2; keep 3 held out for confirming claims).
Every metric is printed as ``<workload> <metric> <value> <unit>``; the
last line is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics`` (the end-to-end metrics of BENCHMARK.json, or with
``--trace 1`` its per-layer metrics, whose spans are written as a
Chrome trace under ``benchmarks/e2e/.build/``).  The exit code is 1 when
any output check failed and 2 when the program's sources are missing.

Build outputs (compiled kernels, caches, daemon logs, traces) stay in
``benchmarks/e2e/.build/`` of the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import signal
import subprocess
import sys
from typing import Optional

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
BUILD_DIR = HERE / ".build"
SPEC = ROOT / "BENCHMARK.json"
WORKLOADS = ("analyze_long", "suite_accuracy", "explore_warm", "serve_mixed")

#: Default run seed and trace-corpus seed.  Seed 1 is the one the tests
#: tune on, seed 3 is held out for confirming claims.
DEFAULT_SEED = 2


def prepare_environment(build_dir: pathlib.Path) -> None:
    """Keep every file the run writes inside *build_dir*, and make the
    sources importable here and in the daemon subprocess."""
    tmp = build_dir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    os.environ["REPRO_NATIVE_CACHE"] = str(build_dir / "native")
    paths = [str(SRC)] + [
        p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p
    ]
    os.environ["PYTHONPATH"] = os.pathsep.join(paths)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def environment_record() -> list:
    """Lines naming the host and the implementation that will run."""
    import numpy

    from repro.core.native import load_native
    from repro.simulator.native import load_native_sim

    sha = "unknown"
    if (ROOT / ".git").exists():
        try:
            result = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30,
            )
        except (OSError, subprocess.TimeoutExpired):
            result = None
        if result is not None and result.returncode == 0:
            sha = result.stdout.strip()
    lines = [
        f"env nproc {os.cpu_count()}",
        f"env python {platform.python_version()}",
        f"env numpy {numpy.__version__}",
        f"env REPRO_NATIVE {os.environ.get('REPRO_NATIVE', 'auto')}",
        f"env git_sha {sha}",
    ]
    for kernel, loaded in (
        ("reducer", load_native() is not None),
        ("simulator", load_native_sim() is not None),
    ):
        lines.append(f"env native.{kernel} "
                     f"{'loaded' if loaded else 'fallback'}")
        if not loaded:
            lines.append(f"native_fallback {kernel} "
                         "(Python path; timings are not comparable)")
            print(f"native_fallback {kernel}", file=sys.stderr)
    return lines


def cpu_ticks():
    """(steal, total) CPU ticks since boot, or None where /proc is absent.

    Steal is time the hypervisor gave this VM's CPUs to someone else; a
    run with high steal measured a slower machine, not slower code.
    """
    try:
        line = pathlib.Path("/proc/stat").read_text().split("\n", 1)[0]
    except OSError:
        return None
    ticks = [int(v) for v in line.split()[1:9]]
    return ticks[7], sum(ticks)


def pin_to_one_cpu() -> Optional[int]:
    """Keep this process and every process it starts on one CPU, so the
    host probes of :mod:`host` read the core the program runs on, the
    daemon's included.  Returns the CPU, or None where the platform
    does not allow it."""
    try:
        cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        return None
    return cpu


def warm_up() -> None:
    """Load the kernels and touch every code path once, untimed."""
    from repro import analyze, make_workload
    from repro.dse import sweep_space

    from workloads import design_points, ladder_space

    session = analyze(make_workload("gamess", 300))
    sweep_space(session.rpstacks, ladder_space(3))
    for point in design_points(0, 3):
        session.rpstacks.predict_cycles(point)
        session.machine.cycles(point)


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 build_dir: pathlib.Path = BUILD_DIR, sizes=None,
                 checker=None, out=print,
                 corpus_seed: int = DEFAULT_SEED) -> int:
    """Run one workload in this process and print its metrics.

    Returns the exit code: 0, or 1 when any output check failed.
    """
    import workloads

    spec = json.loads(SPEC.read_text())
    declared = spec["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    units.update({m["name"]: m["unit"] for m in spec["per_layer"]})
    checker = checker or workloads.Checker()
    trace_path = build_dir / f"trace-{name}-seed{seed}.json"
    kwargs = {} if sizes is None else {"sizes": sizes}
    before = cpu_ticks()
    report = workloads.WORKLOADS[name](
        seed, seconds, trace, checker, build_dir, trace_path,
        corpus_seed=corpus_seed, **kwargs
    )
    after = cpu_ticks()
    values = dict(report.end_to_end)
    values.update(report.per_layer)
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise RuntimeError(f"{name} did not measure {missing}")
    for metric, value in values.items():
        out(f"{name} {metric} {value!r} {units[metric]}")
    for metric, (value, unit) in report.details.items():
        out(f"{name} {metric} {value!r} {unit}")
    out(f"{name} error_rate {checker.failed / checker.attempted!r} ratio")
    for failure in checker.failures[:20]:
        out(f"# check failed: {failure}")
    if before and after and after[1] > before[1]:
        steal = (after[0] - before[0]) / (after[1] - before[1]) * 100.0
        out(f"env cpu_steal_pct {steal:.2f}")
    if trace:
        out(f"# trace written to {trace_path}")
    out(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in declared
        },
    }))
    return 0 if checker.failed == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corpus-seed", type=int, default=DEFAULT_SEED)
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir() or not SPEC.is_file():
        print(f"benchmark needs the program sources at {SRC} and "
              f"{SPEC.name}; run it from a full checkout", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = json.loads(SPEC.read_text())["run_seconds"]
    if args.workload is None:
        status = 0
        for name in WORKLOADS:
            child = subprocess.run([
                sys.executable, __file__, "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace),
                "--corpus-seed", str(args.corpus_seed),
            ])
            status = max(status, child.returncode)
        return status
    # A terminated run unwinds like an exception, so the workloads'
    # ``finally`` blocks stop the daemon subprocess they started.
    signal.signal(signal.SIGTERM,
                  lambda signum, _frame: sys.exit(128 + signum))
    cpu = pin_to_one_cpu()
    prepare_environment(BUILD_DIR)
    print(f"env cpu {'unpinned' if cpu is None else cpu}")
    for line in environment_record():
        print(line, flush=True)
    warm_up()
    return run_workload(args.workload, args.seed, args.seconds,
                        bool(args.trace), corpus_seed=args.corpus_seed)


if __name__ == "__main__":
    sys.exit(main())
