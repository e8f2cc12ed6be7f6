"""Repeatability check: two sets of full benchmark runs, interleaved.

Usage, from the repository root::

    python3 benchmarks/e2e/repeat.py [--runs N] [--workload W ...]
                                     [--first-seed K] [--seconds S]

Each set runs every workload N times, with seeds K..K+N-1 (by default
4..13, past the seed the tests tune on and the held-out seed 3); the
runs alternate between the sets (A B, B A, ...).  For each end-to-end
metric and set it prints the median, the quartiles and the spread
(quartile distance over median), then whether the two medians agree
within the metric's BENCHMARK.json bound and whether each spread stays
below a third of it.  Accuracy values must be identical between the
sets for the same seed.  The last line is the verdict; the exit code is
0 only when every metric of every workload agreed and was steady.  Raw
results go to ``benchmarks/e2e/.build/repeat.json``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import re
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(ROOT / "src"))

from repro.obs.clock import perf_seconds  # noqa: E402

#: Printed values that depend only on the inputs, never on timing.
DETERMINISTIC = re.compile(r"err_|bias")


def run_once(workload: str, seed: int, seconds: float) -> dict:
    """One ``run.py`` invocation; its JSON result, the printed
    deterministic values and the run's wall seconds."""
    start = perf_seconds()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(
            f"{workload} seed {seed} exited {proc.returncode}:\n"
            f"{proc.stdout[-2000:]}\n{proc.stderr[-2000:]}"
        )
    result = json.loads(lines[-1])
    result["wall_s"] = perf_seconds() - start
    result["values"] = {
        parts[1]: parts[2]
        for parts in (line.split() for line in lines[:-1])
        if len(parts) == 4 and parts[0] == workload
        and DETERMINISTIC.search(parts[1])
    }
    return result


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median


def report(workload: str, sets) -> bool:
    """Print one workload's table; return whether everything agreed."""
    ok = True
    print(f"\n{workload}")
    print(f"  {'metric':<20} {'set':<3} {'median':>12} {'q1':>12} "
          f"{'q3':>12} {'spread':>7}  verdict")
    for metric in SPEC["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        rows = []
        for label, runs in zip("AB", sets):
            values = [r["metrics"][name]["value"] for r in runs]
            rows.append((label, *summary(values)))
        for label, median, q1, q3, spread in rows:
            print(f"  {name:<20} {label:<3} {median:12.6g} {q1:12.6g} "
                  f"{q3:12.6g} {spread:7.1%}")
        diff = (rows[1][1] - rows[0][1]) / rows[0][1]
        steady = all(row[4] < bound / 3 for row in rows)
        agree = abs(diff) <= bound
        ok = ok and steady and agree
        print(f"  {'':<20} B-A {diff:+.1%} of A; bound {bound:.0%}: "
              f"{'agree' if agree else 'DISAGREE'}, "
              f"{'steady' if steady else 'SPREAD ABOVE BOUND/3'}")
    for run_a, run_b in zip(*sets):
        if run_a["values"] != run_b["values"]:
            ok = False
            print(f"  accuracy differs between sets: {run_a['values']} "
                  f"vs {run_b['values']}")
    failed = sum(r["failed"] for runs in sets for r in runs)
    attempted = sum(r["attempted"] for runs in sets for r in runs)
    walls = [r["wall_s"] for runs in sets for r in runs]
    print(f"  failed operations: {failed} of {attempted}; accuracy "
          f"identical per seed: "
          f"{all(a['values'] == b['values'] for a, b in zip(*sets))}; "
          f"run wall time {min(walls):.1f}-{max(walls):.1f} s")
    return ok and failed == 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--first-seed", type=int, default=4)
    parser.add_argument("--seconds", type=float,
                        default=SPEC["run_seconds"])
    args = parser.parse_args(argv)
    workloads = args.workload or [w["name"] for w in SPEC["workloads"]]
    raw = {}
    ok = True
    for workload in workloads:
        sets = ([], [])
        for i in range(args.runs):
            seed = args.first_seed + i
            for which in ((0, 1) if i % 2 == 0 else (1, 0)):
                result = run_once(workload, seed, args.seconds)
                sets[which].append(result)
                print(f"{workload} seed {seed} set {'AB'[which]} done "
                      f"in {result['wall_s']:.1f} s", file=sys.stderr,
                      flush=True)
        raw[workload] = {"A": sets[0], "B": sets[1]}
        ok = report(workload, sets) and ok
    out = HERE / ".build" / "repeat.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(raw, indent=1))
    print(f"\nverdict: {'PASS' if ok else 'FAIL'} (exit {0 if ok else 1})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
