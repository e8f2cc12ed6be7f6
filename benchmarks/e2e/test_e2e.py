"""Self-test of the end-to-end benchmark at tiny sizes.

Outside the tier-1 test paths; run it explicitly from the repository
root::

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_e2e.py -q
"""

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import host  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from repro.obs.tracer import load_chrome_trace  # noqa: E402

SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())

TINY = {
    "analyze_long": {
        "traces": (("gamess", 60), ("mcf", 80)),
        "points": 20,
        "fractions": (0.5,),
        "probe_axes": 2,
        "round_s": 1.0,
    },
    "suite_accuracy": {
        "traces": (("bzip2", 60), ("lbm", 60)),
        "points": 20,
        "fractions": (0.5, 0.2),
        "probe_axes": 2,
        "round_s": 1.0,
    },
    "explore_warm": {
        "traces": (("gamess", 80),),
        "points": 20,
        "axes": 3,
        "probe_axes": 2,
        "round_s": 1.0,
    },
    "serve_mixed": {
        "sessions": (("gamess", 60), ("mcf", 60)),
        "cold_rounds": 1,
        "cold_macros": 200,
        "batch": 5,
        "points": 20,
        "fractions": (0.5,),
        "probe_axes": 2,
    },
}


@pytest.fixture(autouse=True)
def _sources_importable_by_the_daemon(monkeypatch):
    monkeypatch.setenv("PYTHONPATH", str(run.SRC))


def _run(name, build_dir, trace, checker=None):
    lines = []
    code = run.run_workload(
        name, seed=1, seconds=0.01, trace=trace, build_dir=build_dir,
        sizes=TINY[name], checker=checker, out=lines.append,
    )
    return code, lines


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_every_declared_metric_is_printed_with_its_unit(name, tmp_path):
    for trace, group in ((False, "end_to_end"), (True, "per_layer")):
        code, lines = _run(name, tmp_path, trace)
        assert code == 0, lines
        result = json.loads(lines[-1])
        declared = {m["name"]: m["unit"] for m in SPEC[group]}
        assert {
            metric: value["unit"]
            for metric, value in result["metrics"].items()
        } == declared
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        printed = {
            (parts[1], parts[3])
            for parts in (line.split() for line in lines[:-1])
            if len(parts) == 4 and parts[0] == name
        }
        assert set(declared.items()) <= printed


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_trace_output_loads_as_a_chrome_trace(name, tmp_path):
    code, _lines = _run(name, tmp_path, trace=True)
    assert code == 0
    events = load_chrome_trace(tmp_path / f"trace-{name}-seed1.json")
    names = {event["name"] for event in events}
    assert "task" in names and "generate_rpstacks" in names
    ids = {event["args"]["span_id"] for event in events}
    assert all(
        event["args"]["parent_id"] in ids | {None} for event in events
    )


class TamperedChecker(workloads.Checker):
    """Corrupts the first expected value it is asked to compare."""

    tampered = False

    def equal(self, what, actual, expected):
        if not self.tampered:
            self.tampered = True
            expected = ("tampered", expected)
        return super().equal(what, actual, expected)


def test_a_tampered_expected_value_counts_in_error_rate(tmp_path):
    code, lines = _run("suite_accuracy", tmp_path, False, TamperedChecker())
    result = json.loads(lines[-1])
    assert code == 1
    assert result["failed"] == 1 and not result["correct"]
    rate = [line for line in lines if " error_rate " in line]
    assert float(rate[0].split()[2]) == 1 / result["attempted"]


def test_host_adjustment_weights_each_probe_by_its_stretch():
    probe = host.HostProbe()
    probe.times = [0.0, 1.0, 2.0]
    probe.readings = [0.001, 0.002, 0.003]
    probe.spent = [0.1, 0.1, 0.1]
    # The middle probe is nearest to all of [0.5, 1.5].
    assert probe.reading(host.Interval(0.5, 1.5)) == 0.002
    # Over [0, 2] the outer probes stand for half a second each.
    assert probe.reading(host.Interval(0.0, 2.0)) == pytest.approx(0.002)
    # Probes past the ends still count when none falls inside.
    assert probe.reading(host.Interval(0.2, 0.4)) == pytest.approx(0.001)
    assert probe.busy(host.Interval(0.5, 2.5)) == pytest.approx(1.8)
    # The probe inside a block is not part of its time.
    assert probe.adjusted(host.Interval(0.5, 1.5)) == pytest.approx(
        (1.0 - 0.1) * host.REFERENCE_PROBE_S / 0.002
    )


def test_refuses_to_run_without_the_program_sources(tmp_path):
    shutil.copy(HERE.parents[1] / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload",
         "suite_accuracy", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode not in (0, 1)
    assert proc.stdout == ""
