"""The bench harness: protocol, registry, and the `repro bench` CLI."""

import gc
import json

import pytest

from repro.cli import main
from repro.obs.bench import (
    Scenario,
    ScenarioRun,
    env_fingerprint,
    get_scenario,
    measure,
    run_scenario,
    scenario_names,
)
from repro.obs.observer import get_observer
from repro.obs.schema import TrajectoryFile, trajectory_path

#: The seven scenarios the issue names — the committed headline numbers.
ISSUE_SCENARIOS = {
    "analyze_cold",
    "analyze_warm",
    "simulate_native",
    "simulate_python",
    "trace_columns",
    "generate_jobs8",
    "dse_sweep_throughput",
}


def _toy_scenario(name="toy", digests=None, spans=("stage.a", "stage.b")):
    """A microscopic scenario: spins through ambient spans and returns
    per-rep digests from the given sequence (constant by default)."""
    state = {"rep": 0}
    digests = digests or ["d0"]

    def recipe(scale):
        def body():
            obs = get_observer()
            for span in spans:
                with obs.span(span):
                    sum(range(scale["n"]))
            obs.counter("toy.calls").inc()

        def digest():
            value = digests[min(state["rep"], len(digests) - 1)]
            state["rep"] += 1
            return value

        return body, digest

    return Scenario(
        name=name,
        title="toy scenario",
        recipe=recipe,
        scales={"full": {"n": 5000}, "ci": {"n": 500}},
        repeats=3,
        warmup=1,
    )


class TestMeasure:
    def test_returns_elapsed_and_restores_gc(self):
        assert gc.isenabled()
        seen = {}
        seconds = measure(lambda: seen.setdefault("gc", gc.isenabled()))
        assert seconds >= 0.0
        assert seen["gc"] is False  # GC paused inside the timed body
        assert gc.isenabled()  # ... and restored afterwards

    def test_restores_gc_on_exception(self):
        with pytest.raises(RuntimeError):
            measure(lambda: (_ for _ in ()).throw(RuntimeError("boom")))
        assert gc.isenabled()


class TestRegistry:
    def test_issue_scenarios_are_registered(self):
        assert ISSUE_SCENARIOS <= set(scenario_names())
        assert len(scenario_names()) >= 7

    def test_unknown_scenario_is_a_clear_error(self):
        with pytest.raises(KeyError, match="unknown scenario"):
            get_scenario("does_not_exist")

    def test_every_scenario_has_both_tiers(self):
        for name in scenario_names():
            scenario = get_scenario(name)
            assert set(scenario.scales) == {"full", "ci"}, name

    def test_env_override_wins(self, monkeypatch):
        scenario = get_scenario("analyze_cold")
        monkeypatch.setenv("REPRO_BENCH_ANALYZE_MACROS", "123")
        assert scenario.resolve_scale("ci")["macros"] == 123
        monkeypatch.delenv("REPRO_BENCH_ANALYZE_MACROS")
        assert scenario.resolve_scale("ci")["macros"] != 123


class TestRunScenario:
    def test_protocol_produces_a_complete_record(self):
        record = run_scenario(_toy_scenario(), tier="ci")
        assert record.scenario == "toy"
        assert record.tier == "ci"
        assert record.scale == {"n": 500}
        assert len(record.samples) == 3  # repeats, warmup excluded
        assert record.repeats == 3 and record.warmup == 1
        # Span-level attribution from the fastest rep's tracer.
        assert set(record.stages) >= {"stage.a", "stage.b"}
        assert record.counters.get("toy.calls") == 1
        assert record.digest == "d0"
        assert record.env["python"] == env_fingerprint()["python"]
        assert record.created  # ISO stamp present

    def test_env_records_which_kernels_loaded(self, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE", "0")
        env = env_fingerprint()
        assert env["native_reducer"] == env["native_simulator"] == "off"
        monkeypatch.setenv("REPRO_NATIVE", "auto")
        env = env_fingerprint()
        assert env["native_reducer"] in ("loaded", "fallback")
        assert env["native_simulator"] in ("loaded", "fallback")

    def test_digest_disagreement_across_reps_raises(self):
        scenario = _toy_scenario(digests=["a", "a", "b", "c"])
        with pytest.raises(ScenarioRun, match="distinct result digests"):
            run_scenario(scenario, tier="ci")

    def test_repeats_must_be_positive(self):
        with pytest.raises(ScenarioRun, match="repeats"):
            run_scenario(_toy_scenario(), tier="ci", repeats=0)

    def test_progress_callback_narrates(self):
        lines = []
        run_scenario(
            _toy_scenario(),
            tier="ci",
            repeats=1,
            warmup=1,
            progress=lines.append,
        )
        assert any("setup" in line for line in lines)
        assert any("warmup" in line for line in lines)
        assert any("timed" in line for line in lines)


@pytest.fixture
def fast_bench_env(monkeypatch):
    """Shrink the cheapest real scenario so CLI tests stay quick."""
    monkeypatch.setenv("REPRO_BENCH_SIMULATE_PY_MACROS", "80")


class TestBenchCli:
    def _run_cli(self, capsys, *argv):
        code = main(list(argv))
        return code, capsys.readouterr().out

    def test_run_writes_schema_valid_trajectory(
        self, capsys, tmp_path, fast_bench_env
    ):
        code, out = self._run_cli(
            capsys,
            "bench", "run", "simulate_python",
            "--tier", "ci", "--dir", str(tmp_path),
            "--repeats", "2", "--warmup", "0",
        )
        assert code == 0
        path = trajectory_path(tmp_path, "simulate_python")
        assert path.exists()
        # Plain JSON on disk, schema-valid on load.
        json.loads(path.read_text())
        trajectory = TrajectoryFile.load(path)
        record = trajectory.latest_run("ci")
        assert record.scale == {"macros": 80}
        assert "sim.run" in record.stages
        assert "simulate_python[ci]" in out

    def test_compare_back_to_back_passes_gates(
        self, capsys, tmp_path, fast_bench_env
    ):
        code, _ = self._run_cli(
            capsys,
            "bench", "run", "simulate_python",
            "--tier", "ci", "--dir", str(tmp_path),
            "--repeats", "2", "--warmup", "0", "--update-baseline",
        )
        assert code == 0
        for _ in range(2):  # twice back-to-back: noise gates must hold
            code, out = self._run_cli(
                capsys,
                "bench", "compare", "simulate_python",
                "--tier", "ci", "--dir", str(tmp_path),
                "--repeats", "2", "--warmup", "0",
            )
            assert code == 0, out
            assert "all gates passed" in out

    def test_compare_detects_and_attributes_injected_slowdown(
        self, capsys, tmp_path
    ):
        # Full ci scale (not the shrunken fixture): the noise floors are
        # calibrated for it, so a genuine 2x stage slowdown must clear
        # them while the back-to-back test above stays quiet.
        self._run_cli(
            capsys,
            "bench", "run", "simulate_python",
            "--tier", "ci", "--dir", str(tmp_path),
            "--repeats", "2", "--warmup", "0", "--update-baseline",
        )
        # Inject an exact 2x slowdown into one stage by halving the
        # committed baseline's numbers for that stage, then gate the
        # *same stored run* (--latest): no second measurement, so the
        # injected ratio is precisely 2.0 regardless of machine load.
        path = trajectory_path(tmp_path, "simulate_python")
        trajectory = TrajectoryFile.load(path)
        baseline = trajectory.baseline_for("ci")
        baseline.stages["sim.run"] /= 2.0
        baseline.samples = [s / 2.0 for s in baseline.samples]
        trajectory.set_baseline(baseline)
        trajectory.save(path)
        code, out = self._run_cli(
            capsys,
            "bench", "compare", "simulate_python", "--latest",
            "--tier", "ci", "--dir", str(tmp_path),
        )
        assert code == 1
        assert "regression" in out
        assert "sim.run" in out  # attributed to the stage by name

    def test_report_renders_markdown_table(
        self, capsys, tmp_path, fast_bench_env
    ):
        self._run_cli(
            capsys,
            "bench", "run", "simulate_python",
            "--tier", "ci", "--dir", str(tmp_path),
            "--repeats", "2", "--warmup", "0", "--update-baseline",
        )
        code, out = self._run_cli(
            capsys,
            "bench", "report", "--tier", "ci",
            "--dir", str(tmp_path), "--markdown",
        )
        assert code == 0
        assert "| Scenario |" in out
        assert "| simulate_python |" in out
        assert "generated by `repro bench report" in out

    def test_report_without_trajectories_fails(self, capsys, tmp_path):
        code, out = self._run_cli(
            capsys, "bench", "report", "--dir", str(tmp_path)
        )
        assert code == 1
        assert "no BENCH_" in out

    def test_run_requires_scenarios_or_all(self, capsys, tmp_path):
        with pytest.raises(SystemExit, match="--all"):
            main(["bench", "run", "--dir", str(tmp_path)])
