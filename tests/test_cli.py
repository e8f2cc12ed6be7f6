"""Command-line interface tests (driving main() in-process)."""

import os
import subprocess
import sys

import pytest

from repro import cli
from repro.cli import EXIT_INTERRUPTED, main
from tests.simulator.test_trace_format import (
    GOLDEN_MODEL_V2,
    GOLDEN_V2,
    NOT_ARCHIVES,
    write_not_archive,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def run_process(*argv):
    """``python -m repro`` with *argv* in a child process, from the
    repository root."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in ("src", env.get("PYTHONPATH", "")) if p
    )
    return subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        capture_output=True, text=True, env=env, timeout=120,
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    )


class TestSimulate:
    def test_prints_cpi_and_stats(self, capsys):
        code, out = run(capsys, "simulate", "gamess", "--macros", "100")
        assert code == 0
        assert "CPI=" in out
        assert "branch_mispredictions" in out

    def test_overrides_change_the_run(self, capsys):
        _code, base_out = run(capsys, "simulate", "gamess", "--macros", "100")
        _code, fast_out = run(
            capsys, "simulate", "gamess", "--macros", "100",
            "--override", "Fadd=1", "--override", "Fmul=1",
        )
        assert base_out != fast_out

    def test_unknown_workload_rejected(self, capsys):
        with pytest.raises(SystemExit, match="unknown workload"):
            main(["simulate", "doom"])

    def test_bad_override_rejected(self):
        with pytest.raises(SystemExit, match="bad override"):
            main(["simulate", "gamess", "--override", "Fadd=fast"])

    def test_structure_domain_override_rejected(self):
        # BR_MISP parses as an event but is rejected by LatencyConfig
        # only for BASE; BR_MISP is allowed to change within simulate.
        code = main(
            ["simulate", "gamess", "--macros", "80", "--override",
             "BrMisp=12"]
        )
        assert code == 0


class TestNativeGate:
    def test_native_flag_publishes_the_gate(self, capsys, monkeypatch):
        import os

        # setenv (not delenv) so teardown restores the pre-test state
        # even though main() mutates os.environ directly.
        monkeypatch.setenv("REPRO_NATIVE", "auto")
        code, off_out = run(
            capsys, "--native", "off", "simulate", "gamess",
            "--macros", "100",
        )
        assert code == 0
        assert os.environ["REPRO_NATIVE"] == "0"
        code, auto_out = run(
            capsys, "--native", "auto", "simulate", "gamess",
            "--macros", "100",
        )
        assert code == 0
        assert os.environ["REPRO_NATIVE"] == "auto"
        # Both paths are bit-identical, so the printed run must match.
        assert off_out == auto_out

    def test_native_on_and_off_agree(self, capsys, monkeypatch):
        from repro.simulator.native import load_native_sim

        monkeypatch.setenv("REPRO_NATIVE", "auto")
        if load_native_sim() is None:
            pytest.skip("no C compiler available")
        code, on_out = run(
            capsys, "--native", "on", "simulate", "gamess",
            "--macros", "100",
        )
        assert code == 0
        code, off_out = run(
            capsys, "--native", "off", "simulate", "gamess",
            "--macros", "100",
        )
        assert code == 0
        assert on_out == off_out


class TestAnalyze:
    def test_prints_decomposition(self, capsys):
        code, out = run(capsys, "analyze", "gamess", "--macros", "100")
        assert code == 0
        assert "penalty decomposition" in out
        assert "representative paths" in out

    def test_save_and_reuse_model(self, capsys, tmp_path):
        model_path = tmp_path / "gamess.npz"
        code, out = run(
            capsys, "analyze", "gamess", "--macros", "100",
            "--save", str(model_path),
        )
        assert code == 0
        assert model_path.exists()
        code, out = run(
            capsys, "dse", "sweep", "gamess", "--model", str(model_path),
            "--axis", "L1D=1,2,4", "--axis", "Fadd=1,3,6",
        )
        assert code == 0
        assert "9 design points" in out


class TestFlagValidation:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["analyze", "gamess", "--jobs", "0"], "--jobs"),
            (["analyze", "gamess", "--segment-length", "0"],
             "--segment-length"),
            (["profile", "gamess", "--segment-length", "0"],
             "--segment-length"),
        ],
    )
    def test_non_positive_values_rejected_before_simulating(
        self, monkeypatch, argv, message
    ):
        def no_workload(args):
            raise AssertionError("the workload was built before the check")

        monkeypatch.setattr(cli, "_workload", no_workload)
        with pytest.raises(SystemExit, match=f"{message} must be at least 1"):
            main(argv)


class TestArchiveErrors:
    """A missing archive, one of the other kind, or a file that is no
    archive at all ends the command with one line naming the path."""

    @pytest.mark.parametrize("missing", [True, False],
                             ids=["missing", "other-kind"])
    @pytest.mark.parametrize(
        "argv, other",
        [
            (["analyze", "gamess", "--from-trace"], GOLDEN_MODEL_V2),
            (["dse", "sweep", "gamess", "--axis", "L1D=1,2", "--model"],
             GOLDEN_V2),
        ],
        ids=["from-trace", "model"],
    )
    def test_names_the_path(self, tmp_path, argv, other, missing):
        path = tmp_path / "absent.npz" if missing else other
        with pytest.raises(SystemExit) as excinfo:
            main(argv + [str(path)])
        message = str(excinfo.value)
        assert str(path) in message and "\n" not in message

    def test_exits_1_with_one_line(self, tmp_path):
        path = tmp_path / "absent.npz"
        done = run_process(
            "dse", "sweep", "gamess", "--model", str(path), "--axis",
            "L1D=1,2",
        )
        assert done.returncode == 1
        assert done.stderr.splitlines() == [
            f"cannot read {path}: No such file or directory"
        ]

    @pytest.mark.parametrize(
        "argv, archive",
        [
            (["analyze", "gamess", "--from-trace"], GOLDEN_V2),
            (["dse", "sweep", "gamess", "--axis", "L1D=1,2", "--model"],
             GOLDEN_MODEL_V2),
        ],
        ids=["from-trace", "model"],
    )
    def test_a_file_that_is_no_archive_exits_1_with_one_line(
        self, tmp_path, argv, archive
    ):
        for kind in NOT_ARCHIVES:
            path = write_not_archive(tmp_path / f"{kind}.npz", kind, archive)
            done = run_process(*argv, str(path))
            assert done.returncode == 1
            assert done.stderr.splitlines() == [
                f"{path} is not an .npz archive"
            ]


class TestCompare:
    def test_scores_all_methods(self, capsys):
        code, out = run(
            capsys, "compare", "gamess", "--macros", "100",
            "--override", "L1D=2",
        )
        assert code == 0
        for method in ("rpstacks", "cp1", "fmt"):
            assert method in out

    def test_requires_an_override(self):
        with pytest.raises(SystemExit, match="at least one --override"):
            main(["compare", "gamess"])


class TestTraceWorkflow:
    def test_simulate_save_then_analyze_from_trace(self, capsys, tmp_path):
        trace_path = tmp_path / "run.npz"
        code = main(
            ["simulate", "gamess", "--macros", "100",
             "--save-trace", str(trace_path)]
        )
        assert code == 0
        assert trace_path.exists()
        code = main(["analyze", "gamess", "--from-trace", str(trace_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "representative paths" in out

    def test_from_trace_matches_live_analysis(self, capsys, tmp_path):
        trace_path = tmp_path / "run.npz"
        main(["simulate", "gamess", "--macros", "100",
              "--save-trace", str(trace_path)])
        capsys.readouterr()
        main(["analyze", "gamess", "--macros", "100"])
        live = capsys.readouterr().out
        main(["analyze", "gamess", "--from-trace", str(trace_path)])
        archived = capsys.readouterr().out
        # Same decomposition from the live and the archived pipeline.
        assert live.splitlines()[1:] == archived.splitlines()[1:]


class TestJsonOutput:
    def test_dse_sweep_json(self, capsys):
        import json

        code = main(
            ["dse", "sweep", "gamess", "--macros", "100",
             "--axis", "L1D=1,2,4", "--json"]
        )
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["num_points"] == 3
        assert data["pareto_front"]
        first = data["pareto_front"][0]
        assert "L1D" in first["latency"]
        assert first["predicted_cpi"] > 0


class TestPipelineCommand:
    def test_draws_a_diagram(self, capsys):
        code = main(
            ["pipeline", "gamess", "--macros", "80",
             "--first", "0", "--count", "8"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "opclass" in out
        assert "C" in out  # commits drawn

    def test_window_validation(self):
        with pytest.raises(ValueError):
            main(["pipeline", "gamess", "--macros", "50",
                  "--count", "0"])


class TestSuiteCommand:
    def test_runs_selected_workloads(self, capsys):
        code, out = run(
            capsys, "suite", "--only", "gamess", "--only", "bzip2",
            "--macros", "60",
        )
        assert code == 0
        assert "gamess" in out and "bzip2" in out
        assert "2/2 workloads" in out

    def test_cache_dir_turns_second_run_into_hits(self, capsys, tmp_path):
        cache_dir = str(tmp_path / "cache")
        run(capsys, "suite", "--only", "gamess", "--macros", "60",
            "--cache-dir", cache_dir)
        code, out = run(
            capsys, "suite", "--only", "gamess", "--macros", "60",
            "--cache-dir", cache_dir,
        )
        assert code == 0
        assert "hit" in out

    def test_unknown_workload_rejected(self, capsys):
        with pytest.raises(SystemExit, match="doom"):
            main(["suite", "--only", "doom"])

    def test_timeout_applies_at_one_job(self, capsys):
        code, out = run(
            capsys, "suite", "--only", "gamess", "--jobs", "1",
            "--timeout", "0.01",
        )
        assert code == 1
        assert "FAILED" in out
        assert "(0.01s per-task budget)" in out


class TestCacheCommand:
    def test_stats_and_clear(self, capsys, tmp_path):
        cache_dir = str(tmp_path / "cache")
        run(capsys, "analyze", "gamess", "--macros", "60",
            "--cache-dir", cache_dir)
        code, out = run(capsys, "cache", "stats", "--cache-dir", cache_dir)
        assert code == 0
        assert "entries" in out and "gamess" in out
        code, out = run(capsys, "cache", "clear", "--cache-dir", cache_dir)
        assert code == 0
        assert "removed 1" in out
        code, out = run(capsys, "cache", "stats", "--cache-dir", cache_dir)
        assert code == 0

    def test_stats_report_what_is_on_disk(self, capsys, tmp_path):
        """A corrupted entry is still one entry on disk; ``stats`` runs
        in its own process, so it has no hit, miss or corruption counts
        to report."""
        cache_dir = tmp_path / "cache"
        run(capsys, "analyze", "gamess", "--macros", "50",
            "--cache-dir", str(cache_dir))
        (model,) = cache_dir.glob("v2/*/*/model.npz")
        model.write_bytes(b"junk")
        code, out = run(capsys, "cache", "stats", "--cache-dir",
                        str(cache_dir))
        assert code == 0
        assert "entries         1" in out
        assert "gamess         1 entries" in out
        assert "session" not in out
        assert "corrupt" not in out

    def test_analyze_cache_dir_is_reused(self, capsys, tmp_path):
        cache_dir = str(tmp_path / "cache")
        _code, first = run(capsys, "analyze", "gamess", "--macros", "60",
                           "--cache-dir", cache_dir)
        _code, second = run(capsys, "analyze", "gamess", "--macros", "60",
                            "--cache-dir", cache_dir)
        # Identical decomposition whether computed or served from cache.
        assert first == second


class TestReportCommand:
    def test_prints_markdown(self, capsys):
        code = main(["report", "gamess", "--macros", "100"])
        assert code == 0
        out = capsys.readouterr().out
        assert "# Analysis report: gamess" in out
        assert "## Probe validation" in out

    def test_writes_to_file(self, capsys, tmp_path):
        target = tmp_path / "reports" / "gamess.md"
        code = main(
            ["report", "gamess", "--macros", "100",
             "--output", str(target)]
        )
        assert code == 0
        assert target.exists()
        assert "# Analysis report" in target.read_text()


class TestDseSweep:
    def test_streams_and_prints_front_with_metrics(self, capsys):
        code, out = run(
            capsys, "dse", "sweep", "gamess", "--macros", "100",
            "--axis", "L1D=1,2,4", "--axis", "Fadd=1,3,6",
            "--target-fraction", "0.9", "--chunk-size", "4",
        )
        assert code == 0
        assert "design points" in out
        assert "points/s" in out
        assert "predicted CPI" in out

    def test_sweep_matches_explore_front(self, capsys):
        import json

        from repro.common.events import EventType
        from repro.dse.designspace import DesignSpace
        from repro.dse.explorer import Explorer
        from repro.dse.pipeline import analyze
        from repro.workloads.suite import make_workload

        _code, out = run(
            capsys, "dse", "sweep", "gamess", "--macros", "100",
            "--axis", "L1D=1,2,4", "--axis", "Fadd=1,3,6",
            "--chunk-size", "5", "--json",
        )
        model = analyze(make_workload("gamess", 100)).rpstacks
        space = DesignSpace.from_mapping(
            {EventType.L1D: [1, 2, 4], EventType.FP_ADD: [1, 3, 6]}
        )
        explored = Explorer(model).explore(space).as_dict()
        assert json.loads(out)["pareto_front"] == explored["pareto_front"]

    def test_json_includes_metrics(self, capsys):
        code, out = run(
            capsys, "dse", "sweep", "gamess", "--macros", "100",
            "--axis", "L1D=1,2", "--json",
        )
        assert code == 0
        import json

        payload = json.loads(out)
        assert payload["metrics"]["num_points"] == 2
        assert payload["num_points"] == 2

    def test_requires_an_axis(self):
        with pytest.raises(SystemExit, match="at least one --axis"):
            main(["dse", "sweep", "gamess"])

    def test_rejects_structure_domain_axis(self):
        with pytest.raises(SystemExit, match="BR_MISP is structure-domain"):
            main(["dse", "sweep", "gamess", "--axis", "BrMisp=1,2"])

    def test_rejects_malformed_axis(self):
        with pytest.raises(SystemExit, match="bad axis"):
            main(["dse", "sweep", "gamess", "--axis", "L1D="])

    def test_rejects_bad_chunk_size(self):
        with pytest.raises(SystemExit, match="chunk-size"):
            main(["dse", "sweep", "gamess", "--axis", "L1D=1,2",
                  "--chunk-size", "0"])

    def test_saved_model_drives_the_sweep(self, capsys, tmp_path):
        model_path = tmp_path / "gamess.npz"
        run(capsys, "analyze", "gamess", "--macros", "100",
            "--save", str(model_path))
        code, out = run(
            capsys, "dse", "sweep", "gamess", "--model", str(model_path),
            "--axis", "L1D=1,2,4",
        )
        assert code == 0
        assert "loaded model" in out


class TestObservability:
    """The --trace-out/--metrics-json flags and progress reporting."""

    def test_suite_summary_names_the_slowest_workload(self, capsys):
        code, out = run(
            capsys, "suite", "--only", "gamess", "--only", "bzip2",
            "--macros", "60",
        )
        assert code == 0
        assert "slowest" in out

    def test_analyze_trace_out_writes_a_loadable_trace(self, capsys, tmp_path):
        from repro.obs.tracer import load_chrome_trace

        trace = tmp_path / "trace.json"
        code, out = run(
            capsys, "analyze", "gamess", "--macros", "60",
            "--trace-out", str(trace),
        )
        assert code == 0
        assert "instrumentation written to" in out
        names = {event["name"] for event in load_chrome_trace(trace)}
        # The root pipeline span and at least one nested stage.
        assert "analyze" in names
        assert "sim.run" in names
        assert "graph.build" in names

    def test_trace_out_environment_alone_writes_the_trace(
        self, capsys, monkeypatch, tmp_path
    ):
        from repro.obs.tracer import load_chrome_trace

        trace = tmp_path / "env-trace.json"
        monkeypatch.setenv("REPRO_TRACE_OUT", str(trace))
        code, out = run(capsys, "analyze", "gamess", "--macros", "60")
        assert code == 0
        assert f"instrumentation written to {trace}" in out
        names = {event["name"] for event in load_chrome_trace(trace)}
        assert {"analyze", "sim.run"} <= names

    def test_suite_metrics_json_snapshot(self, capsys, tmp_path):
        import json

        metrics = tmp_path / "metrics.json"
        code, _out = run(
            capsys, "suite", "--only", "gamess", "--macros", "60",
            "--metrics-json", str(metrics),
        )
        assert code == 0
        snapshot = json.loads(metrics.read_text())
        assert snapshot["counters"]["suite.workloads"] == 1
        assert "suite.wall_seconds" in snapshot["gauges"]

    def test_sweep_progress_lines_reach_stderr(self, capsys):
        code = main(
            ["dse", "sweep", "gamess", "--macros", "100",
             "--axis", "L1D=1,2,4", "--axis", "Fadd=1,3,6",
             "--chunk-size", "2", "--progress", "0"]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "sweep:" in captured.err
        assert "chunks" in captured.err
        assert "front size" in captured.err


class TestFaultToleranceCli:
    def test_suite_flag_validation(self):
        with pytest.raises(SystemExit, match="retries"):
            main(["suite", "--only", "gamess", "--retries", "-1"])


def _interrupt(args):
    raise KeyboardInterrupt


class TestInterrupt:
    @pytest.mark.parametrize(
        "command, argv, hint",
        [
            ("cmd_analyze", ["analyze", "gamess"], False),
            ("cmd_analyze", ["analyze", "gamess", "--cache-dir", "c"], False),
            ("cmd_compare", ["compare", "gamess", "--override", "L1D=2"],
             False),
            ("cmd_dse_sweep", ["dse", "sweep", "gamess", "--axis", "L1D=1"],
             False),
            ("cmd_suite", ["suite", "--only", "gamess"], False),
            ("cmd_suite", ["suite", "--only", "gamess", "--cache-dir", "c"],
             True),
        ],
    )
    def test_ctrl_c_exits_4_and_hints_a_cache_rerun(
        self, capsys, monkeypatch, command, argv, hint
    ):
        """Every command exits 4; only ``suite --cache-dir c`` hints a
        rerun on that cache."""
        monkeypatch.setattr(cli, command, _interrupt)
        assert main(argv) == EXIT_INTERRUPTED == 4
        err = capsys.readouterr().err
        assert "interrupted" in err
        assert ("rerun with --cache-dir c to continue" in err) == hint
