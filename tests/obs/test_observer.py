"""Observer facade tests: null fast path, ambient scoping, env toggles."""

import io
import threading

from repro.obs import observer as obs_mod
from repro.obs.observer import (
    NULL_OBSERVER,
    Observer,
    from_env,
    get_observer,
    use_observer,
)
from repro.obs.tracer import Tracer


class TestNullFastPath:
    def test_disabled_calls_return_shared_singletons(self):
        disabled = Observer(enabled=False)
        assert disabled.span("x") is disabled.span("y")
        assert disabled.counter("a") is disabled.counter("b")
        assert disabled.counter("a") is disabled.histogram("h")
        # All null operations are inert and chainable.
        with disabled.span("x") as span:
            span.set(k=1)
        disabled.counter("a").inc(5)
        disabled.gauge("g").set(3)
        disabled.histogram("h").observe(0.1)
        disabled.event("e")
        disabled.record("r", 0, 100)
        disabled.progress("nope")

    def test_disabled_allocates_no_collectors(self):
        disabled = Observer(enabled=False)
        assert disabled.tracer is None
        assert disabled.metrics is None

    def test_null_observer_is_module_default(self):
        assert get_observer() is NULL_OBSERVER


class TestEnabledRecording:
    def test_span_and_metrics_flow_into_collectors(self):
        obs = Observer(enabled=True, progress_stream=None)
        with obs.span("stage", workload="w"):
            obs.counter("touched").inc()
        assert obs.tracer.spans[0].name == "stage"
        assert obs.metrics.counter_value("touched") == 1

    def test_progress_prints_and_traces(self):
        stream = io.StringIO()
        obs = Observer(enabled=True, progress_stream=stream)
        obs.progress("sweep: 3/10 chunks", chunks=3)
        assert "sweep: 3/10 chunks" in stream.getvalue()
        events = obs.tracer.export_events()
        instants = [e for e in events if e["ph"] == "i"]
        assert instants[0]["args"]["message"] == "sweep: 3/10 chunks"

    def test_absorb_merges_worker_payloads(self):
        obs = Observer(enabled=True, progress_stream=None)
        worker_tracer = Tracer()
        with worker_tracer.span("task.w"):
            pass
        obs.absorb(
            events=worker_tracer.export_events(),
            metrics={"counters": {"sweep.points": 10}},
        )
        assert obs.metrics.counter_value("sweep.points") == 10
        assert "task.w" in obs.tracer.totals_by_name()

    def test_finish_writes_configured_outputs(self, tmp_path):
        obs = Observer(
            enabled=True,
            trace_out=str(tmp_path / "t.json"),
            metrics_out=str(tmp_path / "m.json"),
            progress_stream=None,
        )
        with obs.span("x"):
            pass
        written = obs.finish()
        assert len(written) == 2
        assert (tmp_path / "t.json").exists()
        assert (tmp_path / "m.json").exists()

    def test_finish_on_disabled_writes_nothing(self, tmp_path):
        disabled = Observer(enabled=False, trace_out=str(tmp_path / "t.json"))
        assert disabled.finish() == []
        assert not (tmp_path / "t.json").exists()


class TestAmbientScoping:
    def test_use_observer_installs_and_restores(self):
        before = get_observer()
        scoped = Observer(enabled=True, progress_stream=None)
        with use_observer(scoped) as active:
            assert active is scoped
            assert get_observer() is scoped
        assert get_observer() is before

    def test_use_observer_restores_on_exception(self):
        before = get_observer()
        try:
            with use_observer(Observer(enabled=True, progress_stream=None)):
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert get_observer() is before

    def test_use_observer_none_keeps_current_ambient(self):
        outer = Observer(enabled=True, progress_stream=None)
        with use_observer(outer):
            with use_observer(None) as active:
                assert active is outer

    def test_overlapping_scopes_on_two_threads_stay_apart(self):
        """Thread A scopes its observer, thread B scopes its own, A
        leaves first and B records after that: each sees only its own
        observer, and neither scope leaks into the other thread or
        outlives itself."""
        first = Observer(enabled=True, progress_stream=None)
        second = Observer(enabled=True, progress_stream=None)
        a_entered = threading.Event()
        b_entered = threading.Event()
        a_left = threading.Event()
        seen = {}

        def thread_a():
            with use_observer(first):
                a_entered.set()
                b_entered.wait(10)
                seen["a inside"] = get_observer()
            a_left.set()

        def thread_b():
            a_entered.wait(10)
            with use_observer(second):
                b_entered.set()
                a_left.wait(10)
                with get_observer().span("b.after_a_left"):
                    pass
            seen["b after"] = get_observer()

        threads = [threading.Thread(target=run) for run in (thread_a,
                                                            thread_b)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(10)
            assert not thread.is_alive()
        assert seen["a inside"] is first
        assert [span.name for span in second.tracer.spans] == [
            "b.after_a_left"
        ]
        assert first.tracer.spans == []
        assert seen["b after"] is NULL_OBSERVER
        assert get_observer() is NULL_OBSERVER


class TestFromEnv:
    def test_unset_environment_yields_null(self):
        assert from_env(environ={}) is NULL_OBSERVER

    def test_trace_out_enables(self, tmp_path):
        obs = from_env(environ={"REPRO_TRACE_OUT": str(tmp_path / "t.json")})
        assert obs.enabled
        assert obs.trace_out == str(tmp_path / "t.json")

    def test_flag_enables_without_outputs(self):
        for flag in ("1", "true", "ON"):
            obs = from_env(environ={"REPRO_OBS": flag})
            assert obs.enabled
            assert obs.trace_out is None

    def test_falsey_flag_stays_null(self):
        assert from_env(environ={"REPRO_OBS": "0"}) is NULL_OBSERVER
        assert from_env(environ={"REPRO_TRACE_OUT": ""}) is NULL_OBSERVER
