"""The ``REPRO_NATIVE`` gate is read on every call, for every kernel.

Flipping the gate mid-process must take effect in both directions:
``0`` disables a kernel that already loaded, and a later ``1`` loads it,
also when the first call of the process ran under ``0``.  Threads racing
on a first load share one build instead of leaving the process on the
Python path.
"""

import threading

import pytest

from repro.core import native
from repro.core.native import load_gated, load_native
from repro.simulator.native import load_native_sim

KERNELS = {"reducer": load_native, "simulator": load_native_sim}


def _loaded_under_auto(monkeypatch, load):
    monkeypatch.setenv("REPRO_NATIVE", "auto")
    kernel = load()
    if kernel is None:
        pytest.skip("no C toolchain available in this environment")
    return kernel


@pytest.mark.parametrize("kernel", sorted(KERNELS))
class TestGateFlips:
    def test_off_after_load_then_require_loads_again(
        self, monkeypatch, kernel
    ):
        load = KERNELS[kernel]
        loaded = _loaded_under_auto(monkeypatch, load)
        monkeypatch.setenv("REPRO_NATIVE", "0")
        assert load() is None
        monkeypatch.setenv("REPRO_NATIVE", "1")
        assert load() is loaded

    def test_require_after_an_off_first_call_loads(
        self, monkeypatch, kernel
    ):
        load = KERNELS[kernel]
        _loaded_under_auto(monkeypatch, load)
        # A process whose first call ran under 0: nothing memoised yet.
        monkeypatch.setattr(native, "_LOADED", {})
        monkeypatch.setenv("REPRO_NATIVE", "0")
        assert load() is None
        monkeypatch.setenv("REPRO_NATIVE", "1")
        assert load() is not None


class TestFailedLoad:
    def test_auto_reports_once_and_require_retries(
        self, monkeypatch, capsys
    ):
        monkeypatch.setattr(native, "_LOADED", {})
        attempts = []

        def broken():
            attempts.append(1)
            raise OSError("no compiler")

        monkeypatch.setenv("REPRO_NATIVE", "auto")
        assert load_gated("probe", broken) is None
        assert load_gated("probe", broken) is None
        assert len(attempts) == 1
        assert capsys.readouterr().err.count("native probe unavailable") == 1

        monkeypatch.setenv("REPRO_NATIVE", "1")
        with pytest.raises(RuntimeError, match="REPRO_NATIVE=1"):
            load_gated("probe", broken)
        assert len(attempts) == 2


@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_concurrent_first_loads_share_one_build(monkeypatch, tmp_path, kernel):
    """Two threads loading on a fresh cache both get the kernel, and the
    process keeps it: racing first builds must not record a failure."""
    load = KERNELS[kernel]
    _loaded_under_auto(monkeypatch, load)
    monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path))
    monkeypatch.setattr(native, "_LOADED", {})
    barrier = threading.Barrier(2)
    results = [None, None]

    def first_load(slot):
        barrier.wait()
        results[slot] = load()

    threads = [
        threading.Thread(target=first_load, args=(slot,)) for slot in (0, 1)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert results[0] is not None and results[1] is not None
    assert load() is not None
