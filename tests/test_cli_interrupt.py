"""Ctrl-C regression test: an interrupted ``suite --cache-dir`` run must
exit 4 (the documented interrupted code), never traceback — and a rerun
on the same cache must finish the work, loading every workload that
finished before the interrupt as a cache hit.

Real subprocesses, real SIGINT: the drill launches ``python -m repro``
in its own session and signals it mid-run."""

import glob
import os
import re
import signal
import subprocess
import sys
import time

from repro.cli import EXIT_INTERRUPTED
from repro.obs import clock
from repro.runtime.cache import ArtifactCache


def launch(*argv, **popen_kwargs):
    """Run ``python -m repro ...`` in its own session (so the SIGINT we
    send reaches only the child, like a terminal foreground group)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in ("src", env.get("PYTHONPATH", "")) if p
    )
    return subprocess.Popen(
        [sys.executable, "-m", "repro", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
        env=env,
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        **popen_kwargs,
    )


def interrupt_once_stored(process, stored, grace=60.0):
    """SIGINT *process* as soon as *stored* reports a finished workload
    on disk; returns (returncode, stdout, stderr)."""
    deadline = clock.perf_seconds() + grace
    while not stored():
        if process.poll() is not None:
            out, err = process.communicate()
            raise AssertionError(
                f"run finished before it could be interrupted "
                f"(rc={process.returncode})\n{out}\n{err}"
            )
        if clock.perf_seconds() > deadline:
            process.kill()
            raise AssertionError("no cache entry ever appeared")
        time.sleep(0.01)
    process.send_signal(signal.SIGINT)
    out, err = process.communicate(timeout=60)
    return process.returncode, out, err


class TestSuiteInterrupt:
    def test_sigint_exits_4_and_a_rerun_on_the_cache_finishes(
        self, tmp_path
    ):
        cache = tmp_path / "cache"
        names = ["gamess", "mcf", "milc", "soplex", "lbm", "omnetpp"]
        argv = [arg for name in names for arg in ("--only", name)]
        argv += ["--macros", "200", "--cache-dir", str(cache)]

        def stored():
            # glob's "*" skips the dot-prefixed staging directories.
            return bool(glob.glob(str(cache / "v2" / "*" / "*" / "meta.json")))

        rc, out, err = interrupt_once_stored(launch("suite", *argv), stored)
        assert rc == EXIT_INTERRUPTED, (out, err)
        assert "Traceback" not in err
        assert f"rerun with --cache-dir {cache} to continue" in err
        entries = ArtifactCache(cache).stats().entries
        assert entries >= 1

        rerun = launch("suite", *argv)
        out, err = rerun.communicate(timeout=300)
        assert rerun.returncode == 0, err
        assert f"{len(names)}/{len(names)} workloads" in out
        hits = re.search(r"(\d+) cache hit", out)
        assert hits and int(hits.group(1)) >= entries, out
