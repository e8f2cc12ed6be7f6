"""Ctrl-C regression test: an interrupted journalling ``suite`` run must
flush its journal and exit 4 (the documented interrupted code), never
traceback — and a ``--resume`` must finish the work.

Real subprocesses, real SIGINT: the drill launches ``python -m repro``
in its own session and signals it mid-run."""

import json
import os
import signal
import subprocess
import sys
import time

from repro.cli import EXIT_INTERRUPTED
from repro.obs import clock


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


def interrupt_once_checkpointed(process, checkpoint_ready, grace=60.0):
    """SIGINT *process* as soon as *checkpoint_ready* reports progress
    on disk; returns (returncode, stdout, stderr)."""
    deadline = clock.perf_seconds() + grace
    while not checkpoint_ready():
        if process.poll() is not None:
            out, err = process.communicate()
            raise AssertionError(
                f"run finished before it could be interrupted "
                f"(rc={process.returncode})\n{out}\n{err}"
            )
        if clock.perf_seconds() > deadline:
            process.kill()
            raise AssertionError("checkpoint never appeared")
        time.sleep(0.01)
    process.send_signal(signal.SIGINT)
    out, err = process.communicate(timeout=60)
    return process.returncode, out, err


class TestSuiteInterrupt:
    def test_sigint_exits_4_with_journal_and_resume_finishes(
        self, tmp_path
    ):
        journal = tmp_path / "suite.json"
        cache = tmp_path / "cache"
        names = ["gamess", "mcf", "milc", "soplex", "lbm", "omnetpp"]
        only = [arg for name in names for arg in ("--only", name)]

        def journalled_progress():
            if not journal.exists():
                return False
            try:
                return bool(
                    json.loads(journal.read_text()).get("completed")
                )
            except (ValueError, OSError):
                return False  # mid-rewrite; poll again

        interrupted = launch(
            "suite", *only, "--macros", "200",
            "--checkpoint", str(journal), "--cache-dir", str(cache),
        )
        rc, out, err = interrupt_once_checkpointed(
            interrupted, journalled_progress
        )
        assert rc == EXIT_INTERRUPTED, (out, err)
        assert "Traceback" not in err
        completed = json.loads(journal.read_text())["completed"]
        assert completed  # flushed before exiting

        resumed = launch(
            "suite", *only, "--macros", "200",
            "--checkpoint", str(journal), "--cache-dir", str(cache),
            "--resume",
        )
        out, err = resumed.communicate(timeout=300)
        assert resumed.returncode == 0, err
        assert f"{len(names)}/{len(names)} workloads" in out
        assert "resumed" in out
