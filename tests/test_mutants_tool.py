"""`tools/mutants.py` leaves nothing behind when it is stopped."""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def running_under(folder: Path):
    """The pids of the processes whose working directory lies in `folder`."""
    found = []
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            try:
                cwd = os.readlink(entry / "cwd")
            except OSError:  # gone, a zombie, or not ours to read
                continue
            if cwd.startswith(str(folder)):
                found.append(int(entry.name))
    return found


@pytest.mark.skipif(not Path("/proc/self/cwd").exists(), reason="reads working directories from /proc")
def test_sigterm_during_the_baseline_run_removes_the_copy_and_its_tests(tmp_path):
    """The tool copies the repository under TMPDIR and runs the tests there
    in a process group of their own; a SIGTERM while they run kills that
    group and removes the copy before the tool exits."""
    env = dict(os.environ, TMPDIR=str(tmp_path))
    tool = subprocess.Popen(
        [sys.executable, "tools/mutants.py", "ordinals", "fundamental"],
        cwd=ROOT,
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    try:
        deadline = time.monotonic() + 60
        while not running_under(tmp_path):
            assert tool.poll() is None and time.monotonic() < deadline
            time.sleep(0.05)
        tool.send_signal(signal.SIGTERM)
        assert tool.wait(60) == 128 + signal.SIGTERM
        assert list(tmp_path.glob("mutants-*")) == []
        assert running_under(tmp_path) == []
    finally:
        if tool.poll() is None:
            tool.kill()
            tool.wait()
        for pid in running_under(tmp_path):
            os.kill(pid, signal.SIGKILL)
