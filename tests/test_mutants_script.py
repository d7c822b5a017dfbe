import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "mutants.py"


def _children(pid):
    """Live child processes of ``pid``, read from /proc."""
    out = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except OSError:  # the process ended while the scan ran
            continue
        if int(fields[1]) == pid and fields[0] != "Z":
            out.append(int(stat.parent.name))
    return out


def _alive(pid):
    try:
        state = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0]
    except OSError:
        return False
    return state != "Z"


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc")
def test_sigterm_removes_the_copy_and_its_pytest(tmp_path):
    # CI stops the script with `timeout`, which sends SIGTERM: the running
    # pytest and the temporary copy must not outlive it
    env = dict(os.environ, TMPDIR=str(tmp_path))
    script = subprocess.Popen(
        [sys.executable, str(SCRIPT)], env=env,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    try:
        deadline = time.monotonic() + 60
        children = []
        while not children and script.poll() is None and time.monotonic() < deadline:
            time.sleep(0.05)
            children = _children(script.pid)
        assert children, "the script started no pytest run"
        assert list(tmp_path.glob("lcakit-mutants-*"))
        script.send_signal(signal.SIGTERM)
        assert script.wait(timeout=30) == 128 + signal.SIGTERM
    finally:
        if script.poll() is None:
            script.kill()
            script.wait()
    assert list(tmp_path.iterdir()) == []
    assert not any(_alive(pid) for pid in children)
