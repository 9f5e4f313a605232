"""The C kernel's build directory lives only as long as its process.

Each process that builds a kernel compiles it into a private temporary
directory.  The directory must be gone once the process exits, whether
it is a main process or a forked worker of :mod:`repro.runapi.pool`
(which leaves through ``os._exit`` and skips ``atexit``).
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import textwrap

import pytest

from repro.sysgen.ckernel import ckernel_enabled

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SCRIPT = textwrap.dedent("""
    import os
    from repro.apps.cordic.hardware import build_cordic_model
    from repro.runapi.pool import Worker
    from repro.sysgen import ckernel
    from repro.sysgen.batched import BatchedModel

    def build_kernel():
        batch = BatchedModel([build_cordic_model(2)[0] for _ in range(2)])
        assert batch._schedule.ckernel is not None, "no kernel was built"
        assert os.listdir(ckernel._WORK_DIR)
        return ckernel._WORK_DIR

    if __name__ == "__main__":
        worker = Worker()
        worker.send(build_kernel)
        reply = worker.recv()
        worker.exit()
        assert reply["ok"], reply
        print(reply["value"])
        print(build_kernel())
""")


@pytest.mark.skipif(shutil.which("gcc") is None or not ckernel_enabled(),
                    reason="the C kernel needs gcc and is not disabled")
def test_build_directories_removed_at_exit(tmp_path):
    scratch = tmp_path / "tmp"
    scratch.mkdir()
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        cwd=REPO,
        env={**os.environ, "PYTHONPATH": os.path.join(REPO, "src"),
             "TMPDIR": str(scratch)},
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    worker_dir, main_dir = proc.stdout.split()
    assert worker_dir != main_dir
    for path in (worker_dir, main_dir):
        assert os.path.dirname(path) == str(scratch)
        assert not os.path.exists(path), f"{path} outlived its process"
    assert os.listdir(scratch) == []
