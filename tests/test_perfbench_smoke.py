"""The benchmark still finds every hook it times and every check passes at tiny sizes."""

import subprocess
import sys

from conftest import REPO_ROOT


def test_perfbench_smoke_passes():
    proc = subprocess.run(
        [sys.executable, str(REPO_ROOT / "perfbench" / "smoke.py")],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
