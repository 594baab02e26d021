"""The demos and the demo scenario run as a user runs them: each in its own interpreter, from the source tree."""

import json
import os
import subprocess
import sys

import pytest

from conftest import REPO_ROOT

ENV = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}


def python(*argv: str) -> subprocess.CompletedProcess:
    """Run argv in a new interpreter; one that runs past 60 s fails the test with TimeoutExpired."""
    return subprocess.run([sys.executable, *argv], cwd=REPO_ROOT, env=ENV, capture_output=True, text=True, timeout=60)


@pytest.mark.parametrize("demo", sorted(path.name for path in (REPO_ROOT / "demos").glob("*.py")))
def test_demo_exits_0(demo):
    proc = python(f"demos/{demo}")
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]


def test_a_cell_buffer_of_10_9_ends_at_the_head_of_one_that_spans_the_grid(tmp_path):
    """The demo grid is 40 cells wide, so a buffer of 40 already covers all of it: a buffer of 10^9 must end, within
    the timeout, at the same chain head."""
    text = (REPO_ROOT / "scenarios" / "demo.scenario.json").read_text(encoding="utf-8")
    heads = set()
    for buffer in (40, 10**9):
        scenario = tmp_path / f"b{buffer}.scenario.json"
        edited = text.replace('"deconflictionCellBuffer": 1,', f'"deconflictionCellBuffer": {buffer},')
        assert edited.count(f'"deconflictionCellBuffer": {buffer},') == 1
        scenario.write_text(edited, encoding="utf-8")
        out = tmp_path / str(buffer)
        proc = python("-m", "skyledger.cli", "run", "--scenario", str(scenario), "--out", str(out), "--quiet")
        assert proc.returncode == 0, proc.stderr
        heads.add(json.loads((out / "demo.metrics.json").read_bytes())["chainHead"])
    assert len(heads) == 1
