"""The benchmark finds every hook it times, passes its checks at tiny sizes and makes the recorded bytes."""

import hashlib
import json
import subprocess
import sys

import pytest

from conftest import REPO_ROOT
from skyledger.ledger import canonical_json
from skyledger.sim import World

sys.path.insert(0, str(REPO_ROOT / "perfbench"))
import measure  # noqa: E402 -- the benchmark's modules import each other by bare name

FINGERPRINTS = json.loads((REPO_ROOT / "perfbench" / "baseline.json").read_text())["fingerprints"]


def test_perfbench_smoke_passes():
    proc = subprocess.run(
        [sys.executable, str(REPO_ROOT / "perfbench" / "smoke.py")],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]


@pytest.mark.parametrize(
    "name,seed", [(name, seed) for name in sorted(FINGERPRINTS) for seed in sorted(FINGERPRINTS[name], key=int)]
)
def test_benchmark_run_makes_the_recorded_fingerprint(name, seed):
    """Chain head and metrics.json digest of one full-size benchmark run, as perfbench/baseline.json records them."""
    workload = measure.make_workload(name, int(seed))
    world = World(workload.scenario)
    assert workload.run(world, workload.prepare(world)) == []
    metrics = world.metrics()
    digest = hashlib.sha256(canonical_json(metrics.to_dict()) + b"\n").hexdigest()
    assert f"{metrics.chain_head} {digest}" == FINGERPRINTS[name][seed]
