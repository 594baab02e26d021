"""Golden gate: chain heads, metrics.json and snapshot bytes of the canonical runs.

The constants are sha256 values of the outputs of the released protocol.
A change that moves any of them changes the chain or the metrics schema,
and must say so and re-pin them on purpose.
"""

import hashlib

import pytest

from conftest import REPO_ROOT, compliant_scenario, deviating_scenario, doas_scenario, lonely_scenario
from skyledger.persistence import load_scenario, snapshot_world, write_metrics
from skyledger.sim import World, run

GOLDEN = {
    "demo": (
        lambda: load_scenario(REPO_ROOT / "scenarios" / "demo.scenario.json"),
        "da85eaadf6ef52ae4b94df94d003494cb7e3a6a36e01bbfc989828d52e9f1416",
        "698976aa1adff02ef2429534a152995457270f6dc5f45dbb98a25b5a839faf5c",
    ),
    "compliant": (
        compliant_scenario,
        "d416127a3747e53e842191b29ff4f01d91dda3bd1b5929b7264809371912a175",
        "b55efd6d3f41efd891a50f2e84563c304908807260cd7946a28094365f38c880",
    ),
    "deviating": (
        deviating_scenario,
        "48fd20ecb4187d2ab7829d4dc0c028c4fa5f5560800b75e186db67902165ed3a",
        "fb2e6c42421dcc40318232ff717363d4e5ae6e20665a833653ba9d9f576c3032",
    ),
    "lonely": (
        lonely_scenario,
        "ffb80de516eb423bcb3f8cb567e7e432c4da1be7f9a78c250727fd39fb376668",
        "ca5603a6b4868dbef9f194cc33d1cf5904bfcba2ffd4492a0c731b3baff91c2d",
    ),
    "doas100": (
        lambda: doas_scenario(100),
        "702c5383da273112f476a5e3fb962ef35eb13a4f01a35a914bb73587cb2da171",
        "c003905c0138ac23181cbd0545bd31f043b88a516769d1bb70f4a2c3807b7425",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_chain_head_and_metrics_bytes_are_pinned(name, tmp_path):
    make_scenario, head, metrics_sha = GOLDEN[name]
    metrics, world = run(make_scenario())
    path = tmp_path / "metrics.json"
    write_metrics(path, metrics)
    assert world.ledger.chain_head_hex() == head
    assert hashlib.sha256(path.read_bytes()).hexdigest() == metrics_sha


def _stepped_to(scenario, tick):
    world = World(scenario)
    while world.tick < tick:
        world.step()
    return world


# sha256 of snapshot_world bytes (state schema 3.0)
SNAPSHOT_GOLDEN = {
    "compliant-end": (
        lambda: run(compliant_scenario())[1],
        "35e2ddf6f797aeb137e9c53395437e7e5ea330f9c3cbb1c4dfecb8e75a39e307",
    ),
    "deviating-end": (
        lambda: run(deviating_scenario())[1],
        "f48239bae6452d60cf719b1710b086c9f6f810553ff1af7d6d5353e6109b61aa",
    ),
    "compliant-tick15": (
        lambda: _stepped_to(compliant_scenario(), 15),
        "3fdbe58d46ce5ef90e5f0335dc670f43d9eeb9652ba2a16734dcaa51289c88cb",
    ),
}


@pytest.mark.parametrize("name", sorted(SNAPSHOT_GOLDEN))
def test_snapshot_bytes_are_pinned(name):
    make_world, snapshot_sha = SNAPSHOT_GOLDEN[name]
    assert hashlib.sha256(snapshot_world(make_world())).hexdigest() == snapshot_sha
