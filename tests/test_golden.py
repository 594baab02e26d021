"""Golden gate: chain heads, metrics.json, snapshot and export bytes of the canonical runs.

The constants are sha256 values of the outputs of the released protocol.
A change that moves any of them changes the chain or the metrics schema,
and must say so and re-pin them on purpose.
"""

import hashlib
import json

import pytest

import oracles
from conftest import REPO_ROOT, compliant_scenario, deviating_scenario, doas_scenario, lonely_scenario
from skyledger.ledger import Block, canonical_json
from skyledger.persistence import (
    load_scenario,
    snapshot_world,
    write_chain_jsonl,
    write_congestion_fee_csv,
    write_events_jsonl,
    write_metrics,
    write_reputation_surface_csv,
    write_trace_csv,
)
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


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_block_lines_are_the_sealed_bytes(name, tmp_path):
    """Each written line is canonical JSON around the body the block was sealed with, and reads back as the block."""
    _, world = run(GOLDEN[name][0]())
    blocks = world.ledger.blocks
    path = tmp_path / "chain.jsonl"
    write_chain_jsonl(path, blocks)
    lines = path.read_bytes().splitlines()[1:]
    assert len(lines) == len(blocks)
    for block, line in zip(blocks, lines):
        assert line == block.line() == canonical_json(json.loads(line))
        assert Block.from_line(line) == block
        assert canonical_json([t.to_dict() for t in block.transactions]) == block.body
    assert oracles.independent_chain_check([json.loads(line) for line in lines])


def _stepped_to(scenario, tick):
    world = World(scenario)
    while world.tick < tick:
        world.step()
    return world


# sha256 of snapshot_world bytes (state schema 4.0: a header line, then the chain.jsonl block lines)
SNAPSHOT_GOLDEN = {
    "compliant-end": (
        lambda: run(compliant_scenario())[1],
        "901deff8f82dc25adb0ac96b751a59e9df02025d589cc64db929214feb72371b",
    ),
    "deviating-end": (
        lambda: run(deviating_scenario())[1],
        "379d4430c956e58dd93dd3ff7fba1c6598c95cd89c93814a5495deab3706126c",
    ),
    "compliant-tick15": (
        lambda: _stepped_to(compliant_scenario(), 15),
        "b04a25c3f0b99fd3166dd6a309760c8fa999bc14cb4e35f2c73f744b30afb3b8",
    ),
}


@pytest.mark.parametrize("name", sorted(SNAPSHOT_GOLDEN))
def test_snapshot_bytes_are_pinned(name):
    make_world, snapshot_sha = SNAPSHOT_GOLDEN[name]
    assert hashlib.sha256(snapshot_world(make_world())).hexdigest() == snapshot_sha


# sha256 of the other files `skyledger run` writes: (trace.csv, events.jsonl) per run; the two
# plot CSVs read only the fee parameters, which all five runs share
EXPORT_GOLDEN = {
    "compliant": (
        "e5f725608881c5af11b5492bb6083434d7f01dbef8fed2cf9d92a81e31f67217",
        "79c044f22c7a3572f4af5ae10aab3e6d162cb7f23db530818627039a11ee2c7a",
    ),
    "demo": (
        "3cd0b56c9439959ab1bda3a7506ee6e7b7bbc7ef22c25152014c444cbf01fca9",
        "add1c1ea2ddc196c1089f581c1f58bab37211e9857260cccf1c707f975bead11",
    ),
    "deviating": (
        "3ecf30daa5c070a6767d42408c7031a70ff7c9a5725327dca5c99f8f6ad4267f",
        "0fe9e2ef566b78089a0597b4c4a1d3e6816761480175409bc9e3e2b70072b712",
    ),
    "doas100": (
        "410af09e85099c280f2c19ed47dfb934bace08ed0a1487fdafc28d3ffcefaf54",
        "0d6ebe8a1fc5f1353e8fa6fdb50401bf87dd4626cd984d00261a589d3e2e9309",
    ),
    "lonely": (
        "7a8326049aae91ccaf7e11998772b078bea3b80bdf4715e8071a1251a972bfec",
        "391b8631c87c9ede0e34c1ed0a3610dece7946fabf062f5976744b714f67caa9",
    ),
}
REPUTATION_SURFACE_SHA = "cd9541bd37176e635085ccbace9bd7ef68d237fbbe9ab595842a48e0dead48b2"
CONGESTION_FEE_SHA = "0ceb2847693e52a01e6997b347b4b5ba74330ad094ce595781933967873baf01"


@pytest.mark.parametrize("name", sorted(EXPORT_GOLDEN))
def test_export_bytes_are_pinned(name, tmp_path):
    scenario = GOLDEN[name][0]()
    _, world = run(scenario)
    write_trace_csv(tmp_path / "trace.csv", world)
    write_events_jsonl(tmp_path / "events.jsonl", world.ledger.blocks)
    write_reputation_surface_csv(tmp_path / "reputation_surface.csv")
    write_congestion_fee_csv(tmp_path / "congestion_fee.csv", scenario)
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    assert digests == {
        "congestion_fee.csv": CONGESTION_FEE_SHA,
        "events.jsonl": EXPORT_GOLDEN[name][1],
        "reputation_surface.csv": REPUTATION_SURFACE_SHA,
        "trace.csv": EXPORT_GOLDEN[name][0],
    }
