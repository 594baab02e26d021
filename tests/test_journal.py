"""The ledger's undo journal: exact write metering, atomic rollback, read-only views."""

import pytest

import oracles
from conftest import (
    REPO_ROOT,
    SRC,
    broadcast_hex,
    complete,
    compliant_scenario,
    deviating_scenario,
    make_bench,
    planned_drone,
    report,
)
from skyledger.ledger import Ledger, LedgerError
from skyledger.persistence import load_scenario
from skyledger.sim import run


@pytest.fixture
def whole_tree(monkeypatch):
    """Every submit in the test runs through the whole-storage oracle."""
    oracle = oracles.WholeTreeSubmit(Ledger.submit)
    monkeypatch.setattr(Ledger, "submit", lambda ledger, *args, **kwargs: oracle(ledger, *args, **kwargs))
    return oracle


def assert_matches_oracle(checked):
    assert checked
    for rec, writes, deltas, digest_kept in checked:
        assert (rec.state_writes, rec.balance_deltas) == (writes, deltas), rec.to_dict()
        if rec.status == "revert":
            assert digest_kept, rec.to_dict()


@pytest.mark.parametrize(
    "make_scenario",
    [
        compliant_scenario,
        deviating_scenario,
        lambda: load_scenario(REPO_ROOT / "scenarios" / "demo.scenario.json"),
    ],
    ids=["compliant", "deviating", "demo"],
)
def test_scenario_metering_matches_whole_tree_oracle(make_scenario, whole_tree):
    run(make_scenario())
    assert_matches_oracle(whole_tree.checked)


def test_reverts_after_partial_writes_match_whole_tree_oracle(whole_tree):
    bench = make_bench()
    drone_id = planned_drone(bench)
    forged = broadcast_hex(bench, drone_id, 100, vc=b"\x13" * 32)
    statuses = [
        report(bench, drone_id, at_s=100, rid_hex=forged),       # counted, then "Invalid report"
        report(bench, drone_id, at_s=100, rid_hex="zz"),         # counted, then malformed
        report(bench, drone_id, at_s=110),                       # reward
        report(bench, drone_id, at_s=115),                       # duplicate reporter
        report(bench, drone_id, at_s=120, reporter=bench.second_reporter, lat_offset_arcsec=10),  # penalty
        complete(bench, drone_id, vc_hex="00" * 32),             # wrong commitment
        complete(bench, drone_id),                               # settlement
    ]
    assert [r.status for r in statuses] == ["revert"] * 2 + ["success", "revert", "success", "revert", "success"]
    assert_matches_oracle(whole_tree.checked)


def _noon_report(bench, drone_id):
    rid = broadcast_hex(bench, drone_id, 100)
    args = {"droneId": drone_id, "rid": rid, "sightingLocation": SRC, "sightingTime": "noon"}
    return bench.ledger.submit(bench.reporter, "report_drone", args)


def test_unparseable_argument_rolls_back_and_keeps_tx_ids_dense(bench):
    drone_id = planned_drone(bench)
    ledger = bench.ledger
    digest, logged = ledger.state_digest(), list(ledger.pending)
    with pytest.raises(ValueError):
        _noon_report(bench, drone_id)
    assert ledger.state_digest() == digest
    assert ledger.pending == logged
    # the reporter is not locked out, and no tx id went missing
    rec = report(bench, drone_id, at_s=100)
    assert rec.status == "success"
    assert rec.tx_id == logged[-1].tx_id + 1


def test_escrow_drift_is_refused_and_rolled_back(bench):
    drone_id = planned_drone(bench)
    bench.uss.storage["escrow_by_drone"][drone_id] += 1
    digest, logged = bench.ledger.state_digest(), list(bench.ledger.pending)
    with pytest.raises(LedgerError, match="escrow"):
        complete(bench, drone_id)
    assert bench.ledger.state_digest() == digest
    assert bench.ledger.pending == logged
    assert bench.authority.record(drone_id).has_active_plan


@pytest.mark.parametrize("write", ["slot", "transfer"])
def test_view_that_writes_is_refused(write):
    ledger = Ledger()
    storage = {"slots": {}}
    ledger.attach_storage("toy", storage)
    alice = ledger.create_account("operator", 10)
    vault = ledger.create_account("uss")

    def sneaky(caller, args):
        if write == "slot":
            ledger.touch(storage["slots"], "k")
            storage["slots"]["k"] = 1
        else:
            ledger.transfer(caller, vault, 1)

    ledger.register_op("sneaky", sneaky, view=True)
    ledger.genesis()
    digest, logged = ledger.state_digest(), list(ledger.pending)
    with pytest.raises(LedgerError, match="view"):
        ledger.submit(alice, "sneaky")
    assert ledger.state_digest() == digest
    assert ledger.pending == logged
    assert ledger.balance(alice) == 10
