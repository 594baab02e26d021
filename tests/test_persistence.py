import copy
import dataclasses
import functools
import gc
import hashlib
import json
import weakref

import pytest
from hypothesis import event, given, settings, strategies as st

import oracles
from conftest import REPO_ROOT, SRC, compliant_scenario, deviating_scenario, dms, finished_world
from skyledger import persistence
from skyledger.economics import FeeParams
from skyledger.ledger import Block, canonical_json, verify_blocks
from skyledger.sim import BEHAVIOR_KINDS, HONESTY_KINDS, Scenario, ScenarioError, World
from test_golden import GOLDEN, SNAPSHOT_GOLDEN
from test_sensing import sensing_scenarios


def test_snapshot_is_canonical():
    world = World(compliant_scenario())
    assert persistence.snapshot_world(world) == persistence.snapshot_world(world)


def test_snapshot_restore_round_trip_bytes():
    world = World(compliant_scenario())
    snap = persistence.snapshot_world(world)
    again = persistence.snapshot_world(persistence.restore_world(snap))
    assert again == snap


def test_snapshot_restore_after_full_run():
    world = finished_world(deviating_scenario())
    snap = persistence.snapshot_world(world)
    restored = persistence.restore_world(snap)
    assert restored.ledger.state_digest() == world.ledger.state_digest()
    assert restored.ledger.chain_head_hex() == world.ledger.chain_head_hex()
    assert persistence.snapshot_world(restored) == snap


@pytest.mark.parametrize("restored", [False, True], ids=["live", "restored"])
def test_dropped_world_is_freed_without_the_cycle_collector(restored):
    world = World(compliant_scenario())
    world.run_to_end()
    if restored:
        world = persistence.restore_world(persistence.snapshot_world(world))
    ledger = weakref.ref(world.ledger)
    gc.disable()
    try:
        del world
        assert ledger() is None
    finally:
        gc.enable()


def _walking_compliant_scenario():
    scenario = compliant_scenario()
    walkers = tuple(dataclasses.replace(r, random_walk=True) for r in scenario.reporters)
    return dataclasses.replace(scenario, name="walking", reporters=walkers)


RESUMED_SCENARIOS = {
    "compliant": compliant_scenario,
    "demo": lambda: persistence.load_scenario(REPO_ROOT / "scenarios" / "demo.scenario.json"),
    "walking": _walking_compliant_scenario,
}


@pytest.mark.parametrize(
    "name,tick",
    [("compliant", 1), ("compliant", 7), ("compliant", 15), ("compliant", 29),
     ("demo", 3), ("demo", 12), ("demo", 25), ("walking", 3), ("walking", 12), ("walking", 25)],
)
def test_checkpoint_resume_equals_straight_through(name, tick):
    make_scenario = RESUMED_SCENARIOS[name]
    straight = World(make_scenario())
    straight.run_to_end()

    interrupted = World(make_scenario())
    while interrupted.tick < tick:
        interrupted.step()
    resumed = persistence.restore_world(persistence.snapshot_world(interrupted))
    resumed.run_to_end()

    assert resumed.ledger.chain_head_hex() == straight.ledger.chain_head_hex()
    assert resumed.ledger.state_digest() == straight.ledger.state_digest()
    assert canonical_json(resumed.metrics().to_dict()) == canonical_json(straight.metrics().to_dict())
    # broadcasts are not in the log, so a restored world's trace holds only the rows after its checkpoint
    assert straight.trace == interrupted.trace + resumed.trace


_RID_MAX = (2**32 - 1) // 100  # the most metres, or m/s, a RID message's u32 centimetre field carries
_EDGES = {  # scenario key path -> (values at its bounds and a usual one, values just past them); long runs kept short
    "seed": ([0, 2**64], [-1]),
    "grid.extentCells": ([1, 64, 10**6], [0]),
    "grid.cellSizeM": ([1, 100, 10**6], [0]),
    "grid.metersPerArcsec": ([1, 30, 10**4], [0]),
    "clock.tickSeconds": ([1, 10, 86400], [0]),
    "clock.durationTicks": ([1, 2, 16], [0]),
    "economics.baseMissionCost": ([0, 10, 10**12], [-1]),
    "economics.rcd": ([0, 1000, 10**12], [-1]),
    "economics.surchargePerMission": ([0, 2, 10**12], [-1]),
    "economics.alphaMicro": ([1, 300_000, 999_999], [0, 10**6]),
    "economics.kMinMicro": ([1, 50_000, 10**6], [0, 10**6 + 1]),
    "fees.subscriptionFee": ([0, 100, 10**12], [-1]),
    "fees.reporterReward": ([0, 20, 10**12], [-1]),
    "fees.fineUnit": ([0, 100, 10**12], [-1]),
    "fees.bonusUnit": ([0, 100, 10**12], [-1]),
    "uss.cruiseSpeedMps": ([1, 10, _RID_MAX], [0, _RID_MAX + 1]),
    "uss.altitudeM": ([0, 60, _RID_MAX], [-1, _RID_MAX + 1]),
    "uss.altitudeBandM": ([1, 30, 10**9], [0]),
    "uss.matchWindowS": ([0, 120, 10**9], [-1]),
    "uss.deconflictionCellBuffer": ([0, 1, 2], [-1]),  # a plan looks at (2 buffer + 1)^2 cells per window
    "uss.deconflictionTimeBufferS": ([0, 60, 10**9], [-1]),
    "funding.operator": ([0, 100_000, 10**15], [-1]),
    "funding.reporter": ([0, 10**15], [-1]),
    "funding.treasury": ([0, 1_000_000, 10**15], [-1]),
    "lossProbabilityMicro": ([0, 10**6], [-1, 10**6 + 1]),
}
_DRONE_EDGES = {"speedMps": ([1, 5, _RID_MAX], [0, _RID_MAX + 1]), "behavior.offsetCells": ([-3, 0, 2], []),
                "behavior.startTick": ([-1, 0, 3], [])}
_REPORTER_EDGES = {"sensingRangeM": ([0, 200, 10**6], [-1]), "replayDelayTicks": ([-1, 0, 3], [])}


def _put(obj, path, value):
    *groups, key = path.split(".")
    for group in groups:
        obj = obj.setdefault(group, {})
    obj[key] = value


@st.composite
def edge_scenarios(draw):
    """A scenario file's JSON: some numeric keys at an edge, at most one just past it; drones share corridor rows."""
    def edges(table, into):
        for path in draw(st.sets(st.sampled_from(sorted(table)), max_size=4)):
            _put(into, path, draw(st.sampled_from(table[path][0]), label=path))

    data = {"schema": {"major": 1, "minor": 0}, "kind": "scenario", "name": "edges"}
    edges(_EDGES, data)
    rows, drones = draw(st.lists(st.integers(5, 20), min_size=1, max_size=2, unique=True)), []
    for _ in range(draw(st.integers(1, 4))):
        lat, lon = draw(st.sampled_from(rows)), draw(st.integers(3, 20))
        drone = {"mission": {"source": dms(lat, lon), "destination": dms(lat, draw(st.integers(3, 60))),
                             "departureDate": "01012025", "departureTime": f"000{draw(st.integers(0, 3))}"},
                 "behavior": {"kind": draw(st.sampled_from(BEHAVIOR_KINDS))}}
        edges(_DRONE_EDGES, drone)
        drones.append(drone)
    reporters = []
    for _ in range(draw(st.integers(0, 3))):
        reporter = {"cell": [draw(st.integers(0, 8)), draw(st.sampled_from([0, 1, 5, 7, 63, 64]))],
                    "honesty": draw(st.sampled_from(HONESTY_KINDS)), "randomWalk": draw(st.booleans())}
        edges(_REPORTER_EDGES, reporter)
        reporters.append(reporter)
    past = [(path, value) for path, (_, beyond) in _EDGES.items() for value in beyond]
    if draw(st.booleans()):
        _put(data, *draw(st.sampled_from(past)))
    return {**data, "drones": drones, "reporters": reporters}


@settings(max_examples=200, deadline=None)
@given(data=edge_scenarios(), at=st.floats(0, 1))
def test_every_scenario_that_loads_runs_to_its_end(data, at):
    """A scenario file either loads or raises ScenarioError; one that loads runs to its end, straight through and
    resumed from a snapshot at any tick (live plans re-indexed), to one chain that verifies and conserves supply."""
    try:
        scenario = Scenario.from_dict(data)
    except ScenarioError:
        event("refused")
        return
    straight = World(scenario)
    straight.run_to_end()
    metrics = straight.metrics()
    assert verify_blocks(straight.ledger.blocks) == (True, None)
    assert straight.ledger.total_supply() == metrics.final_supply == metrics.genesis_supply

    interrupted = World(scenario)
    while interrupted.tick < int(at * scenario.duration_ticks):
        interrupted.step()
    resumed = persistence.restore_world(persistence.snapshot_world(interrupted))
    index = lambda uss: (uss._cells, uss._opens, uss._closes)  # noqa: E731
    assert index(resumed.uss) == index(interrupted.uss)
    live = len(interrupted.uss.missions)
    event(f"live plans at the snapshot: {'2 or more' if live > 1 else live}")
    resumed.run_to_end()
    assert resumed.ledger.chain_head_hex() == straight.ledger.chain_head_hex()


@pytest.mark.parametrize("tick", [3, 12, 25])
def test_resumed_walkers_keep_their_placement_fresh(tick):
    live = World(_walking_compliant_scenario())
    while live.tick < tick:
        live.step()
    resumed = persistence.restore_world(persistence.snapshot_world(live))
    while resumed.tick < resumed.scenario.duration_ticks:
        live.step()
        resumed.step()
        assert oracles.cached_reporter_placement(resumed) == oracles.fresh_reporter_placement(resumed)
        assert oracles.cached_reporter_placement(resumed) == oracles.cached_reporter_placement(live)


def _agent_memory(world):
    """Per drone its id, plan, flight time and settlement; per reporter its cell, reports and replay memory."""
    drones = [(d.drone_id, d.plan, d.flight_duration_s, d.completed) for d in world.drones]
    reporters = [(r.cell, r.attempted, r.heard) for r in world.reporters]
    return drones, reporters


@pytest.mark.parametrize(
    "name,tick",
    [(name, tick) for name in sorted(RESUMED_SCENARIOS) for tick in (3, 12, 25)] + [("compliant", 15), ("demo", 15)],
)
def test_restored_agents_remember_what_the_live_ones_do(name, tick):
    live = World(RESUMED_SCENARIOS[name]())
    while live.tick < tick:
        live.step()
    restored = persistence.restore_world(persistence.snapshot_world(live))
    assert _agent_memory(restored) == _agent_memory(live)


def test_report_with_a_malformed_drone_id_teaches_no_agent():
    world = World(compliant_scenario())
    before = copy.deepcopy(_agent_memory(world))
    reporter = world.reporters[0].account
    for drone_id in ("0", True, [0], None):
        args = {"droneId": drone_id, "rid": "00", "sightingLocation": SRC, "sightingTime": 0}
        world.ledger.submit(reporter, "report_drone", args)
    block = world.ledger.seal_block()
    assert {tx.reason for tx in block.transactions} == {"invalid-arg:droneId"}
    world.learn()
    assert _agent_memory(world) == before
    assert _agent_memory(persistence.restore_world(persistence.snapshot_world(world))) == before


@pytest.mark.parametrize("reporter", range(len(compliant_scenario().reporters)))
def test_report_sealed_by_another_driver_is_learned_live_as_on_restore(reporter):
    """A live world learns a block it did not seal at its next step, as restore learns every block."""
    live = World(compliant_scenario())
    args = {"droneId": 0, "rid": "00", "sightingLocation": SRC, "sightingTime": 0}
    assert live.ledger.submit(live.reporters[reporter].account, "report_drone", args).status == "revert"
    live.ledger.seal_block()
    restored = persistence.restore_world(persistence.snapshot_world(live))
    live.run_to_end()
    restored.run_to_end()
    assert live.ledger.chain_head_hex() == restored.ledger.chain_head_hex()


def test_reverted_report_whose_args_are_not_an_object_is_corrupt():
    world = World(compliant_scenario())
    world.ledger.submit(world.reporters[0].account, "report_drone", {"droneId": 0})
    world.ledger.seal_block()
    forged = oracles.forge_snapshot(
        persistence.snapshot_world(world), lambda d: d["chain"][-1]["transactions"][-1].update(args=[])
    )
    with pytest.raises(persistence.CorruptPayload, match="snapshot structure invalid"):
        persistence.restore_world(forged)


def _first_account(data, role):
    return next(a for a in data["accounts"] if a["role"] == role)


def _add_next_derived_account(data):
    digest = hashlib.sha256(f"account-{len(data['accounts'])}".encode()).digest()
    data["accounts"].append({"id": "0x" + digest[:20].hex(), "role": "reporter", "balance": "0"})


def _inflate_first_operator(data):
    account = _first_account(data, "operator")
    account["balance"] = str(int(account["balance"]) + 10**9)


def _move_balance(data):
    """500 units from the treasury to the first operator: the sum still equals the genesis supply."""
    for role, delta in (("uss", -500), ("operator", 500)):
        account = _first_account(data, role)
        account["balance"] = str(int(account["balance"]) + delta)


def _genesis(data):
    return data["chain"][0]["transactions"][0]


def _move_genesis_balance(data):
    """5 units between two funded accounts of the genesis record: its totalSupply stays the same."""
    payer, payee = [a for a in _genesis(data)["args"]["accounts"] if a["balance"] >= 5][:2]
    payer["balance"] -= 5
    payee["balance"] += 5


def _paying_successes(data):
    return [tx for block in data["chain"] for tx in block["transactions"] if tx["status"] == "success" and tx["balanceDeltas"]]


def _mint_to_caller(data):
    """1,000 units more for the first paying success's caller, in its balanceDeltas and in the header's account table."""
    tx = _paying_successes(data)[0]
    tx["balanceDeltas"][tx["caller"]] += 1000
    account = next(a for a in data["accounts"] if a["id"] == tx["caller"])
    account["balance"] = str(int(account["balance"]) + 1000)


def _mint_then_burn(data):
    """+1,000 for one account in one success and −1,000 in the next: the final balances are the ones written."""
    first, second = _paying_successes(data)[:2]
    first["balanceDeltas"][first["caller"]] += 1000
    second["balanceDeltas"][first["caller"]] = second["balanceDeltas"].get(first["caller"], 0) - 1000


def _split_unit(data):
    """+0.5 and -0.5 on the first paying success's two accounts, in its balanceDeltas and in the header's account table."""
    tx = _paying_successes(data)[0]
    for (account_id, delta), half in zip(tx["balanceDeltas"].items(), (0.5, -0.5), strict=True):
        tx["balanceDeltas"][account_id] = delta + half
        account = next(a for a in data["accounts"] if a["id"] == account_id)
        account["balance"] = str(int(account["balance"]) + half)


def _records(data):
    return [tx for block in data["chain"] for tx in block["transactions"]]


def _successes(data, op):
    return [tx for tx in _records(data) if tx["op"] == op and tx["status"] == "success"]


def _logged(data, op):
    return _successes(data, op)[0]


def _raised(op, key, by):
    """A forge: `by` more in a payload field of the first success of `op`."""
    def forge(data):
        _logged(data, op)["payload"][key] += by
    return forge


def _move(data, tx, account_id, amount):
    """`amount` more for an account in a success's balanceDeltas and in the header's account table."""
    tx["balanceDeltas"][account_id] = tx["balanceDeltas"].get(account_id, 0) + amount
    account = next(a for a in data["accounts"] if a["id"] == account_id)
    account["balance"] = str(int(account["balance"]) + amount)


def _treasury(data):
    return _first_account(data, "uss")["id"]  # the USS contract creates its treasury first


def _escrow_raised(verdict):
    """A forge: 50 more from the treasury into escrow for the first report with this verdict, paid out at settlement."""
    def forge(data):
        report = next(tx for tx in _successes(data, "report_drone") if tx["payload"]["verdict"] == verdict)
        settled, treasury = _logged(data, "report_completion"), _treasury(data)
        escrow = next(a for a in report["balanceDeltas"] if a not in (report["caller"], treasury))
        _move(data, report, escrow, 50)
        _move(data, report, treasury, -50)
        settled["payload"]["payout"] += 50
        _move(data, settled, escrow, -50)
        _move(data, settled, settled["caller"], 50)
    return forge


def _richer_reporter_reward(data):
    """5 more from the treasury for the first reporter, in balanceDeltas only."""
    report = _logged(data, "report_drone")
    _move(data, report, report["caller"], 5)
    _move(data, report, _treasury(data), -5)


def _dearer_subscription(data):
    """A subscription paid 1 above the fee, in its value, its balanceDeltas and the header's account table."""
    sub = _logged(data, "subscribe")
    sub["value"] += 1
    _move(data, sub, sub["caller"], -1)
    _move(data, sub, _treasury(data), 1)


def _seven_to_a_reporter(op):
    """A forge: 7 units from the caller of the first success of `op` to the first reporter, header matched."""
    def forge(data):
        tx = _logged(data, op)
        _move(data, tx, tx["caller"], -7)
        _move(data, tx, _first_account(data, "reporter")["id"], 7)
    return forge


def _minted(move):
    """A forge: the first successful quote renamed to an op no contract registers, with 7 units moved or none."""
    def forge(data):
        if move:
            _seven_to_a_reporter("request_quote")(data)
        _logged(data, "request_quote")["op"] = "mint"
    return forge


def _as_float(key):
    """A forge: a settlement payload field written as the equal float."""
    return lambda data: _logged(data, "report_completion")["payload"].update({key: float(_logged(data, "report_completion")["payload"][key])})


def _settled_by_a_reporter(data):
    """The settlement re-attributed to the first reporter: its caller, its payout's balanceDeltas entry and the header."""
    settled, reporter = _logged(data, "report_completion"), _first_account(data, "reporter")["id"]
    owner, payout = settled["caller"], settled["payload"]["payout"]
    settled["caller"] = reporter
    settled["balanceDeltas"][reporter] = settled["balanceDeltas"].pop(owner)
    for account_id, amount in ((owner, -payout), (reporter, payout)):
        account = next(a for a in data["accounts"] if a["id"] == account_id)
        account["balance"] = str(int(account["balance"]) + amount)


def _arg(op, key, value):
    """A forge: an arg of the first success of `op` set to `value`, or to value(arg) for a callable."""
    def forge(data):
        args = _logged(data, op)["args"]
        args[key] = value(args[key]) if callable(value) else value
    return forge


def _backdated(data):
    """The first successful report logged a second before the record ahead of it."""
    records = _records(data)
    i = records.index(_logged(data, "report_drone"))
    records[i]["timestamp"] = records[i - 1]["timestamp"] - 1


def _report_twice(data):
    """The first report's reporter made the second report on the same mission too, header matched."""
    first, second = _successes(data, "report_drone")[:2]
    assert first["args"]["droneId"] == second["args"]["droneId"] and first["caller"] != second["caller"]
    oracles.reattribute_report(data, second, first["caller"])


def _flip_verdict(data):
    report = _logged(data, "report_drone")
    assert report["payload"]["verdict"] == "reward"
    report["payload"]["verdict"] = "penalty"


@pytest.mark.parametrize(
    "forge",
    [
        pytest.param(lambda d: _first_account(d, "reporter").update(role="uss"), id="edited-role"),
        pytest.param(_add_next_derived_account, id="extra-account"),
        pytest.param(lambda d: d["accounts"].pop(), id="missing-account"),
        pytest.param(_inflate_first_operator, id="inflated-balance"),
        pytest.param(_move_balance, id="moved-balance"),
        pytest.param(lambda d: d.update(chain=[]), id="empty-chain"),
        pytest.param(lambda d: d["reporters"][0].update(cell=["x", "y"]), id="reporter-cell-of-strings"),
        pytest.param(lambda d: d["reporters"][0].update(cell=[9999, 9999]), id="reporter-cell-off-grid"),
        pytest.param(lambda d: d["reporters"][0].update(cell=[1.5, 2]), id="reporter-cell-fractional"),
        pytest.param(lambda d: d["reporters"][0].update(cell=[True, 2]), id="reporter-cell-boolean"),
        pytest.param(lambda d: d["reporters"][0].update(cell=[1, 2, 3]), id="reporter-cell-three-long"),
        pytest.param(lambda d: d["reporters"].reverse(), id="reporters-reversed"),
        pytest.param(lambda d: d["reporters"].append(d["reporters"][0]), id="reporter-listed-twice"),
        pytest.param(lambda d: d["reporters"][0].update(note="x"), id="reporter-extra-key"),
        pytest.param(lambda d: d.update(note="x"), id="header-extra-key"),
        # equal in value to what a snapshot writes, but not in bytes: the world would write the header back otherwise
        pytest.param(lambda d: d["scenario"].pop("lossProbabilityMicro"), id="scenario-default-dropped"),
        pytest.param(lambda d: d["scenario"]["drones"][0].pop("name"), id="drone-name-dropped"),
        pytest.param(lambda d: d["schema"].update(major=4.0), id="state-major-float"),
        pytest.param(lambda d: d["schema"].update(minor=0.0), id="state-minor-float"),
        pytest.param(lambda d: d["scenario"]["schema"].update(major=1.0), id="scenario-major-float"),
        # the genesis record is compared whole with the one the scenario's world writes
        pytest.param(
            lambda d: next(a for a in _genesis(d)["args"]["accounts"] if a["role"] == "reporter").update(role="operator"),
            id="genesis-role",
        ),
        pytest.param(_move_genesis_balance, id="genesis-balance-moved"),
        pytest.param(lambda d: _genesis(d).update(caller="0x" + "11" * 20), id="genesis-caller"),
        pytest.param(lambda d: _genesis(d).update(timestamp=1), id="genesis-timestamp"),
        pytest.param(lambda d: _genesis(d)["args"].update(note="other"), id="genesis-note"),
        # every transfer conserves value, so a success's balanceDeltas sum to zero
        pytest.param(_mint_to_caller, id="minted-with-header-to-match"),
        pytest.param(_mint_then_burn, id="minted-then-burned"),
        # every transfer moves whole units, so each delta is an int
        pytest.param(_split_unit, id="fractional-delta-with-header-to-match"),
        # each amount, reputation and expiry is recomputed by the calculator its op calls
        pytest.param(_raised("report_completion", "payout", 1), id="payout-raised"),
        pytest.param(lambda d: _logged(d, "report_completion")["payload"].update(kMicro=100000), id="k-micro-edited"),
        pytest.param(_raised("report_completion", "reputationMicro", 7), id="reputation-raised"),
        pytest.param(_raised("report_completion", "rewards", 1), id="rewards-raised"),
        pytest.param(_flip_verdict, id="verdict-flipped"),
        pytest.param(lambda d: _logged(d, "report_drone")["payload"].update(verdict="forgiven"), id="verdict-unknown"),
        pytest.param(_escrow_raised("reward"), id="reward-escrow-raised-with-settlement-and-header-to-match"),
        pytest.param(_richer_reporter_reward, id="reporter-reward-raised-with-treasury-and-header-to-match"),
        pytest.param(_raised("subscribe", "expiry", 1), id="expiry-raised"),
        pytest.param(_dearer_subscription, id="subscription-fee-raised-with-deltas-and-header-to-match"),
        # each success re-applies its op's transfers: its balanceDeltas are checked against them, never applied
        pytest.param(_seven_to_a_reporter("register_drone"), id="registration-moves-money-with-header-to-match"),
        pytest.param(_seven_to_a_reporter("request_quote"), id="view-moves-money-with-header-to-match"),
        pytest.param(_minted(move=True), id="unknown-op-moves-money-with-header-to-match"),
        pytest.param(_minted(move=False), id="unknown-op"),
        pytest.param(lambda d: _logged(d, "request_quote").update(status="pending"), id="status-pending"),
        # payloads are compared by type as well as value
        pytest.param(_as_float("payout"), id="payout-as-float"),
        pytest.param(_as_float("kMicro"), id="k-micro-as-float"),
        pytest.param(lambda d: _logged(d, "subscribe").update(value=float(_logged(d, "subscribe")["value"])),
                     id="subscription-value-as-float"),
        pytest.param(lambda d: _paying_successes(d)[0]["balanceDeltas"].update(
            {k: float(v) for k, v in _paying_successes(d)[0]["balanceDeltas"].items()}), id="deltas-as-floats"),
        # only the drone's owner may settle its mission
        pytest.param(_settled_by_a_reporter, id="settled-by-a-reporter-with-header-to-match"),
        # a report is by anyone but the drone's owner, at most once per reporter and mission
        pytest.param(oracles.report_by_owner, id="report-by-owner"),
        pytest.param(_report_twice, id="report-twice"),
        # a plan settled before the snapshot is checked only by its fold: it holds a route and lands after it departs
        pytest.param(lambda d: _logged(d, "request_plan")["payload"].update(route=[]), id="settled-plan-empty-route"),
        pytest.param(lambda d: _logged(d, "request_plan")["payload"].update(arrivalEpoch=0),
                     id="settled-plan-lands-before-departure"),
        # each success passes submit's entry checks again: each declared arg exactly of its type
        pytest.param(_arg("report_drone", "sightingTime", "noon"), id="sighting-time-as-text"),
        pytest.param(_arg("report_drone", "sightingTime", float), id="sighting-time-as-float"),
        pytest.param(_arg("report_drone", "rid", 5), id="rid-as-int"),
        pytest.param(_arg("register_drone", "signTAC", 1), id="terms-as-int"),
        pytest.param(_arg("report_completion", "ridVc", 7), id="ridvc-as-int"),
        # an op that needs nothing from its payload is its own fold: registration runs its own checks again
        pytest.param(_arg("register_drone", "signTAC", False), id="terms-declined"),
        # submit logs the ledger clock, which never runs back, and the header's clock is where it stood
        pytest.param(lambda d: _logged(d, "report_drone").update(timestamp=_logged(d, "report_drone")["timestamp"] + 0.5),
                     id="timestamp-float"),
        pytest.param(_backdated, id="timestamp-backwards"),
        pytest.param(lambda d: _records(d)[-1].update(timestamp=d["clock"] + 1), id="timestamp-past-clock"),
    ],
)
def test_forged_snapshot_is_corrupt(forge):
    world = finished_world(compliant_scenario())
    with pytest.raises(persistence.CorruptPayload):
        persistence.restore_world(oracles.forge_snapshot(persistence.snapshot_world(world), forge))


def _reverted(data):
    return next(tx for tx in _records(data) if tx["status"] == "revert")


@pytest.mark.parametrize(
    "forge",
    [
        # a revert is rolled back whole: it logs no payload, writes, moves or events, and its reason is a str
        pytest.param(lambda d: _reverted(d).update(events=[{"name": "DroneSighted", "args": {"droneId": 0}}]),
                     id="revert-with-events"),
        pytest.param(lambda d: _reverted(d).update(balanceDeltas={_reverted(d)["caller"]: 5, _treasury(d): -5}),
                     id="revert-with-balance-deltas"),
        pytest.param(lambda d: _reverted(d).update(payload={"verdict": "reward", "reporterReward": 5}),
                     id="revert-with-payload"),
        pytest.param(lambda d: _reverted(d).update(stateWrites=9), id="revert-with-writes"),
        pytest.param(lambda d: _reverted(d).update(reason=[_reverted(d)["reason"]]), id="revert-reason-as-list"),
        # a view writes, moves and emits nothing
        pytest.param(lambda d: _logged(d, "request_quote").update(stateWrites=9), id="view-with-writes"),
        pytest.param(lambda d: _logged(d, "request_quote").update(events=[{"name": "Quoted", "args": {}}]),
                     id="view-with-events"),
        # a success meters an int >= 0 and logs each event as emit builds it
        pytest.param(lambda d: _logged(d, "report_drone").update(stateWrites="x"), id="writes-as-text"),
        pytest.param(lambda d: _logged(d, "report_drone").update(stateWrites=-3), id="writes-negative"),
        pytest.param(lambda d: _logged(d, "report_drone").update(events=[5]), id="event-as-int"),
        pytest.param(lambda d: _logged(d, "report_drone")["events"][0].pop("args"), id="event-without-args"),
    ],
)
def test_a_record_submit_never_logs_is_corrupt(demo_scenario_path, forge):
    """Restore refuses what submit cannot log, though neither the fold's payload nor its transfers read it."""
    world = finished_world(persistence.load_scenario(demo_scenario_path))
    with pytest.raises(persistence.CorruptPayload, match="logs"):
        persistence.restore_world(oracles.forge_snapshot(persistence.snapshot_world(world), forge))


@pytest.mark.parametrize(
    "forge",
    [
        # a success logs a null reason, and every record a null signature
        pytest.param(lambda d: _logged(d, "report_drone").update(reason="Invalid report"), id="success-with-reason"),
        pytest.param(lambda d: _logged(d, "report_drone").update(signature="abc"), id="success-with-signature"),
        pytest.param(lambda d: _logged(d, "report_drone").update(signature=5), id="signature-as-int"),
        pytest.param(lambda d: _logged(d, "request_quote").update(signature="abc"), id="view-with-signature"),
    ],
)
def test_a_reason_or_signature_submit_never_logs_is_corrupt(forge):
    """No fold reads either field, so only the record check can refuse them."""
    world = finished_world(compliant_scenario())
    with pytest.raises(persistence.CorruptPayload, match="not a record submit logs"):
        persistence.restore_world(oracles.forge_snapshot(persistence.snapshot_world(world), forge))


def test_report_logged_at_an_unreadable_location_is_refused_as_its_op_reverts():
    """A report's op and its fold read its sightingLocation alike, before the fold reads the logged verdict."""
    world = finished_world(compliant_scenario())
    forged = oracles.forge_snapshot(persistence.snapshot_world(world), _arg("report_drone", "sightingLocation", "noon"))
    with pytest.raises(persistence.CorruptPayload, match=r"\(report_drone\) logs a success that its op reverts: invalid-dms$"):
        persistence.restore_world(forged)


def test_forged_fine_is_corrupt():
    """A fine cut from 100 to 50, with the settlement and the header matched: the escrow move is recomputed."""
    world = finished_world(deviating_scenario())
    with pytest.raises(persistence.CorruptPayload, match="report_drone"):
        persistence.restore_world(oracles.forge_snapshot(persistence.snapshot_world(world), _escrow_raised("penalty")))


@pytest.mark.parametrize("tick", ["13", 13.0, None, True])
def test_replay_memory_with_a_tick_that_is_not_an_int_is_corrupt(demo_scenario_path, tick):
    world = World(persistence.load_scenario(demo_scenario_path))
    while not any(r.heard for r in world.reporters):
        world.step()

    def forge(data):
        heard = next(r["heard"] for r in data["reporters"] if r["heard"])
        for entry in heard.values():
            entry[1] = tick

    with pytest.raises(persistence.CorruptPayload):
        persistence.restore_world(oracles.forge_snapshot(persistence.snapshot_world(world), forge))


@pytest.mark.parametrize(
    "broadcast",
    [12345, lambda wire: wire.upper(), lambda wire: wire[:-2], "g" * 128],
    ids=["int", "upper-case-hex", "short-hex", "not-hex"],
)
def test_replay_memory_whose_broadcast_is_not_lowercase_wire_hex_is_corrupt(demo_scenario_path, broadcast):
    """A heard broadcast restores only as a snapshot writes it, so a resumed replayer logs what the live one would."""
    world = World(persistence.load_scenario(demo_scenario_path))
    while not any(r.heard for r in world.reporters):
        world.step()

    def edit(header, blocks):
        entry = next(iter(next(r["heard"] for r in header["reporters"] if r["heard"]).values()))
        entry[0] = broadcast(entry[0]) if callable(broadcast) else broadcast

    snap = oracles.edit_snapshot(persistence.snapshot_world(world), edit)
    with pytest.raises(persistence.CorruptPayload):
        persistence.restore_world(snap)


@pytest.mark.parametrize(
    "key,value",
    [("tick", "3"), ("tick", -5), ("tick", 10**9), ("tick", True), ("tick", 2.0), ("tick", None),
     ("clock", "x"), ("clock", -1), ("clock", 1.5), ("clock", False),
     # past the last record's time, yet not the time of the tick before the header's tick
     ("clock", 21), ("clock", 1_000_020), ("tick", 2)],
)
def test_tick_or_clock_out_of_range_is_corrupt(key, value):
    """The header's tick is an int in [0, duration_ticks] and its clock the int a live world writes: (tick - 1) ticks in."""
    world = World(compliant_scenario())
    for _ in range(3):
        world.step()
    assert (world.tick, world.ledger.clock) == (3, 20)
    snap = oracles.edit_snapshot(persistence.snapshot_world(world), lambda header, blocks: header.update({key: value}))
    with pytest.raises(persistence.CorruptPayload, match="tick .* clock"):
        persistence.restore_world(snap)


def _set_rng(index, value):
    return lambda header, blocks: header["rng"][1].__setitem__(index, value)


@pytest.mark.parametrize(
    "edit",
    [
        # random.setstate raises OverflowError on a negative word and keeps the low 32 bits of a larger one
        pytest.param(_set_rng(0, -1), id="negative-word"),
        pytest.param(_set_rng(0, 2**32 + 5), id="word-past-32-bits"),
        pytest.param(_set_rng(623, True), id="boolean-word"),
        pytest.param(_set_rng(624, 625), id="position-past-624"),
        pytest.param(_set_rng(624, -1), id="negative-position"),
        pytest.param(lambda header, blocks: header["rng"][1].pop(), id="no-position"),
        pytest.param(lambda header, blocks: header["rng"].__setitem__(0, 2), id="version-2"),
        pytest.param(lambda header, blocks: header["rng"].__setitem__(2, 0.5), id="gauss-not-null"),
        pytest.param(lambda header, blocks: header.update(rng={"0": 3}), id="object"),
    ],
)
def test_rng_state_of_another_shape_is_corrupt(edit):
    """The header's rng is [3, [624 words in [0, 2**32), a position in [0, 624]], null], or restore refuses it."""
    snap = oracles.edit_snapshot(persistence.snapshot_world(World(compliant_scenario())), edit)
    with pytest.raises(persistence.CorruptPayload, match="rng state"):
        persistence.restore_world(snap)


@pytest.mark.parametrize(
    "spaced",
    [
        pytest.param(lambda header: header.replace(b'{"accounts"', b'{ "accounts"'), id="after-brace"),
        pytest.param(lambda header: header.replace(b'"tick":', b'"tick": '), id="after-colon"),
        pytest.param(lambda header: header + b" ", id="at-the-end"),
        pytest.param(lambda header: header.replace(b'"kind":"state"', b'"kind":"\\u0073tate"'), id="escaped-letter"),
    ],
)
def test_header_that_is_not_canonical_json_is_corrupt(spaced):
    """A header that decodes to the same value but would snapshot to other bytes is refused."""
    header, rest = persistence.snapshot_world(World(compliant_scenario())).split(b"\n", 1)
    assert spaced(header) != header
    with pytest.raises(persistence.CorruptPayload, match="state header is not the one this code writes: its layout differs"):
        persistence.restore_world(spaced(header) + b"\n" + rest)


@pytest.mark.parametrize("spell", [" {}", "0_{}", "+{}", "0{}"], ids=["space", "underscore", "plus", "leading-zero"])
def test_replay_memory_keyed_other_than_by_str_of_the_drone_id_is_corrupt(demo_scenario_path, spell):
    """int() reads " 2", "0_2", "+2" and "02" as 2; restore reads only "2", the key a snapshot writes."""
    world = World(persistence.load_scenario(demo_scenario_path))
    while not any(r.heard for r in world.reporters):
        world.step()

    def respell(header, blocks):
        heard = next(r["heard"] for r in header["reporters"] if r["heard"])
        key = next(iter(heard))
        heard[spell.format(key)] = heard.pop(key)

    snap = oracles.edit_snapshot(persistence.snapshot_world(world), respell)
    with pytest.raises(persistence.CorruptPayload, match="\\['reporters'\\] differs"):
        persistence.restore_world(snap)


@pytest.mark.parametrize(
    "edit",
    [
        pytest.param(lambda header, blocks: header["schema"].update(minor=1), id="state-minor"),
        pytest.param(lambda header, blocks: header["schema"].update(patch=0), id="state-extra-key"),
    ],
)
def test_state_schema_other_than_the_one_written_is_corrupt(edit):
    """Only the schema this code writes survives a round trip, so only it is read; another major is a SchemaMismatch."""
    snap = oracles.edit_snapshot(persistence.snapshot_world(World(compliant_scenario())), edit)
    with pytest.raises(persistence.CorruptPayload, match="is not the .* this code writes"):
        persistence.restore_world(snap)


@pytest.mark.parametrize(
    "edit",
    [
        pytest.param(lambda scenario: scenario["schema"].update(minor=1), id="scenario-minor"),
        pytest.param(lambda scenario: scenario["schema"].update(minr=0), id="scenario-schema-key"),
    ],
)
def test_scenario_schema_other_than_the_one_written_is_corrupt(edit):
    """A scenario file may carry another minor; the scenario inside a snapshot must carry the schema it writes."""
    snap = oracles.edit_snapshot(
        persistence.snapshot_world(World(compliant_scenario())), lambda header, blocks: edit(header["scenario"])
    )
    with pytest.raises(persistence.CorruptPayload, match="\\['scenario'\\] differs"):
        persistence.restore_world(snap)


@pytest.mark.parametrize(
    "edit",
    [
        pytest.param(lambda accounts: accounts.reverse(), id="out-of-order"),
        pytest.param(lambda accounts: accounts[0].update(balance=int(accounts[0]["balance"])), id="balance-as-int"),
        pytest.param(lambda accounts: accounts[0].update(balance=" " + accounts[0]["balance"]), id="balance-spaced"),
        pytest.param(lambda accounts: accounts[0].update(note="x"), id="extra-key"),
    ],
)
def test_account_table_other_than_the_one_written_is_corrupt(edit):
    snap = oracles.edit_snapshot(
        persistence.snapshot_world(finished_world(compliant_scenario())), lambda header, blocks: edit(header["accounts"])
    )
    with pytest.raises(persistence.CorruptPayload, match="\\['accounts'\\] differs"):
        persistence.restore_world(snap)


@functools.cache
def _golden_snapshot(name):
    return persistence.snapshot_world(SNAPSHOT_GOLDEN[name][0]())


@settings(max_examples=300, deadline=None)
@given(name=st.sampled_from(sorted(SNAPSHOT_GOLDEN)), data=st.data())
def test_a_byte_replaced_in_a_golden_header_is_refused_or_round_trips(name, data):
    """Every accepted header restores a world that snapshots to exactly the bytes restored from."""
    snap = _golden_snapshot(name)
    at = data.draw(st.integers(0, snap.index(b"\n") - 1), label="at")
    edited = snap[:at] + bytes([data.draw(st.integers(0, 255), label="byte")]) + snap[at + 1:]
    try:
        restored = persistence.restore_world(edited)
    except (persistence.CorruptPayload, persistence.SchemaMismatch):
        return
    assert persistence.snapshot_world(restored) == edited


def _header_nodes(parent, key, path):
    """(path, parent, key) for the value parent[key] and for every value inside it, outer ones first."""
    yield path, parent, key
    value = parent[key]
    for k in value if isinstance(value, dict) else range(len(value)) if isinstance(value, list) else ():
        yield from _header_nodes(value, k, path + (k,))


_HEADER_EDITS = {  # which nodes each edit applies to
    "drop-key": lambda path, parent, key: bool(path) and isinstance(parent, dict),
    "int-to-float": lambda path, parent, key: type(parent[key]) is int,
    "add-key": lambda path, parent, key: isinstance(parent[key], dict),
}


@settings(max_examples=150, deadline=None)
@given(name=st.sampled_from(sorted(SNAPSHOT_GOLDEN)), edit=st.sampled_from(sorted(_HEADER_EDITS)), data=st.data())
def test_a_key_or_number_type_edited_in_a_golden_header_is_refused_or_round_trips(name, edit, data):
    """Drop any key, write any int as the equal float or add a key to any object: refused, or these very bytes again.

    These edits insert or remove bytes, which the single-byte property never reaches. The node is drawn
    per top-level key first, so the 625 words of `rng` do not crowd out the rest of the header.
    """
    header, rest = _golden_snapshot(name).split(b"\n", 1)
    box = {"": json.loads(header)}  # the header itself is box[""], an object a key can be added to
    nodes = [node for node in _header_nodes(box, "", ()) if _HEADER_EDITS[edit](*node)]
    top = data.draw(st.sampled_from(sorted({path[:1] for path, _, _ in nodes})), label="top")
    path, parent, key = data.draw(st.sampled_from([node for node in nodes if node[0][:1] == top]), label="node")
    if edit == "drop-key":
        del parent[key]
    elif edit == "int-to-float":
        parent[key] = float(parent[key])
    else:
        parent[key]["note"] = 0
    edited = canonical_json(box[""]) + b"\n" + rest
    try:
        restored = persistence.restore_world(edited)
    except (persistence.CorruptPayload, persistence.SchemaMismatch):
        return
    assert persistence.snapshot_world(restored) == edited, path


@functools.cache
def _finished_snapshot(name):
    return persistence.snapshot_world(finished_world(GOLDEN[name][0]()))


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_a_golden_finished_snapshot_restores_to_its_own_bytes(name):
    snap = _finished_snapshot(name)
    assert persistence.snapshot_world(persistence.restore_world(snap)) == snap


@pytest.mark.parametrize("name", sorted(GOLDEN))
@settings(max_examples=20, deadline=None)
@given(edit=st.sampled_from(["drop", "duplicate", "change"]), data=st.data())
def test_an_event_dropped_duplicated_or_changed_in_a_golden_run_is_refused(name, edit, data):
    """Restore compares each success's logged events with those its fold's writers emit, so one edit to one event of
    any success is refused, with every hash resealed to match."""
    def forge(logged):
        events = [tx["events"] for tx in _records(logged) if tx["status"] == "success" and tx["events"]]
        at = data.draw(st.integers(0, len(events) - 1), label="success")
        i = data.draw(st.integers(0, len(events[at]) - 1), label="event")
        if edit == "drop":
            del events[at][i]
        elif edit == "duplicate":
            events[at].insert(i, copy.deepcopy(events[at][i]))
        else:
            args = events[at][i]["args"]
            key = data.draw(st.sampled_from(sorted(args)), label="arg")
            other = st.integers() if type(args[key]) is int else st.text(max_size=8)
            args[key] = data.draw(other.filter(lambda value: value != args[key]), label="value")

    forged = oracles.forge_snapshot(_finished_snapshot(name), forge)
    with pytest.raises(persistence.CorruptPayload, match=r"tx \d+ \(\w+\) logs events that its writers do not emit$"):
        persistence.restore_world(forged)


@pytest.mark.parametrize(
    "forge",
    [
        pytest.param(lambda plan: plan.update(ridVc="00" * 32), id="rid-vc-zeroed"),
        pytest.param(lambda plan: plan.update(arrivalEpoch=plan["arrivalEpoch"] + 1000), id="arrival-later"),
        pytest.param(lambda plan: plan["route"][0].update(exitS=plan["route"][0]["exitS"] + 500), id="window-longer"),
        pytest.param(lambda plan: plan.update(altitudeM=plan["altitudeM"] + 500), id="altitude-raised"),
        pytest.param(lambda plan: plan.update(source=plan["destination"]), id="source-is-destination"),
        pytest.param(lambda plan: plan["route"][0].update(enterS=float(plan["route"][0]["enterS"])), id="enter-as-float"),
        pytest.param(lambda plan: plan["route"][-1].update(altBand=float(plan["route"][-1]["altBand"])),
                     id="band-as-float"),
    ],
)
def test_live_plan_other_than_its_args_give_is_corrupt(forge):
    """A plan still active at the snapshot is rebuilt from its request and compared field by field."""
    world = World(compliant_scenario())
    while world.tick < 5:
        world.step()
    assert world.uss.missions
    snap = persistence.snapshot_world(world)
    forged = oracles.forge_snapshot(snap, lambda d: forge(_logged(d, "request_plan")["payload"]))
    with pytest.raises(persistence.CorruptPayload, match="plan for drone 0"):
        persistence.restore_world(forged)


def test_plan_without_route_is_corrupt():
    snap = persistence.snapshot_world(World(compliant_scenario()))
    forged = oracles.forge_snapshot(snap, lambda d: _logged(d, "request_plan")["payload"].update(route=[]))
    with pytest.raises(persistence.CorruptPayload, match="plan for drone 0"):
        persistence.restore_world(forged)


@pytest.mark.parametrize(
    "forge",
    [
        pytest.param(lambda plan: plan.update(arrivalEpoch=plan["departureEpoch"] - 1), id="lands-before-departure"),
        pytest.param(lambda plan: plan["route"].append(dict(plan["route"][0])), id="revisits-a-cell"),
    ],
)
def test_plan_no_straight_flight_makes_is_corrupt(forge):
    """The airspace index holds one window per cell of a plan and counts it from departure to arrival."""
    snap = persistence.snapshot_world(World(compliant_scenario()))
    forged = oracles.forge_snapshot(snap, lambda d: forge(_logged(d, "request_plan")["payload"]))
    with pytest.raises(persistence.CorruptPayload, match="plan for drone 0"):
        persistence.restore_world(forged)


def test_snapshot_refuses_unsealed_state():
    world = World(compliant_scenario())
    world.ledger.clock = 0
    world.ledger.submit(world.drones[0].operator_account, "request_quote", {"droneId": 0})
    with pytest.raises(ValueError, match="seal pending"):
        persistence.snapshot_world(world)


@pytest.mark.parametrize("ticks", [0, 1, 3])
def test_snapshot_refuses_a_clock_restore_would_refuse(ticks):
    """A clock set outside World.step is not the time of the tick before: restore refuses it, so snapshot does too."""
    world = World(compliant_scenario())
    for _ in range(ticks):
        world.step()
    persistence.snapshot_world(world)  # the clock step() left
    world.ledger.clock += 1
    with pytest.raises(ValueError, match="not the time of the tick before"):
        persistence.snapshot_world(world)


def test_truncated_snapshot_is_corrupt():
    world = World(compliant_scenario())
    snap = persistence.snapshot_world(world)
    with pytest.raises(persistence.CorruptPayload):
        persistence.restore_world(snap[: len(snap) // 2])


@pytest.mark.parametrize(
    "edit,error",
    [("probe", "broken at block 0"), ("broken-link", "broken at block 1"),
     ("line-truncation", "header's head"), ("head-mismatch", "header's head")],
)
def test_restore_refuses_a_chain_edited_without_its_hashes(edit, error):
    snap = persistence.snapshot_world(finished_world(compliant_scenario()))
    with pytest.raises(persistence.CorruptPayload, match=error):
        persistence.restore_world(oracles.UNSEALED_SNAPSHOT_EDITS[edit](snap))


def test_snapshot_cut_at_any_line_boundary_is_corrupt():
    lines = persistence.snapshot_world(finished_world(compliant_scenario())).splitlines(keepends=True)
    for end in range(1, len(lines)):
        with pytest.raises(persistence.CorruptPayload, match="header's head"):
            persistence.restore_world(b"".join(lines[:end]))


@pytest.mark.parametrize("blank", [b"", b" \t "], ids=["empty", "spaces-and-tab"])
@pytest.mark.parametrize("at", [1, 2, -1], ids=["after-header", "after-block-0", "at-the-end"])
def test_snapshot_with_a_blank_line_is_corrupt(blank, at):
    """Only the final newline may end an empty line; a blank line anywhere else is refused, not skipped."""
    lines = persistence.snapshot_world(finished_world(compliant_scenario())).split(b"\n")
    lines.insert(at, blank)
    with pytest.raises(persistence.CorruptPayload, match="blank line"):
        persistence.restore_world(b"\n".join(lines))


def test_garbage_snapshot_is_corrupt():
    with pytest.raises(persistence.CorruptPayload):
        persistence.restore_world(b"not even json")
    with pytest.raises(persistence.CorruptPayload):
        persistence.restore_world(b'{"schema": {"major": 4}, "kind": "state"}')


def test_unknown_major_version_rejected():
    world = World(compliant_scenario())
    forged = oracles.forge_snapshot(persistence.snapshot_world(world), lambda d: d["schema"].update(major=99))
    with pytest.raises(persistence.SchemaMismatch):
        persistence.restore_world(forged)


@pytest.mark.parametrize("major", [1, 2])
def test_older_major_snapshot_is_refused(major):
    snap = persistence.snapshot_world(World(compliant_scenario()))
    forged = oracles.forge_snapshot(snap, lambda d: d.update(schema={"major": major, "minor": 0}))
    with pytest.raises(persistence.SchemaMismatch):
        persistence.restore_world(forged)


def test_schema_3_snapshot_is_refused():
    """A 3.0 snapshot is one JSON document holding the chain; its one line reads as a header of major 3."""
    snap = persistence.snapshot_world(World(compliant_scenario()))
    header, *lines = snap.splitlines()
    data = json.loads(header)
    del data["head"]
    data.update(schema={"major": 3, "minor": 0}, chain=[json.loads(line) for line in lines])
    with pytest.raises(persistence.SchemaMismatch):
        persistence.restore_world(canonical_json(data) + b"\n")


def test_snapshot_holds_no_contract_storage():
    header = json.loads(persistence.snapshot_world(finished_world(compliant_scenario())).splitlines()[0])
    assert header["schema"] == {"major": 4, "minor": 0}
    assert sorted(header) == ["accounts", "clock", "head", "kind", "reporters", "rng", "scenario", "schema", "tick"]
    assert all(sorted(r) == ["cell", "heard", "name"] for r in header["reporters"])


def test_nonces_survive_a_round_trip_but_never_in_the_clear():
    world = finished_world(compliant_scenario(n_reporters=0, seed=31))
    mid = World(compliant_scenario(n_reporters=0, seed=31))
    while mid.tick < 10:
        mid.step()
    nonces = {d: m.nonce for d, m in mid.uss.missions.items()}
    assert nonces, "mission should still be active at tick 10"
    snap = persistence.snapshot_world(mid)
    for nonce in nonces.values():
        assert nonce.hex().encode() not in snap
    restored = persistence.restore_world(snap)
    assert {d: m.nonce for d, m in restored.uss.missions.items()} == nonces


def test_plan_exports_never_contain_nonces():
    world = World(compliant_scenario())
    nonce_hexes = [m.nonce.hex() for m in world.uss.missions.values()]
    dump = json.dumps(world.uss.export_active_plans())
    for nonce_hex in nonce_hexes:
        assert nonce_hex not in dump


class TestChainFiles:
    def test_round_trip_and_verify(self, tmp_path):
        world = finished_world(compliant_scenario())
        path = tmp_path / "x.chain.jsonl"
        persistence.write_chain_jsonl(path, world.ledger.blocks)
        blocks = persistence.read_chain_jsonl(path)
        assert blocks == world.ledger.blocks
        assert persistence.verify_chain_file(path) == (True, None)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.chain.jsonl"
        path.write_bytes(b"")
        with pytest.raises(persistence.CorruptPayload):
            persistence.read_chain_jsonl(path)

    @pytest.mark.parametrize("raw", [b"\n", b"H\n\nB\n", b"H\nB\n\n", b"H\n \t \nB", b"\r\nH\n"],
                             ids=["only-newline", "empty-line", "two-final-newlines", "whitespace-line", "cr-line"])
    def test_blank_line_is_refused(self, tmp_path, raw):
        path = tmp_path / "blank.chain.jsonl"
        path.write_bytes(raw.replace(b"H", b'{"kind":"chain","schema":{"major":1,"minor":0}}').replace(b"B", b"x"))
        with pytest.raises(persistence.CorruptPayload, match="blank line"):
            persistence.read_chain_jsonl(path)

    def test_final_newline_is_optional(self, tmp_path):
        world = finished_world(compliant_scenario())
        path = tmp_path / "x.chain.jsonl"
        persistence.write_chain_jsonl(path, world.ledger.blocks)
        path.write_bytes(path.read_bytes().removesuffix(b"\n"))
        assert persistence.read_chain_jsonl(path) == world.ledger.blocks

    def test_bad_header_major(self, tmp_path):
        path = tmp_path / "bad.chain.jsonl"
        path.write_bytes(b'{"schema":{"major":9,"minor":0},"kind":"chain"}\n')
        with pytest.raises(persistence.SchemaMismatch):
            persistence.read_chain_jsonl(path)

    @pytest.mark.parametrize(
        "header,differ",
        [(b'{"kind":"chain","schema":{"major":1.0,"minor":0}}', "\\['schema'\\]"),
         (b'{"kind":"chain","schema":{"major":1,"minor":0.0}}', "\\['schema'\\]"),
         (b'{"kind":"chain","note":0,"schema":{"major":1,"minor":0}}', "\\['note'\\]"),
         (b'{"kind":"chain", "schema":{"major":1,"minor":0}}', "its layout")],
        ids=["major-float", "minor-float", "extra-key", "spaced"],
    )
    def test_header_other_than_the_one_written_is_refused(self, tmp_path, header, differ):
        """A chain log reads back only under the header line write_chain_jsonl writes; the refusal names what differs."""
        world = finished_world(compliant_scenario())
        path = tmp_path / "x.chain.jsonl"
        persistence.write_chain_jsonl(path, world.ledger.blocks)
        written, rest = path.read_bytes().split(b"\n", 1)
        assert header != written
        path.write_bytes(header + b"\n" + rest)
        with pytest.raises(persistence.CorruptPayload, match=f"chain header is not the one this code writes: {differ} differs"):
            persistence.read_chain_jsonl(path)

    def test_a_space_anywhere_in_a_line_is_refused_or_breaks_the_chain(self):
        blocks = finished_world(compliant_scenario()).ledger.blocks
        index = min(range(len(blocks)), key=lambda i: len(blocks[i].line()))
        line = blocks[index].line()
        refused = 0
        for pos in range(len(line) + 1):
            try:
                block = Block.from_line(line[:pos] + b" " + line[pos:])
            except (KeyError, TypeError, ValueError):
                refused += 1
                continue
            assert verify_blocks(blocks[:index] + [block] + blocks[index + 1:])[0] is False
        assert 0 < refused < len(line) + 1

    def test_verify_holds_at_most_two_decoded_blocks(self, tmp_path, demo_scenario_path, monkeypatch):
        """verify_chain_file drops each block once it is checked, so the blocks alive never grow with the log."""
        world = World(persistence.load_scenario(demo_scenario_path))
        world.run_to_end()
        path = tmp_path / "demo.chain.jsonl"
        persistence.write_chain_jsonl(path, world.ledger.blocks)
        read, refs, most = Block.from_line, [], [0]

        def tracked(line):
            block = read(line)
            refs.append(weakref.ref(block))
            most[0] = max(most[0], sum(ref() is not None for ref in refs))
            return block

        monkeypatch.setattr(Block, "from_line", tracked)
        assert persistence.verify_chain_file(path) == (True, None)
        assert len(refs) == len(world.ledger.blocks) > 2 and most[0] <= 2

    def test_verify_blocks_reads_an_iterator_as_its_list(self):
        blocks = finished_world(compliant_scenario()).ledger.blocks
        tampered = dataclasses.replace(blocks[2], hash=bytes(32))
        cases = [blocks, blocks[:3], [], blocks[:2] + [tampered] + blocks[3:], blocks[:1] + blocks[2:], blocks[::-1]]
        for case in cases:
            assert verify_blocks(iter(case)) == verify_blocks(case)
        assert [verify_blocks(c)[1] for c in cases] == [None, None, None, 2, 1, 0]

    def test_mangled_block_line(self, tmp_path):
        path = tmp_path / "mangled.chain.jsonl"
        path.write_bytes(
            b'{"schema":{"major":1,"minor":0},"kind":"chain"}\n{"index":0}\n'
        )
        with pytest.raises(persistence.CorruptPayload):
            persistence.read_chain_jsonl(path)


class TestScenarioFiles:
    def test_save_load_round_trip(self, tmp_path):
        scenario = compliant_scenario()
        path = tmp_path / "x.scenario.json"
        path.write_bytes(canonical_json(scenario.to_dict()) + b"\n")
        assert persistence.load_scenario(path) == scenario

    def test_bundled_demo_loads(self, demo_scenario_path):
        scenario = persistence.load_scenario(demo_scenario_path)
        assert scenario.name == "demo"
        assert len(scenario.drones) == 4
        behaviors = {d.behavior for d in scenario.drones}
        assert behaviors == {"compliant", "deviating", "silent", "forger"}


class TestCsvOutputs:
    def test_trace_columns(self, tmp_path):
        world = finished_world(compliant_scenario())
        path = tmp_path / "trace.csv"
        persistence.write_trace_csv(path, world)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "tick,droneId,cellLat,cellLon,broadcast"
        assert len(lines) > 1
        tick, drone_id, lat, lon, broadcast = lines[1].split(",")
        assert int(tick) >= 0 and int(drone_id) == 0
        bytes.fromhex(broadcast)  # hex payload decodes

    def test_reputation_surface(self, tmp_path):
        path = tmp_path / "surface.csv"
        persistence.write_reputation_surface_csv(path, 5, 5)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "rewards,penalties,reputationMicro"
        assert len(lines) == 1 + 6 * 6
        assert lines[1] == "0,0,0"

    def test_congestion_fee_curve(self, tmp_path):
        path = tmp_path / "fees.csv"
        persistence.write_congestion_fee_csv(path, compliant_scenario(), max_missions=10)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "activeMissions,fee"
        fees = [int(line.split(",")[1]) for line in lines[1:]]
        assert fees == sorted(fees) and len(fees) == 11

    @settings(max_examples=30, deadline=None)
    @given(sensing_scenarios())
    def test_trace_bytes_equal_csv_writer(self, tmp_path_factory, scenario):
        """Rows formatted directly give csv.writer's bytes: no field is None or needs quoting."""
        world = World(scenario)
        world.run_to_end()
        path = tmp_path_factory.mktemp("trace")
        persistence.write_trace_csv(path / "new.csv", world)
        oracles.csv_writer_trace(path / "old.csv", world)
        assert (path / "new.csv").read_bytes() == (path / "old.csv").read_bytes()

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 60), st.integers(0, 60), st.integers(0, 300),
           st.builds(FeeParams, st.integers(0, 10**9), st.integers(0, 10**9), st.integers(0, 10**6)))
    def test_surface_and_fee_bytes_equal_csv_writer(self, tmp_path_factory, rewards, penalties, missions, fee_params):
        scenario = dataclasses.replace(compliant_scenario(), fee_params=fee_params)
        path = tmp_path_factory.mktemp("plots")
        persistence.write_reputation_surface_csv(path / "surface.csv", rewards, penalties)
        oracles.csv_writer_reputation_surface(path / "surface.old.csv", rewards, penalties)
        persistence.write_congestion_fee_csv(path / "fee.csv", scenario, missions)
        oracles.csv_writer_congestion_fee(path / "fee.old.csv", scenario, missions)
        assert (path / "surface.csv").read_bytes() == (path / "surface.old.csv").read_bytes()
        assert (path / "fee.csv").read_bytes() == (path / "fee.old.csv").read_bytes()

    def test_events_stream(self, tmp_path):
        world = finished_world(compliant_scenario())
        path = tmp_path / "events.jsonl"
        persistence.write_events_jsonl(path, world.ledger.blocks)
        lines = [json.loads(l) for l in path.read_text().strip().splitlines()]
        assert lines[0]["kind"] == "events"
        names = {e.get("name") for e in lines[1:]}
        assert names == {"DroneSighted", "missionComplete"}
        assert all("txId" in e for e in lines[1:])
