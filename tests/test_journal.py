"""The ledger's undo journal: exact write metering, atomic rollback, read-only views."""

import collections
import contextlib
import copy
import dataclasses
import functools
import re
import sys
from unittest import mock

import pytest
from hypothesis import assume, event, example, given, seed, settings, strategies as st

import oracles
from conftest import (
    DATE,
    DST,
    REPO_ROOT,
    SRC,
    broadcast_hex,
    complete,
    compliant_scenario,
    deviating_scenario,
    dms,
    finished_world,
    make_bench,
    plan,
    planned_drone,
    register,
    report,
    report_args,
    subscribe,
)
from skyledger import ledger as ledger_module, uss as uss_module
from skyledger.authority import REVERT_ALREADY_REGISTERED, REVERT_TAC_NOT_SIGNED
from skyledger.ledger import Ledger, LedgerError
from skyledger.persistence import load_scenario
from skyledger.sim import ReporterSpec, Scenario, World
from skyledger.uss import Mission, UssContract, parse_departure_epoch
from test_golden import GOLDEN

sys.path.insert(0, str(REPO_ROOT / "perfbench"))
import workloads  # noqa: E402 -- the benchmark's scenario generators, used read-only


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
        lambda: workloads.doas_scenario(1, 12),
        lambda: workloads.crowd_scenario(1, 4, 24),  # forgers' reverts, a deviating flight's penalties
    ],
    ids=["compliant", "deviating", "demo", "bench-doas", "bench-crowd"],
)
def test_scenario_metering_matches_whole_tree_oracle(make_scenario, whole_tree):
    finished_world(make_scenario())
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
    noon = _noon_report(bench, drone_id)
    assert (noon.status, noon.reason, noon.state_writes) == ("revert", "invalid-arg:sightingTime", 0)
    assert noon.args["sightingTime"] == "noon"  # logged as sent
    assert ledger.state_digest() == digest
    assert ledger.pending == logged + [noon]
    # the reporter is not locked out, and no tx id went missing
    rec = report(bench, drone_id, at_s=100)
    assert rec.status == "success"
    assert rec.tx_id == noon.tx_id + 1 == logged[-1].tx_id + 2


@pytest.mark.parametrize("sign_tac", ["no", 0, None])
def test_terms_must_be_accepted_with_a_boolean(bench, sign_tac):
    args = {"serial": "SN-TAC", "ownerNationalId": "NID-TAC", "signTAC": sign_tac}
    digest = bench.ledger.state_digest()
    rec = bench.ledger.submit(bench.operator, "register_drone", args)
    assert (rec.status, rec.reason) == ("revert", "invalid-arg:signTAC")
    assert bench.ledger.state_digest() == digest
    assert not bench.authority.records


def test_escrow_drift_is_refused_and_rolled_back(bench):
    drone_id = planned_drone(bench)
    bench.uss.missions[drone_id].escrow += 1
    digest, logged = bench.ledger.state_digest(), list(bench.ledger.pending)
    with pytest.raises(LedgerError, match="escrow"):
        complete(bench, drone_id)
    assert bench.ledger.state_digest() == digest
    assert bench.ledger.pending == logged
    assert bench.authority.record(drone_id).has_active_plan


@pytest.mark.parametrize("lat_offset_arcsec", [0, 10], ids=["reward", "penalty"])
def test_exception_after_a_sighting_is_recorded_undoes_the_mission_and_its_count(bench, monkeypatch, lat_offset_arcsec):
    """The mission slot holds report_counts, whose entries are slots of their own; both writes roll back."""
    drone_id = planned_drone(bench)
    assert report(bench, drone_id, 100, bench.second_reporter, lat_offset_arcsec=lat_offset_arcsec).status == "success"
    uss, ledger = bench.uss, bench.ledger
    mission = uss.missions[drone_id]
    kept = (ledger.state_digest(), mission.escrow, mission.forfeited, dict(mission.report_counts))
    record = uss._record_sighting

    def record_then_fail(sighting):
        record(sighting)
        written = uss.missions[drone_id]
        assert written.escrow != kept[1] and written.report_counts[bench.reporter] == 1
        raise RuntimeError("after the write")

    monkeypatch.setattr(uss, "_record_sighting", record_then_fail)
    with pytest.raises(RuntimeError, match="after the write"):
        report(bench, drone_id, 110, lat_offset_arcsec=lat_offset_arcsec)
    mission = uss.missions[drone_id]
    assert (ledger.state_digest(), mission.escrow, mission.forfeited, mission.report_counts) == kept
    assert bench.reporter not in mission.report_counts


@pytest.mark.parametrize("write", ["slot", "transfer", "emit"])
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
        elif write == "emit":
            ledger.emit("Sneaked", by=caller)
        else:
            ledger.transfer(caller, vault, 1)

    ledger.register_op("sneaky", sneaky)  # no fold: a view
    ledger.genesis()
    digest, logged = ledger.state_digest(), list(ledger.pending)
    with pytest.raises(LedgerError, match="view"):
        ledger.submit(alice, "sneaky")
    assert ledger.state_digest() == digest
    assert ledger.pending == logged
    assert ledger.balance(alice) == 10


# -- fuzzing every registered op against the whole-storage oracle -------------

OPS = (
    "register_drone", "get_drone", "subscribe", "request_quote", "request_plan", "report_drone", "report_completion",
)
CALLERS = ("operator", "second_operator", "reporter", "second_reporter", "uss_reader")
# the callers an op is meant for: the owner of drone 0, a registry reader, or anyone but the owner
NATURAL_CALLERS = {"get_drone": ("uss_reader",), "report_drone": ("reporter", "second_reporter", "uss_reader")}
DEPARTURES = ("0001", "0003", "0010")
SHAPES = ("valid",) * 20 + ("missing", "noon", "-1", True)  # the last four malform one field
VALUES = ("args",) * 12 + (0, 10**9)  # "args": the value the op asks for


def _well_formed(bench, op, caller, drone_id, variant):
    """Args and attached value of one call; well-formed, though the call may still revert."""
    uss = bench.uss
    if op == "register_drone":
        serial = f"SN-{variant}"
        return {"serial": serial, "ownerNationalId": f"NID-{serial}", "signTAC": True}, 0
    if op == "subscribe":
        return {"droneId": drone_id}, uss.params.subscription_fee
    if op == "request_plan":
        time = DEPARTURES[variant]
        args = {
            "droneId": drone_id, "source": SRC, "destination": DST, "departureDate": DATE, "departureTime": time,
        }
        return args, uss.quote_fee(caller, parse_departure_epoch(DATE, time, uss.params.epoch_date))[0]
    if op == "report_drone":
        # variant 0: on plan, 1: off plan, 2: forged commitment
        if drone_id not in uss.missions:
            return report_args(bench, drone_id, 100, rid_hex="00" * 8), 0
        vc = b"\x13" * 32 if variant == 2 else None
        rid = broadcast_hex(bench, drone_id, 100, vc=vc)
        return report_args(bench, drone_id, 100, rid, lat_offset_arcsec=10 * (variant == 1)), 0
    if op == "report_completion":
        mission = uss.missions.get(drone_id)
        return {"droneId": drone_id, "ridVc": mission.plan.rid_vc.hex() if mission else "00" * 32}, 0
    return {"droneId": drone_id}, 0  # get_drone, request_quote


@st.composite
def _step(draw):
    """One call, drawn mostly valid: its op's own caller, well-formed args and the value the op asks for."""
    # reports dominate real traffic; plans and settlements, drawn twice as often as the rest, make re-plans reachable
    op = draw(st.sampled_from(OPS + ("report_drone",) * 3 + ("request_plan", "report_completion") * 2))
    natural = NATURAL_CALLERS.get(op, ("operator",))
    return (
        op,
        draw(st.sampled_from(natural * (12 // len(natural)) + CALLERS)),
        draw(st.sampled_from((0,) * 6 + (1, 2))),  # drone id; 0 has a live plan
        draw(st.sampled_from((0, 1, 2))),  # variant
        draw(st.sampled_from(SHAPES)),
        draw(st.integers(0, 4)),  # which field a malformed shape spoils
        draw(st.sampled_from(VALUES)),
    )


steps = st.lists(_step(), min_size=1, max_size=30)

# a drone with a live plan, so that reports and settlement are reachable
PLANNED_PREFIX = [
    ("register_drone", "operator", 0, 0, "valid", 0, "args"),
    ("subscribe", "operator", 0, 0, "valid", 0, "args"),
    ("request_plan", "operator", 0, 0, "valid", 0, "args"),
]


def _generated_calls(bench, steps):
    """(caller, op, args, value) of each step after the planned prefix, built against the state the earlier calls left."""
    for op, who, drone_id, variant, shape, field, value in PLANNED_PREFIX + steps:
        caller = getattr(bench, who)
        args, wanted = _well_formed(bench, op, caller, drone_id, variant)
        if shape != "valid":
            key = sorted(args)[field % len(args)]
            if shape == "missing":
                del args[key]
            else:
                args[key] = shape
        bench.ledger.clock = 100
        yield caller, op, args, wanted if value == "args" else value


@settings(max_examples=150, deadline=None)
@given(steps=steps)
def test_random_op_sequences_match_whole_tree_oracle(steps):
    """Valid, duplicate and malformed calls of all seven ops, each logged, metered and rolled back exactly.

    The journal keeps a record's field values only, so a write that
    mutates an object nested below a record's fields would leave a revert
    or an escaping error with a changed digest here, or meter differently
    from the oracle.
    """
    bench = make_bench()
    ledger = bench.ledger
    submit = oracles.WholeTreeSubmit(Ledger.submit)
    for caller, op, args, value in _generated_calls(bench, steps):
        logged = list(ledger.pending)
        rec = submit(ledger, caller, op, args, value)
        assert ledger.pending == logged + [rec]
        assert rec.tx_id == logged[-1].tx_id + 1
        checked, writes, deltas, digest_kept = submit.checked[-1]
        assert checked is rec
        assert (rec.state_writes, rec.balance_deltas) == (writes, deltas), rec.to_dict()
        if rec.status == "revert":
            assert digest_kept, rec.to_dict()


# a reward, a supplier account's penalty, settlement, then a second plan and report for the same drone
SETTLE_AND_REPLAN = [
    ("report_drone", "reporter", 0, 0, "valid", 0, "args"),
    ("report_drone", "uss_reader", 0, 1, "valid", 0, "args"),
    ("report_completion", "operator", 0, 0, "valid", 0, "args"),
    ("request_plan", "operator", 0, 1, "valid", 0, "args"),
    ("report_drone", "reporter", 0, 0, "valid", 0, "args"),
]

# five off-plan reports at a fine of 300 against the 1,000 deposit: the fourth fine is clipped to 100 and the fifth
# to 0, then settlement pays nothing
FINES_PAST_THE_DEPOSIT = [
    ("report_drone", who, 0, 1, "valid", 0, "args")
    for who in ("reporter", "second_reporter", "uss_reader", "second_operator", "third_reporter")
] + [("report_completion", "operator", 0, 0, "valid", 0, "args")]
DEFAULT_FINE = Scenario().fine_unit


@settings(max_examples=100, deadline=None)
@given(steps=steps, fine_unit=st.just(DEFAULT_FINE))
@example(steps=SETTLE_AND_REPLAN, fine_unit=DEFAULT_FINE)
@example(steps=FINES_PAST_THE_DEPOSIT, fine_unit=300)
def test_folding_the_log_gives_the_live_state(steps, fine_unit):
    """Contract storage and balances are a fold of the logged successes, each re-applied by its op's fold.

    The sequences reach records a simulated run never logs, such as
    reports filed by a supplier account, a second plan for a drone
    after its settlement, and fines clipped by the deposit.
    """
    live = make_bench(fine_unit=fine_unit)
    for caller, op, args, value in _generated_calls(live, steps):
        live.ledger.submit(caller, op, args, value)
    live.ledger.seal_block()
    folded = make_bench(fine_unit=fine_unit)
    folded.ledger.apply_log(live.ledger.blocks)
    folded.uss.build_live_plans()
    assert folded.ledger.state_digest() == live.ledger.state_digest()
    assert {a: acc.balance for a, acc in folded.ledger.accounts.items()} == {
        a: acc.balance for a, acc in live.ledger.accounts.items()
    }


@pytest.mark.parametrize(
    "edit",
    [
        pytest.param(lambda genesis: genesis.args.update(note="other"), id="note"),
        pytest.param(lambda genesis: genesis.args["accounts"][0].update(role="uss"), id="role"),
        pytest.param(lambda genesis: setattr(genesis, "timestamp", 1), id="timestamp"),
    ],
)
def test_apply_log_refuses_a_chain_that_does_not_open_with_the_pending_genesis(edit):
    other = make_bench().ledger
    edit(other.pending[0])
    other.seal_block()
    ledger = make_bench().ledger
    pending = list(ledger.pending)
    with pytest.raises(LedgerError, match="genesis"):
        ledger.apply_log(other.blocks)
    assert (ledger.blocks, ledger.pending) == ([], pending)


def test_generated_steps_reach_what_the_fold_guards():
    """In a fixed-seed batch, at least 5 of 100 examples each file a reward, a penalty, a settlement and a re-plan."""
    reached = collections.Counter()

    @seed(0)
    @settings(max_examples=100, deadline=None, database=None)
    @given(steps=steps)
    def collect(steps):
        bench = make_bench()
        settled, paths = set(), set()
        for caller, op, args, value in _generated_calls(bench, steps):
            rec = bench.ledger.submit(caller, op, args, value)
            if rec.status != "success":
                continue
            if op == "report_drone":
                paths.add(rec.payload["verdict"])
            elif op == "report_completion":
                paths.add("settlement")
                settled.add(args["droneId"])
            elif op == "request_plan" and args["droneId"] in settled:
                paths.add("re-plan")
        reached.update(paths)

    collect()
    assert all(reached[path] >= 5 for path in ("reward", "penalty", "settlement", "re-plan")), reached


def _fold_relabelled(live, rec, payload=None, deltas=None):
    """Seal live's log with `rec`, a revert, logged as a success with this payload and these balanceDeltas; fold it."""
    rec.status, rec.reason, rec.payload, rec.balance_deltas = "success", None, payload, deltas or {}
    live.ledger.seal_block()
    make_bench().ledger.apply_log(live.ledger.blocks)


def _second_subscription(bench):
    drone_id = register(bench)
    first = subscribe(bench, drone_id)
    return subscribe(bench, drone_id), first.payload, first.balance_deltas


def _underpaid_subscription(bench):
    drone_id, fee = register(bench), bench.uss.params.subscription_fee
    rec = bench.ledger.submit(bench.operator, "subscribe", {"droneId": drone_id}, value=fee - 1)
    expiry = bench.ledger.clock + uss_module.SUBSCRIPTION_PERIOD_S
    return rec, {"droneId": drone_id, "expiry": expiry}, {bench.operator: 1 - fee, bench.uss.treasury: fee - 1}


def _declined_terms(bench):
    args = {"serial": "SN-0001", "ownerNationalId": "NID-SN-0001", "signTAC": False}
    return bench.ledger.submit(bench.operator, "register_drone", args), {"droneId": 0}, {}


def _second_registration(bench):
    register(bench)
    args = {"serial": "SN-0001", "ownerNationalId": "NID-other", "signTAC": True}
    return bench.ledger.submit(bench.second_operator, "register_drone", args), {"droneId": 1}, {}


def _second_plan(bench):
    drone_id = planned_drone(bench)
    first = next(tx for tx in bench.ledger.pending if tx.op == "request_plan")
    rec, deposit = plan(bench, drone_id, time="0003"), bench.uss.params.fee_params.deposit
    moves = {bench.operator: -rec.value, bench.uss.treasury: rec.value - deposit, bench.uss.escrow: deposit}
    return rec, first.payload, moves


@pytest.mark.parametrize(
    "relabelled,reason",
    [
        (_second_subscription, uss_module.REVERT_ALREADY_SUBSCRIBED),
        (_underpaid_subscription, uss_module.REVERT_SUBSCRIPTION_FEE),
        (_second_registration, REVERT_ALREADY_REGISTERED),
        (_declined_terms, REVERT_TAC_NOT_SIGNED),
        (_second_plan, uss_module.REVERT_ACTIVE_PLAN_EXISTS),
    ],
    ids=["second-subscription", "underpaid-subscription", "duplicate-registration", "declined-terms", "second-plan"],
)
def test_a_revert_logged_as_a_success_with_the_payload_and_moves_of_one_is_refused(relabelled, reason):
    """The op's own check refuses each, whose payload and moves are the ones a success would log."""
    live = make_bench()
    rec, payload, deltas = relabelled(live)
    assert (rec.status, rec.reason) == ("revert", reason)
    with pytest.raises(LedgerError, match=re.escape(f"its op reverts: {reason}") + "$"):
        _fold_relabelled(live, rec, payload, deltas)


# Reasons the fold does not check, so a revert with one of them may fold past the check that gave it (or fail on the
# revert's empty payload instead): what only re-computation could check, and the payload the fold takes as given.
# A key is a reason, or (op, reason) for a reason that only this op's fold leaves unchecked.
NOT_RECHECKED = {
    ("request_plan", uss_module.REASON_INVALID_DMS): "a plan's points are read only when a live plan is built",
    uss_module.REASON_INVALID_DATETIME: "a plan's departure is computed only when a live plan is built",
    uss_module.REVERT_PLAN_FEE: "a plan's fee is taken as given",
    uss_module.REASON_SCHEDULE_CONFLICT: "deconfliction needs the settled plans",
    uss_module.REASON_MALFORMED_RID: "a report's RID is taken as given",
    uss_module.REVERT_INVALID_REPORT: "two checks, no mission or a RID that does not verify; the second needs the RID",
    uss_module.REASON_INVALID_RIDVC: "a completion's ridVc is taken as given",
}
VIEWS = ("get_drone", "request_quote")  # a view that moves nothing is taken as given, its args unchecked


@settings(max_examples=200, deadline=None)
@given(steps=steps, data=st.data())
def test_a_revert_logged_as_a_success_is_refused_with_its_reason(steps, data):
    """A generated revert relabelled as a success: the fold runs the check that reverted it, whatever the payload."""
    live = make_bench()
    reverts = []
    for caller, op, args, value in _generated_calls(live, steps):
        rec = live.ledger.submit(caller, op, args, value)
        if rec.status == "revert" and op not in VIEWS and not {rec.reason, (op, rec.reason)} & NOT_RECHECKED.keys():
            reverts.append(rec)
    assume(reverts)
    rec = data.draw(st.sampled_from(reverts))
    with pytest.raises(LedgerError, match=re.escape(f"tx {rec.tx_id} ({rec.op}) logs a success that its op reverts: "
                                                    f"{rec.reason}") + "$"):
        _fold_relabelled(live, rec)


@dataclasses.dataclass
class _Pair:
    left: object
    right: object


@dataclasses.dataclass(frozen=True)
class _FrozenPair:
    left: object
    right: object


@dataclasses.dataclass(frozen=True)
class _One:
    value: object


@dataclasses.dataclass
class _Cached:
    """A dataclass that stores a non-field attribute in its __dict__ once `derived` is read."""

    left: object
    right: object

    @functools.cached_property
    def derived(self):
        return [self.left, self.right, "x"]


def _cached(left, right, read):
    value = _Cached(left, right)
    if read:
        value.derived
    return value


_leaf = st.one_of(st.integers(-2, 2), st.booleans(), st.sampled_from(["", "a", "b"]), st.none())
_field = st.one_of(_leaf, st.lists(_leaf, max_size=3).map(tuple))  # a scalar, or a tuple of scalars (a cell)
_slot_value = st.one_of(
    _leaf,
    st.builds(_Pair, _field, _field),
    st.builds(_FrozenPair, _field, _field),
    st.builds(_One, _field),
    st.builds(_cached, _field, _field, st.booleans()),
)
_NO_SLOT = object()  # the slot does not exist


@st.composite
def _slot_write(draw):
    """(value before or _NO_SLOT, how, what): a record's fields set in place, or the slot replaced by a value or deleted."""
    before = draw(st.one_of(_slot_value, st.just(_NO_SLOT)))
    if dataclasses.is_dataclass(before) and not type(before).__dataclass_params__.frozen and draw(st.booleans()):
        return before, "in place", {f.name: draw(_field) for f in dataclasses.fields(before)}
    return before, "replace", draw(st.one_of(_slot_value, st.just(_NO_SLOT)))


@settings(max_examples=300, deadline=None)
@given(write=_slot_write())
@example(write=(_Pair(0, (1, 2)), "in place", {"left": False, "right": (1, True, 3)}))
@example(write=(_Pair((), "a"), "replace", _FrozenPair((), "a")))
@example(write=(_One((0,)), "replace", _One((0,))))
@example(write=(_cached(0, "a", True), "replace", _cached(0, "a", False)))
@example(write=(0, "replace", _Pair(0, ())))
@example(write=(_Pair(None, (1,)), "replace", _NO_SLOT))
def test_slot_writes_equal_whole_tree_leaf_diff(write):
    """A scalar or record slot created, changed in place, replaced by one of its type or another, or deleted."""
    before, how, after = write
    storage = {} if before is _NO_SLOT else {"slot": before}

    def body(ledger):
        ledger.touch(storage, "slot")
        if how == "in place":
            for name, value in after.items():
                setattr(storage["slot"], name, value)
        elif after is _NO_SLOT:
            storage.pop("slot", None)
        else:
            storage["slot"] = after

    ledger, caller = _one_op_ledger(storage, body)
    oracle = oracles.WholeTreeSubmit(Ledger.submit)
    assert oracle(ledger, caller, "write").status == "success"
    assert_matches_oracle(oracle.checked)


def _one_op_ledger(storage, body):
    """A ledger with `storage` attached and one op, "write", that runs body(ledger)."""
    ledger = Ledger()
    caller = ledger.create_account("operator")
    ledger.attach_storage("test", storage)
    ledger.register_op("write", lambda _caller, _args: body(ledger), fold=lambda _tx: body(ledger))
    return ledger, caller


@pytest.mark.parametrize("when", ["before", "during", "both"])
def test_meter_counts_a_dataclass_by_its_declared_fields_only(when):
    storage = {"slot": _Cached(1, "a")}
    if when != "during":
        storage["slot"].derived  # a cached_property value in the old slot's __dict__

    def body(ledger):
        ledger.touch(storage, "slot")
        storage["slot"] = _cached(2, "a", read=when != "before")  # one field changes

    ledger, caller = _one_op_ledger(storage, body)
    rec = ledger.submit(caller, "write")
    assert ("derived" in vars(storage["slot"])) == (when != "before")
    assert rec.status == "success" and rec.state_writes == 1
    assert ledger_module.count_leaves(storage["slot"]) == 2


@pytest.mark.parametrize("old,new", [(0, False), (False, 0), (1, True), (True, 1)])
def test_meter_counts_a_bool_int_swap_on_both_sides(old, new):
    storage = {"root": old, "pair": _Pair(old, "a")}

    def body(ledger):
        for key in storage:
            ledger.touch(storage, key)
        storage["root"], storage["pair"] = new, _Pair(new, "a")

    ledger, caller = _one_op_ledger(storage, body)
    oracle = oracles.WholeTreeSubmit(Ledger.submit)
    rec = oracle(ledger, caller, "write")
    assert rec.status == "success" and rec.state_writes == 2 * 2
    assert_matches_oracle(oracle.checked)


@pytest.mark.parametrize("kept", [True, False], ids=["touched", "written-new"])
@pytest.mark.parametrize("value", [{"n": 1}, [1]], ids=["dict", "list"])
def test_a_slot_value_that_is_a_container_raises_and_rolls_back(value, kept):
    """A dict or list in a slot is refused when touched, or when metered in a slot the transaction created."""
    storage = {"count": 0, **({"slot": value} if kept else {})}

    def body(ledger):
        ledger.touch(storage, "count")
        storage["count"] += 1
        ledger.touch(storage, "slot")
        storage["slot"] = value

    ledger, caller = _one_op_ledger(storage, body)
    ledger.genesis()
    digest, logged = ledger.state_digest(), list(ledger.pending)
    with pytest.raises(TypeError, match=f"holds a scalar or a dataclass record, not {type(value).__name__}$"):
        ledger.submit(caller, "write")
    assert ledger.state_digest() == digest and storage["count"] == 0 and ("slot" in storage) == kept
    assert ledger.pending == logged
    assert ledger.submit(caller, "next").tx_id == logged[-1].tx_id + 1  # no tx id went missing


def test_touching_a_list_container_raises_and_rolls_back():
    """Storage is dicts: a list has no .get, so its first touch raises AttributeError and the transaction rolls back."""
    storage = {"count": 0, "trail": []}

    def body(ledger):
        ledger.touch(storage, "count")
        storage["count"] += 1
        ledger.touch(storage["trail"], 0)
        storage["trail"].append(1)

    ledger, caller = _one_op_ledger(storage, body)
    ledger.genesis()
    digest, logged = ledger.state_digest(), list(ledger.pending)
    with pytest.raises(AttributeError, match="'list' object has no attribute 'get'$"):
        ledger.submit(caller, "write")
    assert ledger.state_digest() == digest and storage == {"count": 0, "trail": []}
    assert ledger.pending == logged
    assert ledger.submit(caller, "next").tx_id == logged[-1].tx_id + 1  # no tx id went missing


def _slot_values(container):
    """Every slot value in a storage container: its entries, the entries of the containers it holds, and the entries
    of a container that a record holds (a mission's report_counts)."""
    for value in container.values() if isinstance(container, dict) else container:
        if isinstance(value, (dict, list)):
            yield from _slot_values(value)
            continue
        yield value
        for held in (getattr(value, f.name) for f in dataclasses.fields(value)) if dataclasses.is_dataclass(value) else ():
            if isinstance(held, (dict, list)):
                yield from _slot_values(held)


def _golden_world(name):
    """A golden scenario's finished world, or ("demo-tick5") the demo's at tick 5, while its plans are live."""
    if name != "demo-tick5":
        return finished_world(GOLDEN[name][0]())
    world = World(load_scenario(REPO_ROOT / "scenarios" / "demo.scenario.json"))
    while world.tick < 5:
        world.step()
    assert world.uss.missions  # so missions and their report counts are in storage
    return world


@pytest.mark.parametrize("name", [*sorted(GOLDEN), "demo-tick5"])
def test_every_container_a_run_attaches_or_touches_is_a_dict(name):
    """Every slot is a dict entry, as touch, the meter and undo read it: each attached storage, each container one
    holds, and each container a contract touches."""
    touched, touch = collections.Counter(), Ledger.touch

    def counted(self, container, key):
        touched[type(container)] += 1
        touch(self, container, key)

    with mock.patch.object(Ledger, "touch", counted):
        world = _golden_world(name)
    attached = list(world.ledger._storages.values())
    held = [value for storage in attached for value in storage.values() if isinstance(value, (dict, list, set, tuple))]
    assert {type(container) for container in attached + held} == {dict}
    assert touched.keys() == {dict}, touched


@pytest.mark.parametrize("name", [*sorted(GOLDEN), "demo-tick5"])
def test_every_slot_holds_a_scalar_or_a_record_the_meter_counts(name):
    """What the meter relies on: contract storage holds no other slot value, and each counts as the walk does."""
    world = _golden_world(name)
    kinds = collections.Counter()
    for value in _slot_values(world.ledger._storages):
        assert type(value) in (int, str, bytes, bool, type(None)) or dataclasses.is_dataclass(value), type(value)
        assert ledger_module.count_leaves(value) == _walked(value), value
        kinds[type(value).__name__] += 1
    assert {"Account", "DroneRecord", "int"} <= kinds.keys(), kinds


# -- a type's declared leaf count is the walk's -------------------------------------------------------------

def _walked(obj):
    """The leaves the meter counts for a new slot that holds obj, by the whole-tree walk against an absent slot."""
    return oracles.whole_tree_leaf_diff({}, {"slot": oracles._plain(obj)})


class _Unwalked(list):
    """A route that cannot be iterated: counting the plan that holds it visits none of its windows."""
    __iter__ = None


@contextlib.contextmanager
def built_plans():
    """A list of every plan UssContract.plan_for builds inside the block."""
    plans, exact = [], UssContract.plan_for

    def plan_for(self, *args):
        plans.append(exact(self, *args))
        return plans[-1]
    with mock.patch.object(UssContract, "plan_for", plan_for):
        yield plans


def assert_declared_counts_are_walked(plans):
    """MissionPlan's and Mission's own counts, read through count_leaves, are the walk's; neither visits a window."""
    assert plans
    for p in plans:
        for mission in (Mission(p, b"n" * 16, {}, 5, 0), Mission(p, b"n" * 16, {"r1": 1, "r2": 3}, 5, 2)):
            assert ledger_module.count_leaves(mission) == _walked(mission)
        assert ledger_module.count_leaves(p) == _walked(p)
        assert ledger_module.count_leaves(dataclasses.replace(p, route=_Unwalked(p.route))) == _walked(p)
    for edge in (dataclasses.replace(plans[0], route=[]), Mission(None, b"", {}, 0, 0)):
        assert ledger_module.count_leaves(edge) == _walked(edge)


_point = st.tuples(st.integers(0, 90), st.integers(0, 90))  # arcseconds: legs of up to ~30 cells
_legs = st.lists(st.tuples(_point, st.sampled_from(["point", "row", "column", "diagonal", "any"]), _point),
                 min_size=1, max_size=4)


@settings(max_examples=60, deadline=None)
@given(legs=_legs)
@example(legs=[((10, 10), "row", (0, 80)), ((40, 10), "row", (0, 13))])  # legs of unequal length
@example(legs=[((10, 10), "point", (0, 0))])  # a one-window route
@example(legs=[((0, 0), "diagonal", (60, 0)), ((5, 70), "any", (70, 5))])  # diagonals
def test_declared_leaf_counts_equal_the_walk_on_corridors(legs):
    bench = make_bench()
    with built_plans() as plans:
        for i, (src, kind, other) in enumerate(legs):
            dst = {"point": src, "row": (src[0], other[1]), "column": (other[0], src[1]),
                   "diagonal": (src[0] + other[0], src[1] + other[0]), "any": other}[kind]
            drone_id = register(bench, serial=f"SN-{i}")
            assert subscribe(bench, drone_id).status == "success"
            rec = plan(bench, drone_id, source=dms(*src), destination=dms(*dst), time=f"{i + 1:02d}00")  # an hour apart
            assert rec.status == "success", rec.reason
    assert len(plans) == len(legs)
    lengths = {len(p.route) for p in plans}
    event("one-window route" if 1 in lengths else "no one-window route")
    event("legs of unequal length" if len(lengths) > 1 else "legs of one length")
    assert_declared_counts_are_walked(plans)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_declared_leaf_counts_equal_the_walk_on_golden_plans(name):
    with built_plans() as plans:
        World(GOLDEN[name][0]())
    assert_declared_counts_are_walked(plans)

# -- per-transaction bookkeeping does not grow with the crowd ---------------------

def _crowd_scenario(bystanders):
    """The compliant mission watched by many honest bystanders along its route."""
    cols = range(5, 18)
    return dataclasses.replace(
        compliant_scenario(),
        name="crowd",
        reporters=tuple(
            ReporterSpec(name=f"b{i}", cell=(3, cols[i % len(cols)]), sensing_range_m=200)
            for i in range(bystanders)
        ),
    )


def test_report_bookkeeping_does_not_grow_with_the_crowd(monkeypatch):
    calls = [0]
    for name in ("count_leaves", "_fields", "_field_leaves", "_fields_diff"):
        def counted(*args, _inner=getattr(ledger_module, name)):
            calls[0] += 1
            return _inner(*args)
        monkeypatch.setattr(ledger_module, name, counted)
    per_report = []
    submit = Ledger.submit

    def counting_submit(ledger, *args, **kwargs):
        calls[0] = 0
        rec = submit(ledger, *args, **kwargs)
        if rec.op == "report_drone" and rec.status == "success":
            per_report.append(calls[0])
        return rec

    monkeypatch.setattr(Ledger, "submit", counting_submit)
    counts = {}
    for bystanders in (30, 120):
        per_report.clear()
        finished_world(_crowd_scenario(bystanders))
        counts[bystanders] = list(per_report)
    assert len(counts[120]) > 3 * len(counts[30]) > 0
    assert set(counts[30]) == set(counts[120])


def test_journal_never_deep_copies(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("copy.deepcopy called")

    monkeypatch.setattr(copy, "deepcopy", refuse)
    world = finished_world(compliant_scenario())
    metrics = world.metrics()
    assert metrics.transactions > 1 and world.ledger.verify_chain()


# -- balances are undone and metered from the transaction's own moves; slots keep their objects ---------------------

@dataclasses.dataclass
class _Tally:
    count: int
    note: str


@dataclasses.dataclass
class _Tag:
    n: int
    cell: tuple


# a step: ("transfer", src, dst, amount) between accounts 0-2, or a write to storage
_transfer = st.tuples(st.just("transfer"), st.integers(0, 2), st.integers(0, 2), st.integers(0, 12))
_write = st.sampled_from([("bump",), ("tag",), ("replace",), ("append",), ("drop",)])
_ENDINGS = ("success", "revert", "raise")


def _transfer_chain_ledger(steps, ending):
    """A ledger whose op "chain" runs `steps`, then succeeds, reverts or raises RuntimeError; and its three accounts."""
    ledger = Ledger()
    storage = {"tallies": {0: _Tally(0, "a")}, "tags": {"x": _Tag(1, (1,)), "y": _Tag(2, (2,))}}
    ledger.attach_storage("chain", storage)
    accounts = [ledger.create_account("operator", balance) for balance in (10, 5, 0)]

    def chain(_caller, _args):
        tallies, tags = storage["tallies"], storage["tags"]
        for step in steps:
            if step[0] == "transfer":
                ledger.transfer(accounts[step[1]], accounts[step[2]], step[3])
            elif step[0] == "bump":  # a dataclass changed in place
                ledger.touch(tallies, 0)
                tallies[0].count += 1
            elif step[0] == "tag":  # a dict entry's scalar and tuple fields changed in place
                ledger.touch(tags, "x")
                tag = tags["x"]
                tag.n += 1
                tag.cell = (*tag.cell, tag.n)
            elif step[0] == "replace":
                ledger.touch(tallies, 0)
                tallies[0] = _Tally(tallies[0].count, "b")
            elif step[0] == "append":  # a new entry at the next index
                ledger.touch(tallies, len(tallies))
                tallies[len(tallies)] = _Tally(0, "c")
            else:  # "drop"
                ledger.touch(tags, "y")
                tags.pop("y", None)
        if ending == "revert":
            raise ledger_module.ContractRevert("after-the-moves")
        if ending == "raise":
            raise RuntimeError("after the moves")

    ledger.register_op("chain", chain, fold=lambda _tx: None)
    ledger.genesis()
    return ledger, storage, accounts


@settings(max_examples=200, deadline=None)
@given(steps=st.lists(st.one_of(_transfer, _transfer, _write), max_size=8), ending=st.sampled_from(_ENDINGS))
@example(steps=[("transfer", 0, 0, 4), ("bump",)], ending="success")  # a self-transfer moves nothing
@example(steps=[("transfer", 0, 1, 3), ("transfer", 1, 0, 3), ("tag",)], ending="success")  # A -> B -> A nets to zero
@example(steps=[("transfer", 0, 1, 3), ("bump",), ("transfer", 2, 1, 1), ("tag",)], ending="success")  # too poor
@example(steps=[("transfer", 0, 1, 3), ("replace",), ("tag",), ("drop",)], ending="revert")
@example(steps=[("transfer", 1, 2, 2), ("bump",), ("append",), ("tag",)], ending="raise")
def test_transfer_chains_match_whole_tree_oracle_and_undo_in_place(steps, ending):
    """A revert or an escaping error puts back each touched slot's own object, with its old field values."""
    ledger, storage, accounts = _transfer_chain_ledger(steps, ending)
    tally, tags, tag_x, tag_y = storage["tallies"][0], storage["tags"], storage["tags"]["x"], storage["tags"]["y"]
    balances, digest, logged = [ledger.balance(a) for a in accounts], ledger.state_digest(), list(ledger.pending)
    submit = oracles.WholeTreeSubmit(Ledger.submit)
    try:
        rec = submit(ledger, accounts[0], "chain")
    except RuntimeError as exc:
        assert (ending, str(exc)) == ("raise", "after the moves")
        assert ledger.pending == logged
        rec = None
    else:
        assert_matches_oracle(submit.checked)
        assert ledger.pending == logged + [rec] and rec.tx_id == logged[-1].tx_id + 1
        if rec.status == "success":
            assert ending == "success"
            return
        assert rec.reason == "insufficient-balance" or (ending, rec.reason) == ("revert", "after-the-moves")
    assert ledger.state_digest() == digest
    assert [ledger.balance(a) for a in accounts] == balances
    assert storage["tallies"] == {0: tally} and storage["tallies"][0] is tally and (tally.count, tally.note) == (0, "a")
    assert storage["tags"] is tags and tags["x"] is tag_x and tags["y"] is tag_y
    assert (tag_x.n, tag_x.cell, tag_y.n, tag_y.cell) == (1, (1,), 2, (2,))
    assert ledger.submit(accounts[1], "next").tx_id == logged[-1].tx_id + 1 + (rec is not None)  # dense tx ids
