import dataclasses
import json
import random

import pytest
from hypothesis import example, given, strategies as st

import oracles
from skyledger.ledger import (
    Block,
    ContractRevert,
    GENESIS_PREV_HASH,
    InsufficientBalance,
    Ledger,
    LedgerError,
    TransactionRecord,
    UnknownAccount,
    canonical_json,
    verify_blocks,
)


def rerun(op):
    """A toy op's fold: its body run again on the logged caller and args."""
    return lambda tx: op(tx.caller, tx.args)


class ToyContract:
    """Minimal op set to exercise submit/revert semantics in isolation."""

    def __init__(self, ledger: Ledger):
        self.ledger = ledger
        self.vault = ledger.create_account("uss")
        self.storage = {"slots": {}}
        ledger.attach_storage("toy", self.storage)
        ledger.register_op("set_slot", self.op_set, fold=rerun(self.op_set), receiver=self.vault)
        ledger.register_op("peek", self.op_peek)
        ledger.register_op("set_then_fail", self.op_set_then_fail, fold=rerun(self.op_set_then_fail))
        ledger.register_op("pay_out", self.op_pay_out, args={"amount": int}, fold=rerun(self.op_pay_out))

    def op_set(self, caller, args):
        self.ledger.touch(self.storage["slots"], args["key"])
        self.storage["slots"][args["key"]] = args["value"]
        self.ledger.emit("SlotSet", key=args["key"])
        return {"key": args["key"]}

    def op_peek(self, caller, args):
        return {"value": self.storage["slots"].get(args["key"])}

    def op_set_then_fail(self, caller, args):
        self.ledger.touch(self.storage["slots"], "poisoned")
        self.storage["slots"]["poisoned"] = True
        raise ContractRevert("toy-failure")

    def op_pay_out(self, caller, args):
        self.ledger.transfer(self.vault, caller, args["amount"])
        return {}


@pytest.fixture
def toy():
    ledger = Ledger()
    contract = ToyContract(ledger)
    alice = ledger.create_account("operator", 1000)
    bob = ledger.create_account("reporter")
    ledger.genesis(note="toy")
    return ledger, contract, alice, bob


class TestAccounts:
    def test_create_account_defaults(self):
        ledger = Ledger()
        acc = ledger.create_account("operator")
        assert ledger.balance(acc) == 0
        assert ledger.account(acc).role == "operator"

    def test_ids_unique(self):
        ledger = Ledger()
        ids = {ledger.create_account("operator") for _ in range(50)}
        assert len(ids) == 50

    def test_uss_role_account(self):
        ledger = Ledger()
        acc = ledger.create_account("uss", 10)
        assert ledger.account(acc).role == "uss"

    def test_unknown_role_rejected(self):
        with pytest.raises(ValueError):
            Ledger().create_account("wizard")

    def test_unknown_account_raises(self):
        with pytest.raises(UnknownAccount):
            Ledger().balance("0x" + "00" * 20)


class TestTransfer:
    def test_zero_amount_is_noop(self, toy):
        ledger, _, alice, bob = toy
        ledger.transfer(alice, bob, 0)
        assert ledger.balance(alice) == 1000
        assert ledger.balance(bob) == 0

    def test_moves_funds(self, toy):
        ledger, _, alice, bob = toy
        ledger.transfer(alice, bob, 5)
        assert ledger.balance(alice) == 995
        assert ledger.balance(bob) == 5

    def test_insufficient(self, toy):
        ledger, _, alice, bob = toy
        with pytest.raises(InsufficientBalance):
            ledger.transfer(bob, alice, 1)

    def test_conservation_over_random_transfers(self, toy):
        ledger, _, alice, bob = toy
        total = ledger.total_supply()
        rng = random.Random(8)
        accounts = list(ledger.accounts)
        for _ in range(500):
            src, dst = rng.choice(accounts), rng.choice(accounts)
            amount = rng.randrange(0, 50)
            try:
                ledger.transfer(src, dst, amount)
            except InsufficientBalance:
                pass
            assert ledger.total_supply() == total


class TestSubmit:
    def test_success_appends_log_with_matching_result(self, toy):
        ledger, _, alice, _ = toy
        before = len(ledger.pending)
        rec = ledger.submit(alice, "set_slot", {"key": "a", "value": 1})
        assert rec.status == "success"
        assert rec.payload == {"key": "a"}
        assert len(ledger.pending) == before + 1
        assert ledger.pending[-1] is rec

    def test_value_over_balance_reverts_unchanged(self, toy):
        ledger, contract, alice, _ = toy
        digest = ledger.state_digest()
        rec = ledger.submit(alice, "set_slot", {"key": "a", "value": 1}, value=10_000)
        assert rec.status == "revert"
        assert rec.reason == "insufficient-balance"
        assert ledger.balance(alice) == 1000
        assert ledger.state_digest() == digest

    def test_unknown_operation_reverts(self, toy):
        ledger, _, alice, _ = toy
        rec = ledger.submit(alice, "no_such_op", {})
        assert rec.status == "revert"
        assert rec.reason == "unknown-operation"

    def test_value_to_non_payable_reverts(self, toy):
        ledger, _, alice, _ = toy
        rec = ledger.submit(alice, "peek", {"key": "a"}, value=1)
        assert (rec.status, rec.reason) == ("revert", "not-payable")

    def test_unknown_caller_is_an_error_not_a_revert(self, toy):
        ledger, _, _, _ = toy
        with pytest.raises(UnknownAccount):
            ledger.submit("0x" + "11" * 20, "peek", {"key": "a"})

    def test_revert_rolls_back_storage_and_value(self, toy):
        ledger, contract, alice, _ = toy
        digest = ledger.state_digest()
        rec = ledger.submit(alice, "set_then_fail", {})
        assert (rec.status, rec.reason) == ("revert", "toy-failure")
        assert "poisoned" not in contract.storage["slots"]
        assert ledger.state_digest() == digest
        assert rec.events == []
        assert rec.balance_deltas == {}

    def test_internal_insufficient_balance_becomes_revert(self, toy):
        ledger, contract, alice, _ = toy
        digest = ledger.state_digest()
        rec = ledger.submit(alice, "pay_out", {"amount": 10**9})
        assert (rec.status, rec.reason) == ("revert", "insufficient-balance")
        assert ledger.state_digest() == digest

    @pytest.mark.parametrize("args", [{}, {"amount": "5"}, {"amount": 5.0}, {"amount": True}, {"amount": None}])
    def test_undeclared_arg_type_reverts_before_the_body(self, toy, args):
        ledger, _, alice, _ = toy
        digest = ledger.state_digest()
        rec = ledger.submit(alice, "pay_out", args)
        assert (rec.status, rec.reason, rec.args) == ("revert", "invalid-arg:amount", args)
        assert ledger.state_digest() == digest
        assert ledger.submit(alice, "pay_out", {"amount": 0}).status == "success"

    def test_events_recorded_on_success(self, toy):
        ledger, _, alice, _ = toy
        rec = ledger.submit(alice, "set_slot", {"key": "k", "value": 2})
        assert rec.events == [{"name": "SlotSet", "args": {"key": "k"}}]

    def test_balance_deltas_sum_to_zero(self, toy):
        ledger, contract, alice, _ = toy
        rec = ledger.submit(alice, "set_slot", {"key": "k", "value": 2}, value=7)
        assert sum(rec.balance_deltas.values()) == 0
        assert rec.balance_deltas[alice] == -7
        assert rec.balance_deltas[contract.vault] == 7

    def test_view_op_has_zero_state_writes(self, toy):
        ledger, _, alice, _ = toy
        rec = ledger.submit(alice, "peek", {"key": "a"})
        assert rec.state_writes == 0

    def test_tx_ids_strictly_increase(self, toy):
        ledger, _, alice, _ = toy
        ids = [ledger.submit(alice, "peek", {"key": "a"}).tx_id for _ in range(5)]
        assert ids == sorted(ids) and len(set(ids)) == 5


class TestBlocks:
    def test_genesis_block_zero_prev(self, toy):
        ledger, _, _, _ = toy
        block = ledger.seal_block()
        assert block.index == 0
        assert block.prev_hash == GENESIS_PREV_HASH

    def test_chain_links(self, toy):
        ledger, _, alice, _ = toy
        b0 = ledger.seal_block()
        ledger.submit(alice, "peek", {"key": "a"})
        b1 = ledger.seal_block()
        assert b1.prev_hash == b0.hash
        assert ledger.verify_chain()

    def test_empty_seal_rejected(self, toy):
        ledger, _, _, _ = toy
        ledger.seal_block()
        with pytest.raises(LedgerError):
            ledger.seal_block()

    def test_digests_match_independent_recomputation(self, toy):
        ledger, _, alice, _ = toy
        for i in range(3):
            ledger.submit(alice, "set_slot", {"key": f"k{i}", "value": i})
            ledger.seal_block()
        dicts = [json.loads(b.line()) for b in ledger.blocks]
        assert oracles.independent_chain_check(dicts)
        for blk in dicts:
            assert oracles.independent_block_digest(blk) == blk["hash"]

    def test_tamper_one_tx_breaks_chain(self, toy):
        ledger, _, alice, _ = toy
        ledger.submit(alice, "set_slot", {"key": "a", "value": 1})
        ledger.seal_block()
        assert ledger.verify_chain()
        line = ledger.blocks[0].line()
        assert line.count(b'"value":1') == 1
        tampered = Block.from_line(line.replace(b'"value":1', b'"value":2'))
        assert tampered.transactions[-1].args["value"] == 2
        assert verify_blocks([tampered]) == (False, 0)
        assert not oracles.independent_chain_check([json.loads(tampered.line())])

    def test_swapped_blocks_detected(self, toy):
        ledger, _, alice, _ = toy
        for i in range(3):
            ledger.submit(alice, "set_slot", {"key": f"k{i}", "value": i})
            ledger.seal_block()
        swapped = [ledger.blocks[0], ledger.blocks[2], ledger.blocks[1]]
        ok, bad = verify_blocks(swapped)
        assert not ok and bad == 1
        assert not oracles.independent_chain_check([json.loads(b.line()) for b in swapped])

    def test_genesis_must_come_first(self):
        ledger = Ledger()
        ToyContract(ledger)
        alice = ledger.create_account("operator", 10)
        ledger.genesis()
        ledger.submit(alice, "peek", {"key": "x"})
        with pytest.raises(LedgerError):
            ledger.genesis()


def test_record_round_trips_through_dict(toy):
    ledger, _, alice, _ = toy
    rec = ledger.submit(alice, "set_slot", {"key": "a", "value": 1}, value=3)
    again = TransactionRecord.from_dict(rec.to_dict())
    assert again == rec
    block = ledger.seal_block()
    assert Block.from_line(block.line()) == block


def test_replay_determinism(toy):
    """The same submission sequence always produces the same chain."""
    rng = random.Random(55)
    script = []
    for _ in range(60):
        script.append(
            (
                rng.choice(["set_slot", "peek", "set_then_fail", "pay_out"]),
                {"key": rng.choice("abc"), "value": rng.randrange(5), "amount": rng.randrange(3)},
                rng.randrange(3),
            )
        )

    def run_script():
        ledger = Ledger()
        ToyContract(ledger)
        alice = ledger.create_account("operator", 1000)
        ledger.genesis(note="replay")
        for op, raw_args, value in script:
            args = {
                "set_slot": {"key": raw_args["key"], "value": raw_args["value"]},
                "peek": {"key": raw_args["key"]},
                "set_then_fail": {},
                "pay_out": {"amount": raw_args["amount"]},
            }[op]
            ledger.submit(alice, op, args, value=value if op == "set_slot" else 0)
        ledger.seal_block()
        return ledger

    one, two = run_script(), run_script()
    assert one.state_digest() == two.state_digest()
    assert [b.hash for b in one.blocks] == [b.hash for b in two.blocks]


def test_atomicity_over_random_interleavings(toy):
    ledger, contract, alice, bob = toy
    rng = random.Random(77)
    supply = ledger.total_supply()
    for _ in range(300):
        digest_before = ledger.state_digest()
        op = rng.choice(["set_then_fail", "bad_op", "overpay"])
        if op == "set_then_fail":
            rec = ledger.submit(alice, "set_then_fail", {})
        elif op == "bad_op":
            rec = ledger.submit(alice, "missing", {})
        else:
            rec = ledger.submit(bob, "set_slot", {"key": "x", "value": 0}, value=10**6)
        assert rec.status == "revert"
        assert ledger.state_digest() == digest_before
        assert ledger.total_supply() == supply
        # interleave a successful write so reverts happen against fresh state
        ledger.submit(alice, "set_slot", {"key": rng.choice("pq"), "value": rng.randrange(9)})


def test_canonical_json_is_sorted_and_compact():
    data = {"b": 1, "a": [1, {"z": 0, "y": None}]}
    assert canonical_json(data) == b'{"a":[1,{"y":null,"z":0}],"b":1}'


@pytest.mark.parametrize(
    "one,other", [({"a": {"b": 1}}, {"a/b": 1}), ({"k": {}}, {"k": "{}"})], ids=["nested-vs-path-key", "empty-vs-text"]
)
def test_state_digest_tells_apart_storages_of_another_shape(one, other):
    digests = []
    for storage in (one, other):
        ledger = Ledger()
        ledger.attach_storage("toy", storage)
        digests.append(ledger.state_digest())
    assert digests[0] != digests[1]


_JSON_LEAVES = st.one_of(
    st.none(),
    st.sampled_from([True, 1, False, 0, 1.0]),  # equal in Python, not in JSON
    st.integers(),
    st.integers(-(2**200), 2**200),  # wider than 64 bits
    st.floats(),
    st.text(),
    st.text("é中😀\u2028\x00\x7f\"\\", max_size=6),  # non-ASCII, control and escaped characters
)
_JSON_TREES = st.recursive(
    _JSON_LEAVES, lambda kids: st.lists(kids, max_size=4) | st.dictionaries(st.text(max_size=4), kids, max_size=4)
)


@given(_JSON_TREES)
@example([True, 1, 1.0, None, {"1": True, "é": 2**64}])
def test_canonical_json_is_json_dumps_sorted_compact_ascii(tree):
    assert canonical_json(tree) == json.dumps(tree, sort_keys=True, separators=(",", ":"), ensure_ascii=True).encode()


@dataclasses.dataclass
class _Point:
    x: int


@pytest.mark.parametrize("leaf", [b"\x01", _Point(1)], ids=["bytes", "dataclass"])
def test_canonical_json_refuses_what_json_cannot_encode(leaf):
    tree = {"a": [1, leaf]}
    with pytest.raises(TypeError) as expected:
        json.dumps(tree, sort_keys=True, separators=(",", ":"))
    with pytest.raises(TypeError) as raised:
        canonical_json(tree)
    assert str(raised.value) == str(expected.value)


def test_canonical_json_refuses_a_value_that_contains_itself():
    loop = [1, {"a": 2}]
    loop.append(loop)
    encoded = None
    with pytest.raises(RecursionError):
        encoded = canonical_json(loop)
    assert encoded is None
