"""Single-node permissioned ledger with revert semantics and a hash chain.

Every state mutation goes through submit() as a caller-attributed
transaction. Operations either succeed or revert; a revert rolls back
all state and value changes and is still recorded in the log. Pending
transactions are batched into blocks whose SHA-256 hashes chain back to
an all-zero genesis parent, so any byte of recorded history can be
checked after the fact. A block's transactions are JSON-encoded once,
at seal (Block.body); the hash covers those bytes, and files store them.
Every dict a record logs is built in key order, for speed only: the
encoder's per-dict sort then finds one run, and the format still comes
from its sort_keys, whatever order a caller builds args in.

State changes are tracked by an undo journal. Contract storage is dicts,
each a key -> slot map, as Ethereum's is. Before a contract changes a
slot (a registry record, a root scalar, the next sighting) it calls
Ledger.touch(container, key). A slot holds a scalar or a dataclass
record; the first touch in a transaction keeps its value and a record's
field values, and touching any other value raises TypeError. A revert,
or any other exception out of an operation, puts each touched slot's
own object back in reverse order, with those field values; a success
meters `stateWrites` from the touched slots alone, so a transaction's
cost does not grow with the state. A new or deleted slot counts whole,
a changed one by its fields that differ. A record counts its declared
fields only (a cached_property is not state), 1 per scalar and 1 per
item of a tuple, unless its type declares a leaf_count() (uss.Mission
and uss.MissionPlan do). Balances change only through transfer(), which
journals nothing: a transaction's net move per account is undone by
subtraction, logged as its `balanceDeltas`, and metered as one write
per account it moved.
An operation and its fold take the logged transaction record and never
change it; writers emit its events. An operation without a fold is a
view: it opens no journal and may not touch anything. Restore (apply_log)
runs each success through submit's entry checks, then its fold, and
checks its logged `balanceDeltas` and events, never adds them.

Caller authenticity is modeled by trusted attribution (the `signature`
field on each record is a hook, not a scheme). Timestamps come from the
simulation clock. There is no consensus and no mining: determinism is
the point, it is what makes the protocol logic testable against
independent oracles.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import operator
import re
from collections.abc import Iterable
from dataclasses import dataclass, field
from json.encoder import c_make_encoder, encode_basestring_ascii
from typing import Any, Callable

AccountId = str

ROLES = ("operator", "reporter", "uss", "authority")
GENESIS_PREV_HASH = b"\x00" * 32
GENESIS_CALLER = "0x" + "00" * 20

REASON_UNKNOWN_OPERATION = "unknown-operation"
REASON_INSUFFICIENT_BALANCE = "insufficient-balance"
REASON_NOT_PAYABLE = "not-payable"
REASON_INVALID_ARG = "invalid-arg"  # logged as "invalid-arg:<field>"


class LedgerError(Exception):
    pass


class UnknownAccount(LedgerError):
    pass


class InsufficientBalance(LedgerError):
    reason = REASON_INSUFFICIENT_BALANCE


class ContractRevert(Exception):
    """Abort the current operation; submit() records the reason and rolls back."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


# JSONEncoder.encode builds a C encoder on every call; this is the one it would build, made once
_CANONICAL = c_make_encoder(markers=None, default=json.JSONEncoder().default, encoder=encode_basestring_ascii, indent=None,
                            key_separator=":", item_separator=",", sort_keys=True, skipkeys=False, allow_nan=True)


def canonical_json(obj: Any) -> bytes:
    """The one serialization used for hashing: json.dumps(obj, sort_keys=True, separators=(",", ":")), as UTF-8 bytes.

    Every call goes through one C encoder built at import. obj must be a tree: there is no cycle check, so a value
    that contains itself raises RecursionError; a value json cannot encode (bytes, a dataclass) raises TypeError.
    """
    return "".join(_CANONICAL(obj, 0)).encode("utf-8")


_SCALAR_TYPES = frozenset((int, str, bytes, float, type(None), bool))


def same_fields(logged: Any, expected: dict[str, Any]) -> bool:
    """logged == expected, each top-level value also of expected's type (1500.0 is not 1500, nor True 1)."""
    if logged != expected:
        return False
    for key, value in expected.items():
        if type(logged[key]) is not type(value):
            return False
    return True


@functools.cache
def _field_names(cls: type) -> tuple[str, ...] | None:
    """Field names of a dataclass type, None for any other type."""
    return tuple(f.name for f in dataclasses.fields(cls)) if dataclasses.is_dataclass(cls) else None


@functools.cache
def _field_values(cls: type) -> Callable[[Any], tuple] | None:
    """For a dataclass type, instance -> its declared field values as a tuple; None for any other type.

    Read by name: reading obj.__dict__ would make CPython build and keep a dict on each instance.
    """
    names = _field_names(cls)
    if names is None:
        return None
    return operator.attrgetter(*names) if len(names) > 1 else lambda obj: tuple(getattr(obj, n) for n in names)


def _state_value(obj: Any) -> Any:
    """state_digest's JSON of a dataclass (its declared fields) and of bytes (hex); canonical_json refuses both."""
    names = _field_names(type(obj))
    if names is None and not isinstance(obj, bytes):
        raise TypeError(f"{type(obj).__name__} is not contract state")
    return obj.hex() if names is None else {name: getattr(obj, name) for name in names}


_STATE_JSON = json.JSONEncoder(sort_keys=True, separators=(",", ":"), check_circular=False, default=_state_value)


def _fields(obj: Any) -> tuple:
    """A record's declared field values; TypeError for a value that is neither a scalar nor a dataclass record."""
    fields_of = _field_values(type(obj))
    if fields_of is None:
        raise TypeError(f"a storage slot holds a scalar or a dataclass record, not {type(obj).__name__}")
    return fields_of(obj)


def count_leaves(obj: Any) -> int:
    """A slot value's leaves: 1 for a scalar; a record's leaf_count() if it declares one, else 1 per scalar field and 1
    per item of a tuple field (1 if empty)."""
    if type(obj) in _SCALAR_TYPES:
        return 1
    if (own := getattr(obj, "leaf_count", None)) is not None:
        return own()
    values = _fields(obj)
    if _SCALAR_TYPES.issuperset(map(type, values)):  # all scalars: one C-level test
        return len(values)
    return sum(map(_field_leaves, values))


def _field_leaves(value: Any) -> int:
    if type(value) in _SCALAR_TYPES:
        return 1
    return len(value) or 1 if type(value) is tuple else count_leaves(value)


def _fields_diff(before: tuple, after: tuple) -> int:
    """Leaves that differ between two records' field values. A field that is the same object is skipped, a tuple is
    compared item by item, and a field whose type changed, or that holds a record, counts whole on both sides."""
    total = 0
    for old, new in zip(before, after):
        if old is new:
            continue
        if type(old) is type(new) and type(old) in _SCALAR_TYPES:
            total += old != new
        elif type(old) is type(new) is tuple:  # items are scalars: one whose type changed counts on both sides
            total += abs(len(old) - len(new)) + sum(2 if type(a) is not type(b) else a != b for a, b in zip(old, new))
        else:
            total += _field_leaves(old) + _field_leaves(new)
    return total


_ABSENT = object()  # journal value of a slot that does not exist

# (id(container), key) -> (container, key, value in the slot before the transaction, a record's field values then)
_Journal = dict[tuple[int, Any], tuple[Any, Any, Any, tuple | None]]


@dataclass
class Account:
    id: AccountId
    role: str
    balance: int


@dataclass
class TransactionRecord:
    tx_id: int
    caller: AccountId
    op: str
    args: dict[str, Any]
    value: int
    timestamp: int
    status: str = "success"          # "success" | "revert"
    payload: Any = None
    reason: str | None = None
    state_writes: int = 0
    balance_deltas: dict[AccountId, int] = field(default_factory=dict)
    events: list[dict[str, Any]] = field(default_factory=list)
    signature: str | None = None     # authenticated-channel hook, unused

    def to_dict(self) -> dict[str, Any]:
        return {"args": self.args, "balanceDeltas": self.balance_deltas, "caller": self.caller, "events": self.events,
                "op": self.op, "payload": self.payload, "reason": self.reason, "signature": self.signature,
                "stateWrites": self.state_writes, "status": self.status, "timestamp": self.timestamp, "txId": self.tx_id,
                "value": self.value}

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "TransactionRecord":
        return cls(d["txId"], d["caller"], d["op"], d["args"], d["value"], d["timestamp"], d["status"], d["payload"],
                   d["reason"], d["stateWrites"], d["balanceDeltas"], d["events"], d["signature"])


# a block line (Block.line) is this prefix, then the body, then "}"
_LINE_PREFIX = re.compile(rb'\{"hash":"([0-9a-f]{64})","index":(0|[1-9][0-9]*),"prevHash":"([0-9a-f]{64})","transactions":')


@dataclass
class Block:
    index: int
    prev_hash: bytes
    transactions: list[TransactionRecord]  # the decoded view of body
    hash: bytes
    body: bytes  # canonical JSON of the transactions, encoded once at seal; the hash covers these bytes

    def line(self) -> bytes:
        """The block as one chain-log line: its canonical JSON, built around the body."""
        return b'{"hash":"%b","index":%d,"prevHash":"%b","transactions":%b}' % (
            self.hash.hex().encode(), self.index, self.prev_hash.hex().encode(), self.body)

    @classmethod
    def from_line(cls, line: bytes) -> "Block":
        """Read a line in exactly the layout line() writes, JSON-decoding only the body slice."""
        m = _LINE_PREFIX.match(line)
        if m is None or not line.endswith(b"}"):
            raise ValueError("block line is not in the sealed layout")
        body = line[m.end():-1]
        transactions = [TransactionRecord.from_dict(t) for t in json.loads(body)]
        return cls(int(m[2]), bytes.fromhex(m[3].decode()), transactions, bytes.fromhex(m[1].decode()), body)


def block_digest(index: int, prev_hash: bytes, body: bytes) -> bytes:
    digest = hashlib.sha256(index.to_bytes(8, "big") + prev_hash)
    digest.update(body)
    return digest.digest()


def verify_blocks(blocks: Iterable[Block]) -> tuple[bool, int | None]:
    """Hash every body and check every link of any iterable of blocks, a list or an iterator read once, keeping no
    block but the one it checks; returns (ok, first bad index)."""
    prev = GENESIS_PREV_HASH
    for i, blk in enumerate(blocks):
        if blk.index != i or blk.prev_hash != prev:
            return False, i
        if block_digest(blk.index, blk.prev_hash, blk.body) != blk.hash:
            return False, i
        prev = blk.hash
    return True, None


@dataclass
class _OpSpec:
    fn: Callable[[TransactionRecord], Any]
    args: dict[str, type]
    fold: Callable[[TransactionRecord], Any] | None  # None: the op is a view
    receiver: AccountId | None  # the account that an attached value goes to; None: the op is not payable


def _deltas(moves: dict[AccountId, int]) -> dict[AccountId, int]:
    """A transaction's balanceDeltas: its net move per account, sorted by account, zeros dropped."""
    return {account: moves[account] for account in sorted(moves) if moves[account]}


class Ledger:
    """Transaction application over accounts and contract state.

    Contracts keep their storage in plain dicts attached with
    attach_storage(), and call touch() before each write so that
    submit() can undo or meter it. Outside submit() (setup, restore,
    tests) touch() is a no-op.
    """

    def __init__(self):
        self.clock: int = 0
        self.accounts: dict[AccountId, Account] = {}
        self.blocks: list[Block] = []
        self.pending: list[TransactionRecord] = []
        self._storages: dict[str, dict[str, Any]] = {"accounts": self.accounts}
        self._ops: dict[str, _OpSpec] = {}
        self._account_counter = 0
        self._tx_counter = 0
        self._event_buffer: list[dict[str, Any]] = []
        self._journal: _Journal | None = None  # open only while a state-changing op runs
        self._view_running = False
        self._moves: dict[AccountId, int] | None = None  # account -> net transfer of the running transaction

    # -- accounts ---------------------------------------------------------

    def create_account(self, role: str, balance: int = 0) -> AccountId:
        if role not in ROLES:
            raise ValueError(f"unknown role {role!r}")
        if balance < 0:
            raise ValueError("opening balance must be non-negative")
        digest = hashlib.sha256(f"account-{self._account_counter}".encode()).digest()
        self._account_counter += 1
        account_id = "0x" + digest[:20].hex()
        self.accounts[account_id] = Account(account_id, role, balance)
        return account_id

    def account(self, account_id: AccountId) -> Account:
        try:
            return self.accounts[account_id]
        except KeyError:
            raise UnknownAccount(account_id) from None

    def balance(self, account_id: AccountId) -> int:
        return self.account(account_id).balance

    def total_supply(self) -> int:
        return sum(a.balance for a in self.accounts.values())

    def transfer(self, src: AccountId, dst: AccountId, amount: int) -> None:
        if amount < 0:
            raise ValueError("amount must be non-negative")
        src_acc, dst_acc = self.account(src), self.account(dst)
        if self._view_running:
            raise LedgerError("view operation tried to move money")
        if src_acc.balance < amount:
            raise InsufficientBalance(f"{src} holds {src_acc.balance}, needs {amount}")
        src_acc.balance -= amount
        dst_acc.balance += amount
        moves = self._moves
        if moves is not None:
            moves[src] = moves.get(src, 0) - amount
            moves[dst] = moves.get(dst, 0) + amount

    # -- contract wiring --------------------------------------------------

    def attach_storage(self, name: str, storage: dict[str, Any]) -> None:
        if name in self._storages:
            raise ValueError(f"storage {name!r} already attached")
        self._storages[name] = storage

    def register_op(
        self,
        name: str,
        fn: Callable[[TransactionRecord], Any],
        *,
        args: dict[str, type] | None = None,
        fold: Callable[[TransactionRecord], Any] | None = None,
        receiver: AccountId | None = None,
    ) -> None:
        """Register `fn` as operation `name`; `args` declares its arguments, name -> int, str or bool.

        submit() reverts a call whose declared argument is missing or not exactly
        of its type (a bool is not an int) with "invalid-arg:<name>" before `fn` runs.
        An op with a `receiver` is payable: submit() moves an attached value to that account. submit() calls `fn(tx)`
        on the record it logs; apply_log runs the entry checks on a logged success, then `fold(tx)`: fn's own checks
        and writers (fn itself, if it needs nothing from the log), returning fn's payload or the logged one it takes
        as given. Both read the record (caller, args, value) and never change it. An op without a fold is a view.
        """
        if name in self._ops:
            raise ValueError(f"operation {name!r} already registered")
        self._ops[name] = _OpSpec(fn, args or {}, fold, receiver)

    def touch(self, container: dict, key: Any) -> None:
        """Declare that the running transaction is about to change container[key].

        Call before every write to the entry: assignment (of a new key
        too), deletion, or in-place change of the value. The slot holds a
        scalar or a dataclass record, and a revert puts its own object back,
        with the field values it had then; any other value raises TypeError.

        A write may change a record's own fields in place, or replace or
        delete the value. A field that holds another record (a mission's
        plan) is replaced, never changed in place, and then counts whole on
        both sides; one that holds a container (a mission's report_counts)
        keeps it, and its entries are touched as slots of their own. A
        replaced or deleted record is metered against an instance built
        from its kept field values, so its class has init fields only, no
        __post_init__.
        """
        if self._view_running:
            raise LedgerError("view operation tried to change storage")
        journal = self._journal
        if journal is None:
            return
        slot = (id(container), key)
        if slot not in journal:
            old = container.get(key, _ABSENT)
            journal[slot] = (container, key, old, None if old is _ABSENT or type(old) in _SCALAR_TYPES else _fields(old))

    def emit(self, name: str, **args: Any) -> None:
        """Record an event against the transaction currently executing; a view may not emit."""
        if self._view_running:
            raise LedgerError("view operation tried to emit an event")
        self._event_buffer.append({"args": args, "name": name})

    # -- transactions -----------------------------------------------------

    def genesis(self, note: str = "") -> TransactionRecord:
        """Record the opening balances as the first log entry.

        Makes metrics and conservation checks recomputable from the
        block log alone; this is the only entry not attributed to a
        real account.
        """
        if self._tx_counter != 0:
            raise LedgerError("genesis must be the first transaction")
        rec = TransactionRecord(
            tx_id=self._next_tx_id(),
            caller=GENESIS_CALLER,
            op="genesis",
            args={
                "accounts": [
                    {"balance": a.balance, "id": a.id, "role": a.role}
                    for a in sorted(self.accounts.values(), key=lambda a: a.id)
                ],
                "note": note,
            },
            value=0,
            timestamp=self.clock,
            payload={"totalSupply": self.total_supply()},
        )
        self.pending.append(rec)
        return rec

    def submit(self, caller: AccountId, op: str, args: dict[str, Any] | None = None, value: int = 0) -> TransactionRecord:
        """Apply one operation atomically and log it as a success or a revert.

        An exception other than a revert rolls the operation back too,
        hands its tx id back and propagates: it is a harness or invariant
        error, so nothing is logged.
        """
        args = dict(args or {})
        self.account(caller)  # unknown callers are a harness bug, not a revert
        if value < 0:
            raise ValueError("value must be non-negative")
        rec = TransactionRecord(
            tx_id=self._next_tx_id(),
            caller=caller,
            op=op,
            args=args,
            value=value,
            timestamp=self.clock,
        )
        spec = self._ops.get(op)
        self._view_running = spec is not None and spec.fold is None
        journal = self._journal = None if self._view_running else {}
        moves = self._moves = {}
        self._event_buffer = []
        try:
            self._admit(spec, rec)
            rec.payload = spec.fn(rec)
            if journal:  # a slot value the meter cannot count raises TypeError, and rolls back as any error does
                self._meter(rec, journal)
        except (ContractRevert, InsufficientBalance) as exc:
            self._undo(journal, moves)
            rec.status, rec.reason, rec.payload = "revert", exc.reason, None
        except BaseException:
            self._undo(journal, moves)
            self._tx_counter -= 1
            raise
        else:
            if moves:  # an account's one changing field is its balance, written where the net move is not 0
                rec.balance_deltas = _deltas(moves)
                rec.state_writes += len(rec.balance_deltas)
            rec.events = self._event_buffer
        finally:
            self._journal, self._view_running, self._moves, self._event_buffer = None, False, None, []
        self.pending.append(rec)
        return rec

    def _admit(self, spec: _OpSpec | None, tx: TransactionRecord) -> None:
        """Entry checks of submit and apply_log: a registered op, each arg of its declared type, a value only if payable."""
        if spec is None:
            raise ContractRevert(REASON_UNKNOWN_OPERATION)
        for name, kind in spec.args.items():
            if type(tx.args.get(name)) is not kind:
                raise ContractRevert(f"{REASON_INVALID_ARG}:{name}")
        if tx.value > 0:
            if spec.receiver is None:
                raise ContractRevert(REASON_NOT_PAYABLE)
            self.transfer(tx.caller, spec.receiver, tx.value)

    def _next_tx_id(self) -> int:
        tx_id = self._tx_counter
        self._tx_counter += 1
        return tx_id

    def _undo(self, journal: _Journal | None, moves: dict[AccountId, int]) -> None:
        """Subtract each net move, then put each touched slot's own object back, a record with its field values then."""
        for account, move in moves.items():
            self.accounts[account].balance -= move
        for container, key, old, fields in reversed(journal.values() if journal else ()):
            if old is _ABSENT:
                container.pop(key, None)
                continue
            container[key] = old
            if fields is not None:
                for name, value in zip(_field_names(type(old)), fields):
                    if getattr(old, name) is not value:  # a frozen instance never differs
                        setattr(old, name, value)

    def _meter(self, rec: TransactionRecord, journal: _Journal) -> None:
        writes = 0
        for container, key, old, fields in journal.values():
            new = container.get(key, _ABSENT)  # the slot read as touch reads it
            if type(new) is type(old):  # changed or not: a scalar compared (two _ABSENTs are equal), a record by fields
                writes += (old != new) if fields is None else _fields_diff(fields, _fields(new))
                continue
            if old is not _ABSENT:  # deleted, or its type changed: the old value counts whole, a record from its fields
                writes += 1 if fields is None else count_leaves(type(old)(*fields))
            if new is not _ABSENT:  # new, or its type changed: the new value counts whole
                writes += count_leaves(new)
        rec.state_writes += writes

    # -- blocks -----------------------------------------------------------

    def seal_block(self) -> Block:
        if not self.pending:
            raise LedgerError("no pending transactions to seal")
        index = len(self.blocks)
        prev = self.blocks[-1].hash if self.blocks else GENESIS_PREV_HASH
        body = canonical_json([t.to_dict() for t in self.pending])
        block = Block(index, prev, self.pending, block_digest(index, prev, body), body)
        self.blocks.append(block)
        self.pending = []
        return block

    def apply_log(self, blocks: list[Block]) -> None:
        """Take sealed blocks that open with the pending genesis and have dense tx ids as this ledger's chain, and re-apply it.

        Each success runs at its logged time through submit()'s entry checks, then its op's fold; the clock is left at
        the last record's time. LedgerError refuses a record submit never logs (a timestamp not an int or running back,
        a status not "success" or "revert", an unknown caller, a value or stateWrites not an int >= 0, a signature not
        null, a success with a reason, a revert or view that writes, moves or emits, a revert with a payload or no str
        reason), and a success a check reverts (naming its reason) or whose balanceDeltas, payload (by type too) or
        events (by value) are not its fold's.
        """
        records = [tx for block in blocks for tx in block.transactions]
        if [tx.to_dict() for tx in records[:1]] != [tx.to_dict() for tx in self.pending]:
            raise LedgerError("chain does not open with this ledger's genesis")
        if any(tx.tx_id != i for i, tx in enumerate(records)):
            raise LedgerError("chain tx ids are not dense")
        self.blocks, self.pending, self._tx_counter = blocks, [], len(records)
        ops, accounts = self._ops, self.accounts
        for before, tx in zip(records, records[1:]):
            if type(tx.timestamp) is not int or tx.timestamp < before.timestamp:
                raise LedgerError(f"tx {tx.tx_id} logs timestamp {tx.timestamp!r}, not an int at or after {before.timestamp}")
            self.clock = tx.timestamp
            spec, value, deltas, writes, events = ops.get(tx.op), tx.value, tx.balance_deltas, tx.state_writes, tx.events
            if tx.status not in ("success", "revert") or tx.caller not in accounts or type(value) is not int or value < 0 \
                    or type(writes) is not int or writes < 0 or tx.signature is not None \
                    or tx.status == "success" and tx.reason is not None:
                raise LedgerError(f"tx {tx.tx_id} logs {tx.status!r} for {tx.op!r} by {tx.caller!r} with value {value!r}, "
                                  f"stateWrites {writes!r}, reason {tx.reason!r} or signature {tx.signature!r}: "
                                  "not a record submit logs")
            if tx.status == "revert" or spec is not None and spec.fold is None:  # writes, moves, emits nothing
                if (writes, deltas, events) != (0, {}, []) or tx.status == "revert" and (
                        tx.payload is not None or type(tx.reason) is not str):
                    raise LedgerError(f"tx {tx.tx_id} ({tx.op}) logs a {'revert' if tx.status == 'revert' else 'view'} that "
                                      "writes, moves or emits, or a revert with a payload or a reason not a str")
                if tx.status == "revert" or not value:
                    continue  # a revert's reason and a view's payload are taken as given
            moves, emitted = self._moves, self._event_buffer = {}, []
            try:
                self._admit(spec, tx)
                payload = tx.payload if spec.fold is None else spec.fold(tx)
            except (ContractRevert, InsufficientBalance) as exc:
                raise LedgerError(f"tx {tx.tx_id} ({tx.op}) logs a success that its op reverts: {exc.reason}") from None
            if not (same_fields(deltas, moves) or same_fields(deltas, _deltas(moves))) \
                    or payload is not tx.payload and not same_fields(tx.payload, payload):
                raise LedgerError(f"tx {tx.tx_id} ({tx.op}) logs a payload or balanceDeltas that its op does not give")
            if events != emitted:
                raise LedgerError(f"tx {tx.tx_id} ({tx.op}) logs events that its writers do not emit")
        self._moves, self._event_buffer = None, []

    def verify_chain(self) -> bool:
        ok, _ = verify_blocks(self.blocks)
        return ok

    def chain_head_hex(self) -> str:
        return self.blocks[-1].hash.hex() if self.blocks else GENESIS_PREV_HASH.hex()

    def state_digest(self) -> str:
        """Hash of all contract state (log excluded); replay comparator."""
        return hashlib.sha256(_STATE_JSON.encode(self._storages).encode("utf-8")).hexdigest()
