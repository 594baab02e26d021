"""Versioned, canonical serialization of every exported artifact.

File kinds and extensions:

    *.scenario.json   run configuration
    *.chain.jsonl     block log, header line then one block per line
    *.state.json      full state snapshot (checkpoint/resume), header line
                      then the same block lines
    *.metrics.json    run metrics

Both files store each block's hashed bytes as they are (Block.line) and
read them back through one reader (Block.from_line). The reader hands out
blocks one line at a time: restore and read_chain_jsonl keep them all,
while verify_chain_file decodes one block at a time, checks it and drops
it, and still refuses any line that does not read as a block.

Snapshots are canonical: the same state always produces the same bytes
(sorted keys, currency as decimal strings, digests as hex). A state
snapshot holds only what the chain cannot give: the scenario, the tick and
clock, each reporter's cell and replay memory, the RNG and the chain, plus
the account balances as a cross-check and the chain's head hash. Restore
checks every hash and link and the head, then re-applies the chain
(Ledger.apply_log): it must open with the genesis the scenario's world
writes and have dense tx ids, and its timestamps must be ints that never
run back and end at or before the header's clock, the time of the tick
before its tick. A revert or view that writes, moves or emits is refused;
each success passes submit's entry checks and its op's own, then its fold
writes through the op's writers. In both paths balances change only
through transfer: logged balanceDeltas are checked against the transfers,
never applied, each payload against the fold's, by type too, and events
against those the writers emit. Taken as given is what only re-computation
could check: a plan's fee, congestion and deconfliction, a settled plan's
route, a report's RID verification and verdict, a completion's ridVc match,
view payloads, a success's stateWrites, and a revert's reason.
Active plans are rebuilt from their requests (build_live_plans), and the
agents learn the rest of their memory as a live world does (World.learn).
The writer is the one definition of a header: restore accepts a state
header, and read_chain_jsonl a chain header, only if it is byte for byte
the line this code writes back. Mission nonces, the one secret in the
system, follow from the scenario seed and are in no file; shareable
exports (plan tables, registry) exclude them too.
"""

from __future__ import annotations

import collections
import json
from collections.abc import Iterable, Iterator
from pathlib import Path
from typing import Any

from .ledger import GENESIS_PREV_HASH, Block, ContractRevert, Ledger, LedgerError, canonical_json, verify_blocks
from .rid import RID_WIRE_LEN
from .sim import RunMetrics, Scenario, World

SCHEMA = {"major": 1, "minor": 0}        # chain and events logs
STATE_SCHEMA = {"major": 4, "minor": 0}  # 4.0: a header line, then the chain's block lines
MAX_REWARDS = MAX_PENALTIES = MAX_MISSIONS = 50  # the reputation surface's [0, 50]^2 grid, the fee curve's 0..50 missions
_CHAIN_HEADER = {"schema": SCHEMA, "kind": "chain"}


class SchemaMismatch(ValueError):
    """File declares a schema major version this code does not read."""


class CorruptPayload(ValueError):
    """File bytes do not decode to the declared structure."""


def _require_written(kind: str, line: bytes, header: dict[str, Any], written: dict[str, Any]) -> None:
    """Refuse a header line that is not byte for byte the line this code writes for what was read from the file."""
    if line != canonical_json(written):
        items = [{(k, canonical_json(v)) for k, v in d.items()} for d in (header, written)]  # the keys whose bytes differ
        differ = sorted({k for k, _ in items[0] ^ items[1]}) or "its layout"
        raise CorruptPayload(f"{kind} header is not the one this code writes: {differ} differs")


# -- scenarios --------------------------------------------------------------

def load_scenario(path: str | Path) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    return Scenario.from_dict(data)


# -- chain log ---------------------------------------------------------------

def _block_log(header: dict[str, Any], blocks: list[Block]) -> bytes:
    # the empty last part ends the log with a newline inside the one join, not in a second full-size copy
    return b"\n".join([canonical_json(header), *(b.line() for b in blocks), b""])


def _read_block(line: bytes) -> Block:
    try:
        return Block.from_line(line)
    except (KeyError, TypeError, ValueError, RecursionError) as exc:  # RecursionError: JSON nested too deep
        raise CorruptPayload(f"bad block line: {exc}") from None


def _read_block_log(raw: bytes, kind: str, schema: dict[str, int]) -> tuple[bytes, dict[str, Any], Iterator[Block]]:
    """The header line of a chain log or state snapshot, its value, and an iterator of its blocks, each line read by
    Block.from_line when it is reached, so a caller that keeps no block holds one decoded block at a time.

    Only the final newline may end an empty line; any other blank or whitespace-only line is refused.
    """
    lines = raw.split(b"\n")
    if lines[-1] == b"":
        lines.pop()
    if not lines:
        raise CorruptPayload(f"empty {kind} file")
    if blank := next((i for i, ln in enumerate(lines, 1) if not ln.strip()), None):
        raise CorruptPayload(f"blank line {blank} in {kind} file")
    try:
        header = json.loads(lines[0])
    except (ValueError, RecursionError) as exc:  # not JSON, not UTF-8, or nested too deep
        raise CorruptPayload(f"bad {kind} header: {exc}") from None
    if not isinstance(header, dict) or not isinstance(header.get("schema"), dict):
        raise CorruptPayload(f"missing schema header in {kind} payload")
    if header["schema"].get("major") != schema["major"]:
        raise SchemaMismatch(f"unsupported major version {header['schema']!r}")
    if header.get("kind") != kind:
        raise CorruptPayload(f"expected kind {kind!r}, found {header.get('kind')!r}")
    if kind == "chain" and len(lines) == 1:  # every chain a run writes opens with its genesis block
        raise CorruptPayload("no block in chain file")
    return lines[0], header, map(_read_block, lines[1:])


def write_chain_jsonl(path: str | Path, blocks: list[Block]) -> None:
    Path(path).write_bytes(_block_log(_CHAIN_HEADER, blocks))


def read_chain_jsonl(path: str | Path) -> list[Block]:
    line, header, blocks = _read_block_log(Path(path).read_bytes(), "chain", SCHEMA)
    blocks = list(blocks)
    _require_written("chain", line, header, _CHAIN_HEADER)
    return blocks


def write_events_jsonl(path: str | Path, blocks: list[Block]) -> None:
    events = (canonical_json({**event, "txId": tx.tx_id})
              for block in blocks for tx in block.transactions for event in tx.events)
    # the empty last part ends the log with a newline inside the one join, as in _block_log
    Path(path).write_bytes(b"\n".join([canonical_json({"schema": SCHEMA, "kind": "events"}), *events, b""]))


# -- metrics and plot-ready CSV ----------------------------------------------

def write_metrics(path: str | Path, metrics: RunMetrics) -> None:
    Path(path).write_bytes(canonical_json(metrics.to_dict()) + b"\n")


def _write_csv(path: str | Path, header: str, rows: Iterable[str]) -> None:
    """Write formatted rows with csv.writer's CRLF line ends, streamed so no copy of the whole file is held.

    Every field is an int or lowercase hex, which csv.writer never quotes, so a row is its fields joined by commas.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(header + "\r\n")
        fh.writelines(row + "\r\n" for row in rows)


def write_trace_csv(path: str | Path, world: World) -> None:
    rows = (f"{tick},{drone_id},{lat},{lon},{broadcast}" for tick, drone_id, lat, lon, broadcast in world.trace)
    _write_csv(path, "tick,droneId,cellLat,cellLon,broadcast", rows)


def write_reputation_surface_csv(path: str | Path) -> None:
    """The surface in one pass and one write: its 2,601 rows are 40 KB, so holding them costs nothing."""
    from .economics import reputation

    rows = [f"{r},{p},{reputation(r, p)}\r\n" for r in range(MAX_REWARDS + 1) for p in range(MAX_PENALTIES + 1)]
    Path(path).write_bytes("".join(["rewards,penalties,reputationMicro\r\n", *rows]).encode())


def write_congestion_fee_csv(path: str | Path, scenario: Scenario) -> None:
    from .economics import congestion_surcharge, dynamic_fee, INITIAL_K_MICRO

    fp = scenario.fee_params
    surcharges = (congestion_surcharge(n, fp.surcharge_per_mission) for n in range(MAX_MISSIONS + 1))
    rows = (f"{n},{dynamic_fee(INITIAL_K_MICRO, fp.base_cost, fp.deposit, s)}" for n, s in enumerate(surcharges))
    _write_csv(path, "activeMissions,fee", rows)


# -- state snapshots -----------------------------------------------------------

def account_table(ledger: Ledger) -> list[dict[str, str]]:
    """Every account's id, role and balance (a decimal string), sorted by id."""
    return [
        {"id": a.id, "role": a.role, "balance": str(a.balance)}
        for a in sorted(ledger.accounts.values(), key=lambda a: a.id)
    ]


def snapshot_world(world: World) -> bytes:
    """Canonical bytes for a sealed world, a header line then its block lines; requires no pending txs and, as restore does,
    the clock World.step leaves: the time of the tick before its tick."""
    if world.ledger.pending:
        raise ValueError("seal pending transactions before snapshotting")
    if world.ledger.clock != max(world.tick - 1, 0) * world.scenario.tick_seconds:
        raise ValueError(f"clock {world.ledger.clock} is not the time of the tick before tick {world.tick}")
    return _block_log(_state_header(world), world.ledger.blocks)


def _state_header(world: World) -> dict[str, Any]:
    """The one definition of a snapshot's header: snapshot_world writes it, and restore_world accepts only it."""
    ledger = world.ledger
    rng_state = world.rng.getstate()
    return {
        "schema": STATE_SCHEMA,
        "kind": "state",
        "scenario": world.scenario.to_dict(),
        "tick": world.tick,
        "clock": ledger.clock,
        "accounts": account_table(ledger),
        "reporters": [
            {"name": r.spec.name, "cell": list(r.cell), "heard": {str(k): [v[0], v[1]] for k, v in r.heard.items()}}
            for r in world.reporters
        ],
        "rng": [rng_state[0], list(rng_state[1]), rng_state[2]],
        "head": ledger.chain_head_hex(),
    }


def restore_world(payload: bytes) -> World:
    """Rebuild a world from snapshot bytes; refuses a broken chain and any header the world would not write back."""
    line, header, blocks = _read_block_log(payload, "state", STATE_SCHEMA)
    blocks = list(blocks)
    ok, bad_index = verify_blocks(blocks)
    if not ok:
        raise CorruptPayload(f"snapshot chain broken at block {bad_index}")
    if header.get("head") != (blocks[-1].hash if blocks else GENESIS_PREV_HASH).hex():
        raise CorruptPayload("snapshot chain does not end at the header's head")
    try:
        world = _rebuild(header, blocks)
    except (AttributeError, KeyError, IndexError, TypeError, ValueError, ContractRevert, LedgerError) as exc:
        if isinstance(exc, (SchemaMismatch, CorruptPayload)):
            raise
        raise CorruptPayload(f"snapshot structure invalid: {exc}") from None
    _require_written("state", line, header, _state_header(world))
    return world


def _rebuild(data: dict[str, Any], blocks: list[Block]) -> World:
    """The scenario's world with its chain folded in and learned and its reporters loaded; checks what no round trip sees."""
    scenario = Scenario.from_dict(data["scenario"])
    tick, clock = data["tick"], data["clock"]
    if type(tick) is not int or not 0 <= tick <= scenario.duration_ticks or type(clock) is not int \
            or clock != max(tick - 1, 0) * scenario.tick_seconds:  # a live world's clock reads its last tick's time
        raise CorruptPayload(f"tick {tick!r} or clock {clock!r} out of range, or not the time of the tick before")
    world = World.deployed(scenario)
    world.ledger.apply_log(blocks)
    if clock < world.ledger.clock:  # apply_log leaves the clock at the last record's time
        raise CorruptPayload(f"clock {clock} is before the last record's timestamp {world.ledger.clock}")
    world.uss.build_live_plans()
    world.ledger.clock = clock
    world.learn()
    for rep, saved in zip(world.reporters, data["reporters"], strict=True):  # by position; the round trip checks each name
        rep.cell = tuple(saved["cell"])
        rep.heard = {int(k): (rid_hex, heard_tick) for k, (rid_hex, heard_tick) in saved["heard"].items()}
        ints = {type(x) for x in (*rep.cell, *(heard_tick for _, heard_tick in rep.heard.values()))}
        wires = all(type(h) is str and len(h) == 2 * RID_WIRE_LEN and bytes.fromhex(h).hex() == h for h, _ in rep.heard.values())
        if len(rep.cell) != 2 or ints != {int} or not scenario._cell_in_grid(rep.cell) or not wires:
            raise CorruptPayload(f"reporter {rep.spec.name!r}: cell off the grid, tick not an int or broadcast not wire hex")
    world.tick = tick
    world.rng.setstate(_rng_state(data["rng"]))
    return world


def _rng_state(rng: Any) -> tuple[int, tuple[int, ...], None]:
    """random.Random state from the header's [3, [624 words in [0, 2**32), a position in [0, 624]], null]."""
    version, words, gauss = rng if type(rng) is list and len(rng) == 3 else (None, None, None)
    if not (type(version) is int and version == 3 and gauss is None and type(words) is list and len(words) == 625
            and all(type(w) is int for w in words) and all(0 <= w < 2**32 for w in words[:624])
            and 0 <= words[624] <= 624):
        raise CorruptPayload("rng state is not [3, [624 words in [0, 2**32), a position in [0, 624]], null]")
    return version, tuple(words), None


def verify_chain_file(path: str | Path) -> tuple[bool, int | None]:
    """Check a chain log's hashes and links, decoding one block at a time; refuses, as read_chain_jsonl does, a log with
    no block, any line that does not read as a block (also after a broken link) or a header this code does not write."""
    line, header, blocks = _read_block_log(Path(path).read_bytes(), "chain", SCHEMA)
    verdict = verify_blocks(blocks)
    collections.deque(blocks, maxlen=0)  # read the lines after a broken link too
    _require_written("chain", line, header, _CHAIN_HEADER)
    return verdict
