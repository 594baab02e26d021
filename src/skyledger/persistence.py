"""Versioned, canonical serialization of every exported artifact.

File kinds and extensions:

    *.scenario.json   run configuration
    *.chain.jsonl     block log, header line then one block per line
    *.state.json      full state snapshot (checkpoint/resume)
    *.metrics.json    run metrics

Snapshots are canonical: the same state always produces the same bytes
(sorted keys, currency as decimal strings, digests as hex). Mission
nonces are the one secret in the system, so they are XOR-encrypted at
rest with an SHA-256 keystream derived from a scenario-level key;
shareable exports (plan tables, registry) exclude them entirely.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path
from typing import Any

from . import geo
from .authority import DroneRecord
from .economics import ReputationState
from .ledger import Block, canonical_json, verify_blocks
from .sim import RunMetrics, Scenario, World
from .uss import MissionPlan, SightingRecord, Subscription

SCHEMA = {"major": 1, "minor": 0}


class SchemaMismatch(ValueError):
    """File declares a schema major version this code does not read."""


class CorruptPayload(ValueError):
    """File bytes do not decode to the declared structure."""


def _check_header(data: dict[str, Any], kind: str) -> None:
    if not isinstance(data, dict) or not isinstance(data.get("schema"), dict):
        raise CorruptPayload(f"missing schema header in {kind} payload")
    if data["schema"].get("major") != SCHEMA["major"]:
        raise SchemaMismatch(f"unsupported major version {data['schema']!r}")
    if data.get("kind") != kind:
        raise CorruptPayload(f"expected kind {kind!r}, found {data.get('kind')!r}")


# -- scenarios --------------------------------------------------------------

def load_scenario(path: str | Path) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    return Scenario.from_dict(data)


def save_scenario(path: str | Path, scenario: Scenario) -> None:
    Path(path).write_bytes(canonical_json(scenario.to_dict()) + b"\n")


# -- chain log ---------------------------------------------------------------

def write_chain_jsonl(path: str | Path, blocks: list[Block]) -> None:
    lines = [canonical_json({"schema": dict(SCHEMA), "kind": "chain"})]
    lines.extend(canonical_json(b.to_dict()) for b in blocks)
    Path(path).write_bytes(b"\n".join(lines) + b"\n")


def read_chain_jsonl(path: str | Path) -> list[Block]:
    raw = Path(path).read_bytes()
    lines = [ln for ln in raw.split(b"\n") if ln.strip()]
    if not lines:
        raise CorruptPayload("empty chain log")
    try:
        header = json.loads(lines[0])
    except ValueError as exc:  # not JSON, or not UTF-8
        raise CorruptPayload(f"bad chain header: {exc}") from None
    _check_header(header, "chain")
    blocks = []
    for ln in lines[1:]:
        try:
            blocks.append(Block.from_dict(json.loads(ln)))
        except (KeyError, TypeError, ValueError) as exc:
            raise CorruptPayload(f"bad block line: {exc}") from None
    return blocks


def write_events_jsonl(path: str | Path, blocks: list[Block]) -> None:
    lines = [canonical_json({"schema": dict(SCHEMA), "kind": "events"})]
    for block in blocks:
        for tx in block.transactions:
            for event in tx.events:
                lines.append(canonical_json({"txId": tx.tx_id, **event}))
    Path(path).write_bytes(b"\n".join(lines) + b"\n")


# -- metrics and plot-ready CSV ----------------------------------------------

def write_metrics(path: str | Path, metrics: RunMetrics) -> None:
    Path(path).write_bytes(canonical_json(metrics.to_dict()) + b"\n")


def write_trace_csv(path: str | Path, world: World) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["tick", "droneId", "cellLat", "cellLon", "broadcast"])
        for row in world.trace:
            writer.writerow([row.tick, row.drone_id, row.cell[0], row.cell[1], row.broadcast_hex])


def write_reputation_surface_csv(path: str | Path, max_rewards: int = 50, max_penalties: int = 50) -> None:
    from .economics import reputation_surface

    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["rewards", "penalties", "reputationMicro"])
        for r, p, rep in reputation_surface(max_rewards, max_penalties):
            writer.writerow([r, p, rep])


def write_congestion_fee_csv(path: str | Path, scenario: Scenario, max_missions: int = 50) -> None:
    from .economics import congestion_surcharge, dynamic_fee, INITIAL_K_MICRO

    fee_params = scenario.fee_params
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["activeMissions", "fee"])
        for count in range(max_missions + 1):
            fee = dynamic_fee(
                INITIAL_K_MICRO,
                fee_params.base_cost,
                fee_params.deposit,
                congestion_surcharge(count, fee_params.surcharge_per_mission),
            )
            writer.writerow([count, fee])


# -- state snapshots -----------------------------------------------------------

def _nonce_keystream(seed: int, drone_id: int) -> bytes:
    key = hashlib.sha256(b"snapshot-key:" + str(seed).encode()).digest()
    return hashlib.sha256(key + drone_id.to_bytes(8, "big") + b"nonce").digest()[:16]


def _xor(data: bytes, stream: bytes) -> bytes:
    return bytes(a ^ b for a, b in zip(data, stream))


def _plan_to_dict(plan: MissionPlan) -> dict[str, Any]:
    d = plan.to_public_dict()
    d["ownerAccount"] = plan.owner_account
    d["srcArcsec"] = list(plan.src_arcsec)
    d["dstArcsec"] = list(plan.dst_arcsec)
    d["altBand"] = plan.alt_band
    return d


def _plan_from_dict(d: dict[str, Any]) -> MissionPlan:
    if not d["route"]:
        raise CorruptPayload(f"plan for drone {d['droneId']} has no route")  # deconfliction reads its end cells
    return MissionPlan(
        drone_id=d["droneId"],
        owner_account=d["ownerAccount"],
        source=d["source"],
        destination=d["destination"],
        departure_date=d["departureDate"],
        departure_time=d["departureTime"],
        departure_epoch=d["departureEpoch"],
        arrival_epoch=d["arrivalEpoch"],
        src_arcsec=tuple(d["srcArcsec"]),
        dst_arcsec=tuple(d["dstArcsec"]),
        altitude_m=d["altitudeM"],
        alt_band=d["altBand"],
        route=[
            geo.CellWindow(w["latIdx"], w["lonIdx"], w["altBand"], w["enterS"], w["exitS"])
            for w in d["route"]
        ],
        rid_vc=bytes.fromhex(d["ridVc"]),
        active=d["active"],
    )


def snapshot_world(world: World) -> bytes:
    """Canonical bytes for a sealed world; requires no pending txs."""
    if world.ledger.pending:
        raise ValueError("seal pending transactions before snapshotting")
    ledger = world.ledger
    uss = world.uss.storage
    seed = world.scenario.seed
    rng_state = world.rng.getstate()
    data = {
        "schema": dict(SCHEMA),
        "kind": "state",
        "scenario": world.scenario.to_dict(),
        "tick": world.tick,
        "clock": ledger.clock,
        "txCounter": ledger._tx_counter,
        "accounts": [
            {"id": a.id, "role": a.role, "balance": str(a.balance)}
            for a in sorted(ledger.accounts.values(), key=lambda a: a.id)
        ],
        "authority": {"records": [r.to_public_dict() for r in world.authority.records]},
        "uss": {
            "subscriptions": {
                str(k): {"droneId": s.drone_id, "subscriber": s.subscriber,
                         "paidFee": str(s.paid_fee), "expiry": s.expiry}
                for k, s in uss["subscriptions"].items()
            },
            "plans": {str(k): _plan_to_dict(p) for k, p in uss["plans"].items()},
            "noncesEnc": {
                str(k): _xor(v, _nonce_keystream(seed, k)).hex()
                for k, v in uss["nonces"].items()
            },
            "reportCounts": {
                str(k): dict(sorted(v.items())) for k, v in uss["report_counts"].items()
            },
            "sightings": [
                {"reporter": s.reporter, "droneId": s.drone_id, "rid": s.rid_hex,
                 "cell": list(s.cell), "sightingTime": s.sighting_time, "verdict": s.verdict}
                for s in uss["sightings"]
            ],
            "reputation": {
                owner: {"reputationMicro": st.reputation_micro, "kMicro": st.k_micro}
                for owner, st in uss["reputation"].items()
            },
            "escrowByDrone": {str(k): str(v) for k, v in uss["escrow_by_drone"].items()},
            "forfeited": {str(k): str(v) for k, v in uss["forfeited"].items()},
            "nonceCounter": uss["nonce_counter"],
        },
        "agents": {
            "drones": [
                {
                    "name": d.spec.name,
                    "droneId": d.drone_id,
                    "plan": d.plan,
                    "flightDurationS": d.flight_duration_s,
                    "completed": d.completed,
                }
                for d in world.drones
            ],
            "reporters": [
                {
                    "name": r.spec.name,
                    "cell": list(r.cell),
                    "attempted": sorted(r.attempted),
                    "heard": {str(k): [v[0], v[1]] for k, v in r.heard.items()},
                }
                for r in world.reporters
            ],
        },
        "rng": [rng_state[0], list(rng_state[1]), rng_state[2]],
        "chain": [b.to_dict() for b in ledger.blocks],
    }
    return canonical_json(data) + b"\n"


def restore_world(payload: bytes) -> World:
    try:
        data = json.loads(payload)
    except json.JSONDecodeError as exc:
        raise CorruptPayload(f"snapshot does not parse: {exc}") from None
    _check_header(data, "state")
    try:
        return _rebuild(data)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        if isinstance(exc, (SchemaMismatch, CorruptPayload)):
            raise
        raise CorruptPayload(f"snapshot structure invalid: {exc}") from None


def snapshot_supply(data: dict[str, Any]) -> int:
    """Sum of a parsed snapshot's balances; CorruptPayload unless it is the genesis total supply."""
    total = sum(int(a["balance"]) for a in data["accounts"])
    genesis = data["chain"][0]["transactions"][0]
    if genesis["op"] != "genesis" or total != genesis["payload"]["totalSupply"]:
        raise CorruptPayload("snapshot balances do not sum to the genesis total supply")
    return total


def _rebuild(data: dict[str, Any]) -> World:
    """Build the scenario's world as a live run does, then load the saved state onto it."""
    scenario = Scenario.from_dict(data["scenario"])
    world = World.deployed(scenario)
    ledger = world.ledger
    saved_accounts = sorted((a["id"], a["role"]) for a in data["accounts"])
    if saved_accounts != sorted((a.id, a.role) for a in ledger.accounts.values()):
        raise CorruptPayload("snapshot accounts differ from the accounts the scenario creates")
    for acc in data["accounts"]:
        ledger.accounts[acc["id"]].balance = int(acc["balance"])
    ledger.clock = data["clock"]
    ledger._tx_counter = data["txCounter"]
    ledger.blocks = [Block.from_dict(b) for b in data["chain"]]
    snapshot_supply(data)

    authority, uss = world.authority, world.uss
    authority.storage["records"] = [
        DroneRecord(
            drone_id=r["droneId"],
            serial_hash=r["serialHash"],
            owner_national_id_hash=r["ownerNationalIdHash"],
            owner_account=r["ownerAccount"],
            rewards=r["rewards"],
            penalties=r["penalties"],
            has_active_plan=r["hasActivePlan"],
            sign_tac=r["signTAC"],
        )
        for r in data["authority"]["records"]
    ]
    authority.storage["serial_index"] = {
        r.serial_hash: r.drone_id for r in authority.storage["records"]
    }

    u = data["uss"]
    seed = scenario.seed
    uss.storage["subscriptions"] = {
        int(k): Subscription(v["droneId"], v["subscriber"], int(v["paidFee"]), v["expiry"])
        for k, v in u["subscriptions"].items()
    }
    uss.storage["plans"] = {int(k): _plan_from_dict(v) for k, v in u["plans"].items()}
    uss.storage["nonces"] = {
        int(k): _xor(bytes.fromhex(v), _nonce_keystream(seed, int(k)))
        for k, v in u["noncesEnc"].items()
    }
    uss.storage["report_counts"] = {
        int(k): dict(v) for k, v in u["reportCounts"].items()
    }
    uss.storage["sightings"] = [
        SightingRecord(s["reporter"], s["droneId"], s["rid"], tuple(s["cell"]),
                       s["sightingTime"], s["verdict"])
        for s in u["sightings"]
    ]
    uss.storage["reputation"] = {
        owner: ReputationState(v["reputationMicro"], v["kMicro"])
        for owner, v in u["reputation"].items()
    }
    uss.storage["escrow_by_drone"] = {int(k): int(v) for k, v in u["escrowByDrone"].items()}
    uss.storage["forfeited"] = {int(k): int(v) for k, v in u["forfeited"].items()}
    uss.storage["nonce_counter"] = u["nonceCounter"]

    drones = {d["name"]: d for d in data["agents"]["drones"]}
    for drone in world.drones:
        saved = drones[drone.spec.name]
        drone.drone_id = saved["droneId"]
        drone.plan = saved["plan"]
        drone.flight_duration_s = saved["flightDurationS"]
        drone.completed = saved["completed"]
    reporters = {r["name"]: r for r in data["agents"]["reporters"]}
    for rep in world.reporters:
        saved = reporters[rep.spec.name]
        rep.cell = tuple(saved["cell"])
        rep.attempted = set(saved["attempted"])
        rep.heard = {int(k): (v[0], v[1]) for k, v in saved["heard"].items()}

    world.tick = data["tick"]
    rng = data["rng"]
    world.rng.setstate((rng[0], tuple(rng[1]), rng[2]))
    return world


def verify_chain_file(path: str | Path) -> tuple[bool, int | None]:
    return verify_blocks(read_chain_jsonl(path))
