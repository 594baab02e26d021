"""Independent reference implementations the tests check against.

Everything here recomputes results by a different route than the
package: exact rationals for the fixed-point economics, second-by-second
enumeration for route occupancy, a from-scratch digest chain walk,
whole-storage copies for per-transaction write metering, an
every-reporter-against-every-broadcast scan for crowd sensing, a
float distance for the integer range check, csv.writer for the CSV
exports, and a scenario codec that walks the declaration field by field.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import hashlib
import json
import math
import typing
from fractions import Fraction
from typing import Any, Callable

from skyledger import economics, geo, sim

MICRO = 10**6


def round_half_up(value: Fraction) -> int:
    return (value + Fraction(1, 2)).__floor__()


def rational_fee(k_micro: int, base_cost: int, deposit: int, surcharge: int) -> int:
    exact = Fraction(k_micro, MICRO) * base_cost + deposit + surcharge
    return round_half_up(exact)


def rational_reputation(rewards: int, penalties: int) -> int:
    exact = Fraction(rewards - penalties, rewards + penalties + 2)
    return round_half_up(exact * MICRO)


def rational_update_k(rep_micro: int, k_prev_micro: int, alpha_micro: int, k_min_micro: int) -> int:
    rep = Fraction(rep_micro, MICRO)
    alpha = Fraction(alpha_micro, MICRO)
    k_prev = Fraction(k_prev_micro, MICRO)
    exact = (1 - (rep + 1) / 2) * alpha + k_prev * (1 - alpha)
    return max(k_min_micro, round_half_up(exact * MICRO))


def independent_block_digest(block_dict: dict) -> str:
    """Recompute a block hash from its JSON form, separate codepath."""
    body = _json_line(block_dict["transactions"])
    payload = block_dict["index"].to_bytes(8, "big") + bytes.fromhex(block_dict["prevHash"]) + body
    return hashlib.sha256(payload).hexdigest()


def independent_chain_check(block_dicts: list[dict]) -> bool:
    prev = "00" * 32
    for i, blk in enumerate(block_dicts):
        if blk["index"] != i or blk["prevHash"] != prev:
            return False
        if independent_block_digest(blk) != blk["hash"]:
            return False
        prev = blk["hash"]
    return True


def _json_line(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=True).encode()


def edit_snapshot(snap: bytes, edit) -> bytes:
    """Decode a state snapshot's header and block lines, let `edit(header, blocks)` change them, encode them again.

    No hash is recomputed.
    """
    header, *lines = snap.splitlines()
    header, blocks = json.loads(header), [json.loads(line) for line in lines]
    edit(header, blocks)
    return b"\n".join(map(_json_line, [header, *blocks])) + b"\n"


def forge_snapshot(snap: bytes, forge) -> bytes:
    """Edit a state snapshot as one dict and seal the result again.

    The header and the blocks are handed to `forge` as one dict whose
    `chain` key lists the blocks (the one-document layout of state
    schema 3.0). Then every block is re-linked and re-hashed with
    independent_block_digest, and the header's `head` with it, so a
    forged snapshot passes restore's hash check and reaches the checks
    of the fold behind it.
    """
    def reseal(header, blocks):
        header["chain"] = blocks
        forge(header)
        blocks[:] = header.pop("chain")
        prev = "00" * 32
        for block in blocks:
            block["prevHash"] = prev
            block["hash"] = prev = independent_block_digest(block)
        header["head"] = prev

    return edit_snapshot(snap, reseal)


def reattribute_report(data: dict, report: dict, caller: str) -> None:
    """Make a logged report success `caller`'s: its caller, its reporter reward's balanceDeltas entry and the two header balances.

    `data` is the dict forge_snapshot hands to its forge, and `report` one of its records.
    """
    reward = report["balanceDeltas"].pop(report["caller"])
    report["balanceDeltas"][caller] = report["balanceDeltas"].get(caller, 0) + reward
    for account_id, amount in ((report["caller"], -reward), (caller, reward)):
        account = next(a for a in data["accounts"] if a["id"] == account_id)
        account["balance"] = str(int(account["balance"]) + amount)
    report["caller"] = caller


def report_by_owner(data: dict) -> None:
    """A forge for forge_snapshot: the first successful report re-attributed to the owner of the drone it reports."""
    records = [tx for block in data["chain"] for tx in block["transactions"] if tx["status"] == "success"]
    report = next(tx for tx in records if tx["op"] == "report_drone")
    owner = next(tx["caller"] for tx in records
                 if tx["op"] == "register_drone" and tx["payload"]["droneId"] == report["args"]["droneId"])
    reattribute_report(data, report, owner)


def float_distance_m(grid: geo.GridConfig, a: tuple[int, int], b: tuple[int, int]) -> float:
    """Metres between two arcsecond positions, in floating point."""
    dy = grid.meters(a[0] - b[0])
    dx = grid.meters(a[1] - b[1])
    return math.sqrt(dy * dy + dx * dx)


def interpolated_cell(
    src: tuple[int, int],
    dst: tuple[int, int],
    depart_s: int,
    arrive_s: int,
    at_s: int,
    cell_size_m: int,
    meters_per_arcsec: int,
) -> tuple[int, int]:
    """Plan position at a time, via Fractions, floored to a cell."""
    duration = arrive_s - depart_s
    u = min(max(at_s - depart_s, 0), duration)
    out = []
    for a, b in zip(src, dst):
        pos = Fraction(a) if duration == 0 else Fraction(a) + Fraction(b - a) * Fraction(u, duration)
        arcsec = round_half_up(pos)
        out.append((arcsec * meters_per_arcsec) // cell_size_m)
    return out[0], out[1]


def per_second_route_occupancy(
    grid: geo.GridConfig,
    src: tuple[int, int],
    dst: tuple[int, int],
    depart_s: int,
    duration_s: int,
    alt_band: int,
) -> list[geo.CellWindow]:
    """geo.route_occupancy by sampling interpolate_position once per second of flight and coalescing."""
    windows: list[geo.CellWindow] = []
    current: tuple[int, int] | None = None
    start = 0
    for u in range(duration_s + 1):
        cell = grid.cell_of(*geo.interpolate_position(src, dst, u, duration_s))
        if cell != current:
            if current is not None:
                windows.append(geo.CellWindow(current[0], current[1], alt_band, depart_s + start, depart_s + u - 1))
            current, start = cell, u
    assert current is not None
    windows.append(geo.CellWindow(current[0], current[1], alt_band, depart_s + start, depart_s + duration_s))
    return windows


def expand_route(route: list[dict]) -> dict[int, tuple[int, int, int]]:
    """Window list to a per-second map of (latIdx, lonIdx, altBand)."""
    cells = {}
    for w in route:
        for t in range(w["enterS"], w["exitS"] + 1):
            cells[t] = (w["latIdx"], w["lonIdx"], w["altBand"])
    return cells


def brute_force_conflict(
    route_a: list[dict], route_b: list[dict], cell_buffer: int, time_buffer_s: int
) -> bool:
    """Quadratic cell-time overlap check over per-second expansions."""
    a, b = expand_route(route_a), expand_route(route_b)
    for ta, (lat_a, lon_a, band_a) in a.items():
        for tb, (lat_b, lon_b, band_b) in b.items():
            if band_a != band_b or abs(ta - tb) > time_buffer_s:
                continue
            if abs(lat_a - lat_b) <= cell_buffer and abs(lon_a - lon_b) <= cell_buffer:
                return True
    return False


def _plain(obj):
    """A copy of storage as nested dicts and lists of scalars.

    Dataclasses become dicts of their declared fields and tuples dicts of
    their items by index, each tagged with its type, so that a list and a
    tuple of the same items differ as the ledger's meter sees them.
    """
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        fields = {f.name: _plain(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
        return {"__type__": type(obj).__name__, **fields}
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, tuple):
        return {"__type__": "tuple", **{i: _plain(v) for i, v in enumerate(obj)}}
    if isinstance(obj, list):
        return [_plain(v) for v in obj]
    return obj


def _leaves(tree) -> int:
    if isinstance(tree, dict):
        return sum(_leaves(v) for k, v in tree.items() if k != "__type__") or 1
    if isinstance(tree, list):
        return sum(_leaves(v) for v in tree) or 1
    return 1


def whole_tree_leaf_diff(before, after) -> int:
    """Leaves changed, added or removed between two plain storage trees.

    A subtree on one side only counts all its leaves; an empty container
    is one leaf; containers of different kinds count both sides whole.
    """
    if isinstance(before, dict) and isinstance(after, dict) and before.get("__type__") == after.get("__type__"):
        keys = (set(before) | set(after)) - {"__type__"}
        return sum(
            whole_tree_leaf_diff(before[k], after[k]) if k in before and k in after
            else _leaves(before[k] if k in before else after[k])
            for k in keys
        )
    if isinstance(before, list) and isinstance(after, list):
        common = min(len(before), len(after))
        paired = sum(whole_tree_leaf_diff(a, b) for a, b in zip(before, after))
        return paired + sum(_leaves(v) for v in before[common:] + after[common:])
    if isinstance(before, (dict, list)) or isinstance(after, (dict, list)) or type(before) is not type(after):
        return _leaves(before) + _leaves(after)
    return int(before != after)


class WholeTreeSubmit:
    """Wraps Ledger.submit; recomputes each record's metering from full copies.

    Before every call it copies all contract storage and every balance;
    afterwards it records the whole-tree leaf diff, the nonzero balance
    changes, and whether a revert left the state digest as it was.
    """

    def __init__(self, submit):
        self.submit = submit
        self.checked = []  # (record, oracle writes, oracle deltas, digest kept)

    def __call__(self, ledger, caller, op, args=None, value=0):
        before = _plain(ledger._storages)
        balances = {a.id: a.balance for a in ledger.accounts.values()}
        digest = ledger.state_digest()
        rec = self.submit(ledger, caller, op, args, value)
        after = _plain(ledger._storages)
        deltas = {
            a: ledger.accounts[a].balance - balances.get(a, 0)
            for a in sorted(ledger.accounts)
            if ledger.accounts[a].balance != balances.get(a, 0)
        }
        self.checked.append((rec, whole_tree_leaf_diff(before, after), deltas, ledger.state_digest() == digest))
        return rec


def reporter_arcsec(world, rep):
    """The centre of the reporter's cell in arcseconds, computed afresh."""
    return world.grid.cell_center_arcsec(rep.cell[0]), world.grid.cell_center_arcsec(rep.cell[1])


def fresh_reporter_placement(world):
    """Each reporter's (position, sensing bucket) and the bucket -> sorted reporter indices map, from the cells alone.

    The bucket side is the larger of the cell size and the widest sensing
    range, so a reporter that hears a broadcast is in one of its 3x3 buckets.
    """
    grid = world.grid
    side = max([world.scenario.cell_size_m] + [spec.sensing_range_m for spec in world.scenario.reporters])
    placed, buckets = [], {}
    for i, rep in enumerate(world.reporters):
        lat, lon = reporter_arcsec(world, rep)
        bucket = (grid.meters(lat) // side, grid.meters(lon) // side)
        placed.append(((lat, lon), bucket))
        buckets.setdefault(bucket, []).append(i)
    return placed, buckets


def cached_reporter_placement(world):
    """The placement World keeps across ticks, in the shape of fresh_reporter_placement (empty buckets left out)."""
    placed = [(rep.position, rep.bucket) for rep in world.reporters]
    return placed, {bucket: sorted(ids) for bucket, ids in world._buckets.items() if ids}


def all_pairs_report_phase(world, broadcasts, now):
    """World._report_phase as a full scan: every reporter against every broadcast.

    Install it as `_report_phase` of a World subclass to run the tick
    without spatial bucketing or kept reporter positions.
    """
    loss = world.scenario.loss_probability_micro
    for rep in world.reporters:
        rep_pos = reporter_arcsec(world, rep)
        for drone, pos, rid_hex in broadcasts:
            if not geo.within_range(world.grid, rep_pos, pos, rep.spec.sensing_range_m):
                continue
            if loss and world.rng.randrange(MICRO) < loss:
                continue
            if rep.spec.honesty == "honest":
                if drone.drone_id in rep.attempted:
                    continue
                rep.attempted.add(drone.drone_id)
                world.ledger.submit(
                    rep.account,
                    "report_drone",
                    {
                        "droneId": drone.drone_id,
                        "rid": rid_hex,
                        "sightingLocation": geo.format_dms_pair(*pos),
                        "sightingTime": now,
                    },
                )
            elif drone.drone_id not in rep.heard:
                rep.heard[drone.drone_id] = (rid_hex, world.tick)
    for rep in world.reporters:
        if rep.spec.honesty != "replayer":
            continue
        for drone_id in sorted(rep.heard):
            rid_hex, heard_tick = rep.heard[drone_id]
            if drone_id in rep.attempted or world.tick - heard_tick < rep.spec.replay_delay_ticks:
                continue
            rep.attempted.add(drone_id)
            world.ledger.submit(
                rep.account,
                "report_drone",
                {
                    "droneId": drone_id,
                    "rid": rid_hex,
                    "sightingLocation": geo.format_dms_pair(*reporter_arcsec(world, rep)),
                    "sightingTime": now,
                },
            )


def per_settlement_completion_phase(world, now):
    """World._completion_phase clearing every reporter after each single settlement."""
    for drone in world.drones:
        if drone.plan is None or drone.completed:
            continue
        if now <= drone.plan["departureEpoch"] + drone.flight_duration_s:
            continue
        result = world.ledger.submit(
            drone.operator_account,
            "report_completion",
            {"droneId": drone.drone_id, "ridVc": drone.plan["ridVc"]},
        )
        if result.status == "success":
            drone.completed = True
            for rep in world.reporters:
                rep.attempted.discard(drone.drone_id)
                rep.heard.pop(drone.drone_id, None)


def csv_writer_trace(path, world) -> None:
    """The CSV writers as they were before they formatted rows themselves: csv.writer, one row at a time."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["tick", "droneId", "cellLat", "cellLon", "broadcast"])
        for tick, drone_id, lat, lon, broadcast_hex in world.trace:
            writer.writerow([tick, drone_id, lat, lon, broadcast_hex])


def csv_writer_reputation_surface(path, max_rewards: int, max_penalties: int) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["rewards", "penalties", "reputationMicro"])
        for r in range(max_rewards + 1):
            for p in range(max_penalties + 1):
                writer.writerow([r, p, economics.reputation(r, p)])


def csv_writer_congestion_fee(path, scenario, max_missions: int) -> None:
    fp = scenario.fee_params
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["activeMissions", "fee"])
        for count in range(max_missions + 1):
            surcharge = economics.congestion_surcharge(count, fp.surcharge_per_mission)
            writer.writerow([count, economics.dynamic_fee(economics.INITIAL_K_MICRO, fp.base_cost, fp.deposit, surcharge)])


# The table-driven scenario codec the package compiled away: each call walks
# the declaration field by field. Its reader, writer and bound check are the
# reference for the generated ones.

_JSON_TYPES = {int: "an integer", str: "a string", bool: "a boolean"}
_ABSENT = object()


class _Field(typing.NamedTuple):
    attr: str
    path: str                   # key path within the object
    group: str                  # key of the nested object holding the key, "" for none
    key: str
    nested: bool                # an array or an object
    lo: int | None
    hi: int | None
    required: bool
    numbered: str | None        # default template of the item index
    read: Callable[[Any, str, Any], Any]


class _Layout(typing.NamedTuple):
    names: frozenset[str]               # keys of the object itself
    groups: dict[str, frozenset[str]]   # nested object key -> its keys
    fields: tuple[_Field, ...]


@functools.cache
def _declared(cls: type) -> _Layout:
    hints = typing.get_type_hints(cls)
    fields, groups = [], {}
    for f in dataclasses.fields(cls):
        group, _, key = f.metadata["key"].rpartition(".")
        if group:
            groups[group] = groups.get(group, frozenset()) | {key}
        kind, numbered = hints[f.name], f.metadata.get("numbered")
        origin = typing.get_origin(kind)
        members = (kind,) if origin is None else () if origin is tuple else typing.get_args(kind)
        nested = not any(t in _JSON_TYPES for t in members)
        required = f.default is dataclasses.MISSING and not numbered
        fields.append(_Field(f.name, f.metadata["key"], group, key, nested, f.metadata.get("min"), f.metadata.get("max"),
                             required, numbered, _reader(kind)))
    return _Layout(frozenset(f.group or f.key for f in fields), groups, tuple(fields))


def _reader(kind):
    options = typing.get_args(kind)
    if kind in _JSON_TYPES:
        def scalar(value, at, key):
            if type(value) is not kind:
                raise sim.ScenarioError(f"{_path(at, key)} must be {_JSON_TYPES[kind]}")
            return value
        return scalar
    if typing.get_origin(kind) is tuple:
        readers = [_reader(item) for item in options if item is not Ellipsis]

        def array(value, at, key):
            at = _path(at, key)
            if not isinstance(value, list):
                raise sim.ScenarioError(f"{at} must be a JSON array")
            items = readers * len(value) if options[-1] is Ellipsis else readers
            if len(items) != len(value):
                raise sim.ScenarioError(f"{at} must hold {len(items)} items")
            return tuple(read(v, at, i) for i, (read, v) in enumerate(zip(items, value)))
        return array
    if type(None) in options:
        inner = _reader(options[0])
        return lambda value, at, key: None if value is None else inner(value, at, key)
    return lambda value, at, key: _load(kind, value, at, key)


def _path(at, key):
    return f"{at}[{key}]" if type(key) is int else f"{at}.{key}" if at and key else at or key


def _check_object(obj, names, at):
    if not isinstance(obj, dict):
        raise sim.ScenarioError(f"{at or 'scenario'} must be a JSON object")
    if not names.issuperset(obj):
        raise sim.ScenarioError(f"{_path(at, min(obj.keys() - names))} is not a known key")


def _load(cls, data, at, key):
    at = _path(at, key)
    layout = _declared(cls)
    _check_object(data, layout.names, at)
    scopes = {"": data}
    for group, names in layout.groups.items():
        scopes[group] = group_data = data.get(group, {})
        _check_object(group_data, names, _path(at, group))
    values = {}
    for attr, path, group, name, _, _, _, required, numbered, read in layout.fields:
        value = scopes[group].get(name, _ABSENT)
        if value is not _ABSENT:
            values[attr] = read(value, at, path)
        elif numbered:
            values[attr] = numbered.format(key)
        elif required:
            raise sim.ScenarioError(f"{_path(at, path)} is missing")
    return cls(**values)


def _dump(obj):
    layout = _declared(type(obj))
    out = {}
    scopes = {"": out}
    for group in layout.groups:
        scopes[group] = out[group] = {}
    for f in layout.fields:
        value = getattr(obj, f.attr)
        if f.nested:
            if isinstance(value, tuple):
                value = [v if type(v) in _JSON_TYPES else _dump(v) for v in value]
            else:
                value = _dump(value)
        scopes[f.group][f.key] = value
    return out


def walked_scenario_from_dict(data):
    """Scenario.from_dict by walking the declaration: the same header checks, then the table-driven reader."""
    if not isinstance(data, dict):
        raise sim.ScenarioError("scenario must be a JSON object")
    body = dict(data)
    schema = body.pop("schema", None)
    major = schema.get("major") if isinstance(schema, dict) else None
    if type(major) is not int or major != sim.SCHEMA["major"]:
        raise sim.ScenarioError(f"schema: unsupported version {schema!r}")
    if body.pop("kind", "scenario") != "scenario":
        raise sim.ScenarioError("kind: file is not a scenario")
    return _load(sim.Scenario, body, "", "")


def walked_scenario_to_dict(scenario):
    return {"schema": dict(sim.SCHEMA), "kind": "scenario", **_dump(scenario)}


def walked_check_bounds(obj, at):
    """Each declared bound of a dataclass instance, the object at key path `at`."""
    for f in _declared(type(obj)).fields:
        value = getattr(obj, f.attr)
        if f.lo is not None and value is not None and value < f.lo:
            raise sim.ScenarioError(f"{_path(at, f.path)} must be at least {f.lo}")
        if f.hi is not None and value is not None and value > f.hi:
            raise sim.ScenarioError(f"{_path(at, f.path)} must be at most {f.hi}")
