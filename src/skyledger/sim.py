"""Deterministic agent-based airspace simulation.

A scenario fully determines a run: drones register, subscribe, get a
quote, buy a plan, fly it (or deviate from it, or stay silent, or
broadcast a forged verification code) while bystander agents receive
the broadcasts and file reports, and finally settle. All ledger
submissions happen in one canonical order (scenario list order per
phase), so one seed always produces one chain.

Agent behaviors map to the threat model under test:

* compliant      flies the plan and broadcasts truthfully
* deviating      flies offset from the plan after a start tick
* silent         flies but never broadcasts (invisible to the crowd)
* forger         broadcasts a corrupted verification code

* honest reporters forward the first broadcast they receive per drone
  and mission, reporting the broadcast's own location and time;
* replayer reporters re-submit a previously heard broadcast later, at
  a false location and time. The commitment still verifies, which is
  the residual risk this model leaves open and the metrics expose.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import random
import typing
from dataclasses import dataclass, field
from typing import Any, Callable

from . import geo
from .authority import AuthorityContract
from .economics import FeeParams
from .fixedmath import MICRO
from .ledger import Block, Ledger
from .rid import RidFaa, RidMessage, encode_rid
from .uss import parse_departure_epoch, UssContract

SCHEMA = {"major": 1, "minor": 0}

BEHAVIOR_KINDS = ("compliant", "deviating", "silent", "forger")
HONESTY_KINDS = ("honest", "replayer")
_LEARNED_OPS = frozenset({"register_drone", "request_plan", "report_completion", "report_drone"})
_NEIGHBOURS = tuple((dlat, dlon) for dlat in (-1, 0, 1) for dlon in (-1, 0, 1))  # the 3x3 sensing buckets around one


class ScenarioError(ValueError):
    """Scenario config is structurally or semantically invalid; the message starts with the key path."""


# A scenario file is declared by the dataclasses below: each field's metadata
# holds its JSON key path (dotted inside a nested object) and optional bounds,
# its annotation is its type, and its default, or the lack of one, says
# whether the key may be left out. from_dict, to_dict and the bound checks
# a Scenario runs when it is built all read that declaration.

_RID_MAX_M = (2**32 - 1) // 100  # the most metres, or m/s, whose centimetres fit a RID message's u32 field


def _key(path: str, default: Any = dataclasses.MISSING, *, lo: int | None = None, hi: int | None = None,
         numbered: str | None = None) -> Any:
    """A field stored under the scenario-file key `path`; an integer must be at least `lo` and at most `hi`.

    `numbered`, a str.format template of the array index, is the file's default
    for a key of an array item that the dataclass itself requires.
    """
    return field(default=default, metadata={"key": path, "min": lo, "max": hi, "numbered": numbered})


@dataclass(frozen=True)
class MissionSpec:
    source: str = _key("source")
    destination: str = _key("destination")
    departure_date: str = _key("departureDate")
    departure_time: str = _key("departureTime")

    @functools.cached_property
    def points(self) -> tuple[tuple[int, int], tuple[int, int]]:
        """Source and destination in arcseconds, parsed on first use; a DmsError for either."""
        return geo.parse_dms_pair(self.source), geo.parse_dms_pair(self.destination)


@dataclass(frozen=True)
class DroneSpec:
    name: str = _key("name", numbered="drone{}")
    serial: str = _key("serial", numbered="SN-{:04d}")
    owner_national_id: str = _key("ownerNationalId", numbered="NID-{:04d}")
    mission: MissionSpec = _key("mission")
    behavior: str = _key("behavior.kind", "compliant")
    offset_cells: int = _key("behavior.offsetCells", 0)
    deviate_start_tick: int = _key("behavior.startTick", 0)
    speed_mps: int | None = _key("speedMps", None, lo=1, hi=_RID_MAX_M)
    operator: str | None = _key("operator", None)    # drones naming the same operator share reputation


@dataclass(frozen=True)
class ReporterSpec:
    name: str = _key("name", numbered="reporter{}")
    cell: tuple[int, int] = _key("cell", (0, 0))
    sensing_range_m: int = _key("sensingRangeM", 200, lo=0)
    honesty: str = _key("honesty", "honest")
    random_walk: bool = _key("randomWalk", False)
    replay_delay_ticks: int = _key("replayDelayTicks", 3)


@dataclass(frozen=True)
class Scenario:
    name: str = _key("name", "scenario")
    seed: int = _key("seed", 0, lo=0)
    grid_extent_cells: int = _key("grid.extentCells", 64, lo=1)
    cell_size_m: int = _key("grid.cellSizeM", geo.GridConfig.cell_size_m, lo=1)
    meters_per_arcsec: int = _key("grid.metersPerArcsec", geo.GridConfig.meters_per_arcsec, lo=1)
    tick_seconds: int = _key("clock.tickSeconds", 10, lo=1)
    duration_ticks: int = _key("clock.durationTicks", 60, lo=1)
    epoch_date: str = _key("clock.epochDate", "01012025")
    fee_params: FeeParams = field(default_factory=FeeParams, metadata={"key": "economics"})
    subscription_fee: int = _key("fees.subscriptionFee", 100, lo=0)
    reporter_reward: int = _key("fees.reporterReward", 20, lo=0)  # deposit / 50 with the default deposit
    fine_unit: int = _key("fees.fineUnit", 100, lo=0)  # deposit / 10
    bonus_unit: int = _key("fees.bonusUnit", 100, lo=0)  # deposit / 10
    cruise_speed_mps: int = _key("uss.cruiseSpeedMps", 10, lo=1, hi=_RID_MAX_M)
    altitude_m: int = _key("uss.altitudeM", 60, lo=0, hi=_RID_MAX_M)
    altitude_band_m: int = _key("uss.altitudeBandM", 30, lo=1)
    match_window_s: int = _key("uss.matchWindowS", 120, lo=0)
    deconfliction_cell_buffer: int = _key("uss.deconflictionCellBuffer", 1, lo=0)
    deconfliction_time_buffer_s: int = _key("uss.deconflictionTimeBufferS", 60, lo=0)
    operator_funding: int = _key("funding.operator", 100_000, lo=0)
    reporter_funding: int = _key("funding.reporter", 0, lo=0)
    treasury_funding: int = _key("funding.treasury", 1_000_000, lo=0)
    loss_probability_micro: int = _key("lossProbabilityMicro", 0, lo=0, hi=MICRO)
    drones: tuple[DroneSpec, ...] = _key("drones", ())
    reporters: tuple[ReporterSpec, ...] = _key("reporters", ())

    def grid(self) -> geo.GridConfig:
        return geo.GridConfig(self.cell_size_m, self.meters_per_arcsec)

    def to_dict(self) -> dict[str, Any]:
        return {"schema": dict(SCHEMA), "kind": "scenario", **_dump(self)}

    @classmethod
    def from_dict(cls, data: Any) -> "Scenario":
        """Read a scenario file's JSON value; a ScenarioError names the first bad key path."""
        if not isinstance(data, dict):
            raise ScenarioError("scenario must be a JSON object")
        body = dict(data)
        schema = body.pop("schema", None)
        major = schema.get("major") if isinstance(schema, dict) else None
        if type(major) is not int or major != SCHEMA["major"]:  # exact type, as for every other key: not true, not 1.0
            raise ScenarioError(f"schema: unsupported version {schema!r}")
        if body.pop("kind", "scenario") != "scenario":
            raise ScenarioError("kind: file is not a scenario")
        return _load(cls, body, "", "")

    def __post_init__(self) -> None:
        """Each key's declared bounds, then the checks that span fields; from_dict has checked the types."""
        _check_bounds(self, "")
        grid = self.grid()
        seen_names: set[str] = set()
        seen_serials: set[str] = set()
        for i, d in enumerate(self.drones):
            _check_bounds(d, f"drones[{i}]")
            if d.name in seen_names:
                raise ScenarioError(f"drones[{i}].name: duplicate drone name {d.name!r}")
            seen_names.add(d.name)
            if d.serial in seen_serials:
                raise ScenarioError(f"drones[{i}].serial: duplicate drone serial {d.serial!r}")
            seen_serials.add(d.serial)
            if d.behavior not in BEHAVIOR_KINDS:
                raise ScenarioError(f"drones[{i}].behavior.kind: unknown behavior {d.behavior!r}")
            try:
                points = d.mission.points
                parse_departure_epoch(d.mission.departure_date, d.mission.departure_time, self.epoch_date)
            except ValueError as exc:  # a geo.DmsError too
                raise ScenarioError(f"drones[{i}].mission: {exc}") from None
            for pos in points:
                cell = grid.cell_of(*pos)
                if not self._cell_in_grid(cell):
                    raise ScenarioError(f"drones[{i}].mission: waypoint cell {cell} outside grid")
        reporter_names: set[str] = set()
        for i, r in enumerate(self.reporters):
            _check_bounds(r, f"reporters[{i}]")
            if r.name in reporter_names:
                raise ScenarioError(f"reporters[{i}].name: duplicate reporter name {r.name!r}")
            reporter_names.add(r.name)
            if r.honesty not in HONESTY_KINDS:
                raise ScenarioError(f"reporters[{i}].honesty: unknown honesty {r.honesty!r}")
            if not self._cell_in_grid(r.cell):
                raise ScenarioError(f"reporters[{i}].cell: {r.cell} outside grid")

    def _cell_in_grid(self, cell: tuple[int, int]) -> bool:
        return 0 <= cell[0] < self.grid_extent_cells and 0 <= cell[1] < self.grid_extent_cells


_JSON_TYPES = {int: "an integer", str: "a string", bool: "a boolean"}
_ABSENT = object()
_Key = str | int  # an object key, or an array index


class _Field(typing.NamedTuple):
    attr: str
    path: str                   # key path within the object
    group: str                  # key of the nested object holding the key, "" for none
    key: str
    nested: bool                # an array or an object
    lo: int | None              # lower bound, checked when a Scenario is built
    hi: int | None              # upper bound, checked when a Scenario is built
    required: bool
    numbered: str | None        # default template of the item index, see _key
    read: Callable[[Any, str, _Key], Any]  # value, and its key path as (at, key) -> the field's value, or ScenarioError


class _Layout(typing.NamedTuple):
    names: frozenset[str]               # keys of the object itself
    groups: dict[str, frozenset[str]]   # nested object key -> its keys
    fields: tuple[_Field, ...]


@functools.cache
def _declared(cls: type) -> _Layout:
    """The JSON layout of a declared dataclass, read from its fields' metadata and annotations."""
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
        required = f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING and not numbered
        fields.append(_Field(f.name, f.metadata["key"], group, key, nested, f.metadata.get("min"), f.metadata.get("max"),
                             required, numbered, _reader(kind)))
    return _Layout(frozenset(f.group or f.key for f in fields), groups, tuple(fields))


def _reader(kind: Any) -> Callable[[Any, str, _Key], Any]:
    """A function reading a JSON value as the declared type `kind`: a scalar, an array, an optional or an object."""
    options = typing.get_args(kind)
    if kind in _JSON_TYPES:
        def scalar(value: Any, at: str, key: _Key) -> Any:
            if type(value) is not kind:
                raise ScenarioError(f"{_path(at, key)} must be {_JSON_TYPES[kind]}")
            return value
        return scalar
    if typing.get_origin(kind) is tuple:  # tuple[X, ...], or a fixed tuple[X, Y]
        readers = [_reader(item) for item in options if item is not Ellipsis]

        def array(value: Any, at: str, key: _Key) -> tuple:
            at = _path(at, key)
            if not isinstance(value, list):
                raise ScenarioError(f"{at} must be a JSON array")
            items = readers * len(value) if options[-1] is Ellipsis else readers
            if len(items) != len(value):
                raise ScenarioError(f"{at} must hold {len(items)} items")
            return tuple(read(v, at, i) for i, (read, v) in enumerate(zip(items, value)))
        return array
    if type(None) in options:  # `X | None`: null or an X
        inner = _reader(options[0])
        return lambda value, at, key: None if value is None else inner(value, at, key)
    return lambda value, at, key: _load(kind, value, at, key)


def _path(at: str, key: _Key) -> str:
    """Key path of `key`, an object key or an array index, inside the value at key path `at`; "" is the whole file."""
    return f"{at}[{key}]" if type(key) is int else f"{at}.{key}" if at and key else at or key


def _check_object(obj: Any, names: frozenset[str], at: str) -> None:
    if not isinstance(obj, dict):
        raise ScenarioError(f"{at or 'scenario'} must be a JSON object")
    if not names.issuperset(obj):
        raise ScenarioError(f"{_path(at, min(obj.keys() - names))} is not a known key")


def _load(cls: type, data: Any, at: str, key: _Key) -> Any:
    """An instance of the declared dataclass `cls` from `data`, the JSON value of `key` inside key path `at`."""
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
            raise ScenarioError(f"{_path(at, path)} is missing")
    try:
        return cls(**values)
    except ScenarioError:  # a Scenario checks itself
        raise
    except ValueError as exc:  # FeeParams checks its own ranges
        raise ScenarioError(f"{at}: bad {at} block: {exc}") from None


def _check_bounds(obj: Any, at: str) -> None:
    """Each declared bound of a dataclass instance, the object at key path `at`."""
    for f in _declared(type(obj)).fields:
        value = getattr(obj, f.attr)
        if f.lo is not None and value is not None and value < f.lo:
            raise ScenarioError(f"{_path(at, f.path)} must be at least {f.lo}")
        if f.hi is not None and value is not None and value > f.hi:
            raise ScenarioError(f"{_path(at, f.path)} must be at most {f.hi}")


def _dump(obj: Any) -> dict[str, Any]:
    """The JSON object of a declared dataclass instance."""
    layout = _declared(type(obj))
    out: dict[str, Any] = {}
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


@dataclass
class _DroneState:
    spec: DroneSpec
    operator_account: str
    drone_id: int | None = None
    plan: dict[str, Any] | None = None
    flight_duration_s: int | None = None
    completed: bool = False


@dataclass
class _ReporterState:
    spec: ReporterSpec
    account: str
    cell: tuple[int, int]
    attempted: set[int] = field(default_factory=set)       # drone ids, reset per mission
    heard: dict[int, tuple[str, int]] = field(default_factory=dict)  # replayer memory
    position: tuple[int, int] | None = None  # arcsec of the cell centre, kept by World._place
    bucket: tuple[int, int] | None = None    # sensing bucket of position


class World:
    """One live run: the ledger, the contracts, and the agents."""

    def __init__(self, scenario: Scenario):
        self._deploy(scenario)
        self._setup()

    @classmethod
    def deployed(cls, scenario: Scenario) -> "World":
        """The accounts, contracts, agents and pending genesis record World(scenario) creates."""
        world = cls.__new__(cls)
        world._deploy(scenario)
        return world

    def _deploy(self, scenario: Scenario) -> None:
        self.scenario = scenario
        self.grid = scenario.grid()
        self.tick = 0
        self.rng = random.Random(scenario.seed)
        self.trace: list[tuple[int, int, int, int, str]] = []  # (tick, drone id, cell lat, cell lon, broadcast hex)
        self.ledger = Ledger()
        self.authority = AuthorityContract(self.ledger)
        nonce_seed = hashlib.sha256(b"nonce-seed:" + str(scenario.seed).encode()).digest()
        self.uss = UssContract(self.ledger, self.authority, scenario, nonce_seed)
        self.ledger.accounts[self.uss.treasury].balance = scenario.treasury_funding

        self.drones: list[_DroneState] = []
        operators: dict[str, str] = {}
        for spec in scenario.drones:
            op_name = spec.operator or f"op-{spec.name}"
            if op_name not in operators:
                operators[op_name] = self.ledger.create_account("operator", scenario.operator_funding)
            self.drones.append(_DroneState(spec, operators[op_name]))
        self.reporters: list[_ReporterState] = [
            _ReporterState(spec, self.ledger.create_account("reporter", scenario.reporter_funding), spec.cell)
            for spec in scenario.reporters
        ]
        self.replayers = [rep for rep in self.reporters if rep.spec.honesty == "replayer"]
        self.walkers = [i for i, rep in enumerate(self.reporters) if rep.spec.random_walk]
        # a reporter that can hear a broadcast is in one of the 3x3 buckets around it
        self._bucket_side = max([scenario.cell_size_m] + [spec.sensing_range_m for spec in scenario.reporters])
        self._buckets: dict[tuple[int, int], list[int]] = {}  # bucket -> reporter indices, filled on the first tick
        self._drone_by_serial = {d.spec.serial: d for d in self.drones}
        self._drone_by_id: dict[int, _DroneState] = {}
        self._reporter_by_account = {rep.account: rep for rep in self.reporters}
        self._learned = 0  # blocks of the chain that learn() has read
        self.ledger.genesis(note=scenario.name)

    def learn(self) -> None:
        """Write the agent memory that the log determines, from each sealed block not yet learned, block by block.

        Successes give a drone its id (register_drone, matched by serial), its
        plan and its flight time at its own speed (request_plan) and its
        settlement (report_completion). Any report_drone, success or revert,
        marks the drone as attempted by the reporter that filed it. Drones
        settled in a block then leave every reporter's memory.
        """
        for block in self.ledger.blocks[self._learned:]:
            self._learned += 1
            settled = set()
            for tx in block.transactions:
                if tx.op not in _LEARNED_OPS:
                    continue
                drone_id = tx.args.get("droneId")
                if tx.op == "report_drone":
                    rep = self._reporter_by_account.get(tx.caller)
                    if rep is not None and type(drone_id) is int:
                        rep.attempted.add(drone_id)
                elif tx.status != "success":
                    continue
                elif tx.op == "register_drone":
                    drone = self._drone_by_serial.get(tx.args["serial"])
                    if drone is not None:
                        drone.drone_id = tx.payload["droneId"]
                        self._drone_by_id[drone.drone_id] = drone
                elif (drone := self._drone_by_id.get(drone_id)) is None:
                    continue
                elif tx.op == "request_plan":
                    drone.plan = plan = tx.payload
                    if drone.spec.speed_mps is None:  # flies at the cruise speed the USS timed the plan with
                        drone.flight_duration_s = plan["arrivalEpoch"] - plan["departureEpoch"]
                    else:
                        drone.flight_duration_s = geo.flight_duration_s(self.grid, *drone.spec.mission.points,
                                                                        drone.spec.speed_mps)
                else:  # report_completion
                    drone.completed = True
                    settled.add(drone_id)
            if settled:
                for rep in self.reporters:
                    if rep.attempted:
                        rep.attempted -= settled
                    if rep.heard:
                        for drone_id in rep.heard.keys() & settled:
                            del rep.heard[drone_id]

    # -- protocol setup: register, subscribe, quote, plan -------------------

    def _setup(self) -> None:
        self.ledger.clock = 0
        for drone in self.drones:
            spec = drone.spec
            reg = self.ledger.submit(
                drone.operator_account,
                "register_drone",
                {"serial": spec.serial, "ownerNationalId": spec.owner_national_id, "signTAC": True},
            )
            if reg.status != "success":
                continue
            drone_id = reg.payload["droneId"]
            self.ledger.submit(
                drone.operator_account,
                "subscribe",
                {"droneId": drone_id},
                value=self.scenario.subscription_fee,
            )
            quote = self.ledger.submit(drone.operator_account, "request_quote", {"droneId": drone_id})
            if quote.status != "success":
                continue
            self.ledger.submit(
                drone.operator_account,
                "request_plan",
                {
                    "droneId": drone_id,
                    "source": spec.mission.source,
                    "destination": spec.mission.destination,
                    "departureDate": spec.mission.departure_date,
                    "departureTime": spec.mission.departure_time,
                },
                value=quote.payload["fee"],
            )
        self.ledger.seal_block()
        self.learn()

    # -- per-tick agent phases ----------------------------------------------

    def now(self) -> int:
        return self.tick * self.scenario.tick_seconds

    def step(self) -> None:
        """Advance one tick: learn blocks another driver sealed, move, broadcast, sense/report, complete, seal and learn."""
        self.learn()
        now = self.now()
        self.ledger.clock = now
        self._walk_reporters()
        broadcasts = self._broadcast_phase(now)
        self._report_phase(broadcasts, now)
        self._completion_phase(now)
        if self.ledger.pending:
            self.ledger.seal_block()
            self.learn()
        self.tick += 1

    def _walk_reporters(self) -> None:
        extent = self.scenario.grid_extent_cells
        for i in self.walkers:
            rep = self.reporters[i]
            dlat = self.rng.choice((-1, 0, 1))
            dlon = self.rng.choice((-1, 0, 1))
            rep.cell = (
                min(max(rep.cell[0] + dlat, 0), extent - 1),
                min(max(rep.cell[1] + dlon, 0), extent - 1),
            )

    def _place(self, i: int) -> None:
        """Bring reporter i's position, sensing bucket and bucket-map entry up to date with its cell."""
        rep, grid, side = self.reporters[i], self.grid, self._bucket_side
        rep.position = lat, lon = grid.cell_center_arcsec(rep.cell[0]), grid.cell_center_arcsec(rep.cell[1])
        bucket = (grid.meters(lat) // side, grid.meters(lon) // side)
        if bucket != rep.bucket:
            if rep.bucket is not None:
                self._buckets[rep.bucket].remove(i)
            self._buckets.setdefault(bucket, []).append(i)
            rep.bucket = bucket

    def _drone_position(self, drone: _DroneState, now: int) -> tuple[int, int] | None:
        plan = drone.plan
        if plan is None or drone.completed:
            return None
        depart = plan["departureEpoch"]
        arrival = depart + drone.flight_duration_s
        if not depart <= now <= arrival:
            return None
        src, dst = drone.spec.mission.points
        lat, lon = geo.interpolate_position(src, dst, now - depart, drone.flight_duration_s)
        if drone.spec.behavior == "deviating" and self.tick >= drone.spec.deviate_start_tick:
            offset_m = drone.spec.offset_cells * self.scenario.cell_size_m
            lat += -(-offset_m // self.scenario.meters_per_arcsec)
        return lat, lon

    def _broadcast_phase(self, now: int) -> list[tuple[_DroneState, tuple[int, int], bytes]]:
        broadcasts = []
        altitude_cm, cell_of = self.scenario.altitude_m * 100, self.grid.cell_of
        for drone in self.drones:
            if drone.spec.behavior == "silent":
                continue
            pos = self._drone_position(drone, now)
            if pos is None:
                continue
            vc = bytes.fromhex(drone.plan["ridVc"])
            if drone.spec.behavior == "forger":
                vc = bytes([vc[0] ^ 0x01]) + vc[1:]
            src = drone.spec.mission.points[0]
            speed = drone.spec.speed_mps or self.scenario.cruise_speed_mps
            # timestamp, drone lat/lon, control station (the mission source) lat/lon, altitude, velocity
            wire = encode_rid(RidMessage(RidFaa(now, pos[0], pos[1], src[0], src[1], altitude_cm, speed * 100), vc))
            broadcasts.append((drone, pos, wire))
            self.trace.append((self.tick, drone.drone_id, *cell_of(*pos), wire.hex()))
        return broadcasts

    def _report_phase(self, broadcasts, now: int) -> None:
        loss = self.scenario.loss_probability_micro
        # an empty map has placed nobody yet (the first tick, also after a restore); later only walkers move
        for i in self.walkers if self._buckets else range(len(self.reporters)):
            self._place(i)
        grid, side, bucket_of = self.grid, self._bucket_side, self._buckets.get
        candidates: list[tuple[int, int]] = []
        add = candidates.append
        for j, (_, (lat, lon), _) in enumerate(broadcasts):
            blat, blon = grid.meters(lat) // side, grid.meters(lon) // side
            for dlat, dlon in _NEIGHBOURS:
                ids = bucket_of((blat + dlat, blon + dlon))
                if ids:  # one probe per bucket; most are empty
                    for i in ids:
                        add((i, j))
        # (reporter, broadcast) order is the all-pairs visiting order, so the
        # loss draws and the submits come out exactly as a full scan makes them
        for i, j in sorted(candidates):
            rep = self.reporters[i]
            drone, pos, wire = broadcasts[j]
            if not geo.within_range(grid, rep.position, pos, rep.spec.sensing_range_m):
                continue
            if loss and self.rng.randrange(MICRO) < loss:
                continue
            if rep.spec.honesty == "honest":
                if drone.drone_id in rep.attempted:
                    continue
                self.ledger.submit(
                    rep.account,
                    "report_drone",
                    {
                        "droneId": drone.drone_id,
                        "rid": wire.hex(),
                        "sightingLocation": geo.format_dms_pair(*pos),
                        "sightingTime": now,
                    },
                )
            elif drone.drone_id not in rep.heard:
                rep.heard[drone.drone_id] = (wire.hex(), self.tick)
        # replayers fire after a delay, from a false position and time
        for rep in self.replayers:
            for drone_id in sorted(rep.heard):
                rid_hex, heard_tick = rep.heard[drone_id]
                if drone_id in rep.attempted or self.tick - heard_tick < rep.spec.replay_delay_ticks:
                    continue
                self.ledger.submit(
                    rep.account,
                    "report_drone",
                    {
                        "droneId": drone_id,
                        "rid": rid_hex,
                        "sightingLocation": geo.format_dms_pair(*rep.position),
                        "sightingTime": now,
                    },
                )

    def _completion_phase(self, now: int) -> None:
        for drone in self.drones:
            if drone.plan is None or drone.completed:
                continue
            if now <= drone.plan["departureEpoch"] + drone.flight_duration_s:
                continue
            self.ledger.submit(
                drone.operator_account,
                "report_completion",
                {"droneId": drone.drone_id, "ridVc": drone.plan["ridVc"]},
            )

    def run_to_end(self) -> None:
        while self.tick < self.scenario.duration_ticks:
            self.step()

    def metrics(self) -> "RunMetrics":
        return emit_metrics(self.ledger.blocks)


@dataclass
class RunMetrics:
    """Everything below is recomputed from the block log alone."""

    chain_head: str
    blocks: int
    transactions: int
    genesis_supply: int
    final_supply: int
    missions: list[dict[str, Any]]
    operators: dict[str, dict[str, int]]
    reporter_earnings: dict[str, int]
    revert_counts: dict[str, int]
    op_counts: dict[str, dict[str, int]]
    quotes: list[dict[str, int]]

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema": dict(SCHEMA),
            "kind": "metrics",
            "chainHead": self.chain_head,
            "blocks": self.blocks,
            "transactions": self.transactions,
            "genesisSupply": str(self.genesis_supply),
            "finalSupply": str(self.final_supply),
            "missions": self.missions,
            "operators": self.operators,
            "reporterEarnings": {k: str(v) for k, v in sorted(self.reporter_earnings.items())},
            "revertCounts": dict(sorted(self.revert_counts.items())),
            "opCounts": {k: self.op_counts[k] for k in sorted(self.op_counts)},
            "quotes": self.quotes,
        }


def emit_metrics(blocks: list[Block]) -> RunMetrics:
    roles: dict[str, str] = {}
    genesis_supply = 0
    missions: list[dict[str, Any]] = []
    operators: dict[str, dict[str, int]] = {}
    reporter_earnings: dict[str, int] = {}
    revert_counts: dict[str, int] = {}
    op_counts: dict[str, dict[str, int]] = {}
    quotes: list[dict[str, int]] = []
    delta_total = 0
    tx_count = 0

    for block in blocks:
        for tx in block.transactions:
            tx_count += 1
            if tx.op == "genesis":
                for acc in tx.args["accounts"]:
                    roles[acc["id"]] = acc["role"]
                    genesis_supply += acc["balance"]
                continue
            counts = op_counts.setdefault(tx.op, {"calls": 0, "reverts": 0, "stateWrites": 0})
            counts["calls"] += 1
            if tx.status == "revert":
                counts["reverts"] += 1
                revert_counts[tx.reason] = revert_counts.get(tx.reason, 0) + 1
                continue
            counts["stateWrites"] += tx.state_writes
            for account, delta in tx.balance_deltas.items():
                delta_total += delta
                if roles.get(account) == "reporter" and delta > 0:
                    reporter_earnings[account] = reporter_earnings.get(account, 0) + delta
            if tx.op == "request_quote":
                quotes.append({"congestion": tx.payload["congestion"], "fee": tx.payload["fee"]})
            elif tx.op == "report_completion":
                missions.append(
                    {
                        "droneId": tx.payload["droneId"],
                        "operator": tx.caller,
                        "payout": tx.payload["payout"],
                        "rewards": tx.payload["rewards"],
                        "penalties": tx.payload["penalties"],
                        "reputationMicro": tx.payload["reputationMicro"],
                        "kMicro": tx.payload["kMicro"],
                    }
                )
                operators[tx.caller] = {
                    "reputationMicro": tx.payload["reputationMicro"],
                    "kMicro": tx.payload["kMicro"],
                }

    head = blocks[-1].hash.hex() if blocks else "00" * 32
    return RunMetrics(
        chain_head=head,
        blocks=len(blocks),
        transactions=tx_count,
        genesis_supply=genesis_supply,
        final_supply=genesis_supply + delta_total,
        missions=missions,
        operators=operators,
        reporter_earnings=reporter_earnings,
        revert_counts=revert_counts,
        op_counts=op_counts,
        quotes=quotes,
    )


def run(scenario: Scenario) -> tuple[RunMetrics, World]:
    """Drive a whole scenario and hand back metrics plus the live world."""
    world = World(scenario)
    world.run_to_end()
    return world.metrics(), world
