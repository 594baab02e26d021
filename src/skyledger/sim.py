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
# a Scenario runs when it is built are generated from that declaration,
# once per class (_codec).

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
    fee_params: FeeParams = _key("economics", FeeParams())  # frozen, so one shared default is safe
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
        return {"schema": dict(SCHEMA), "kind": "scenario", **_codec(Scenario).write(self)}

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
        return _codec(cls).read(body, "", "")

    def __post_init__(self) -> None:
        """Each key's declared bounds, then the checks that span fields; from_dict has checked the types."""
        _codec(Scenario).check(self, "", "")
        _codec(FeeParams).check(self.fee_params, "", "economics")
        check_drone, check_reporter = _codec(DroneSpec).check, _codec(ReporterSpec).check
        grid = self.grid()
        seen_names: set[str] = set()
        seen_serials: set[str] = set()
        for i, d in enumerate(self.drones):
            check_drone(d, "drones", i)
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
            check_reporter(r, "reporters", i)
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


class _Codec(typing.NamedTuple):
    read: Callable[[Any, str, _Key], Any]    # JSON value, the key path around it and its key -> instance, or ScenarioError
    write: Callable[[Any], dict[str, Any]]   # instance -> its JSON object
    check: Callable[[Any, str, _Key], None]  # instance, the key path around it and its key -> ScenarioError at a bad bound


@functools.cache
def _codec(cls: type) -> _Codec:
    """The reader, writer and bound check of a declared dataclass, generated as Python source once per class.

    Each is straight-line code, the way dataclasses builds __init__: the reader checks the object and its nested
    objects' keys, then each key's presence and exact type in field order, and calls the class once; the writer
    is one dict literal, nested objects first; the check tests only the bounded fields. A key path is formatted
    only to name it in a ScenarioError, or to hand it to the reader of an object inside this one.
    """
    env = {"cls": cls, "ScenarioError": ScenarioError, "_ABSENT": _ABSENT, "_path": _path, "_check_object": _check_object}
    hints, fields = typing.get_type_hints(cls), dataclasses.fields(cls)
    names: set[str] = set()
    groups: dict[str, dict[str, str]] = {}  # nested object key -> its key -> value source
    written: dict[str, str] = {}             # key -> value source
    reads, checks = [], []
    for i, f in enumerate(fields):
        path, kind, var = f.metadata["key"], hints[f.name], f"v{i}"
        group, _, key = path.rpartition(".")
        names.add(group or key)
        if f.metadata.get("numbered"):
            absent = f"{var} = {f.metadata['numbered']!r}.format(key)"
        elif f.default is not dataclasses.MISSING:
            env[f"d{i}"], absent = f.default, f"{var} = d{i}"
        else:
            absent = f'raise ScenarioError(f"{{_path(here, {path!r})}} is missing")'
        if group:
            groups.setdefault(group, {})
        scope = f"g{list(groups).index(group)}" if group else "data"
        reads += [f"{var} = {scope}.get({key!r}, _ABSENT)", f"if {var} is _ABSENT:", f"    {absent}", "else:",
                  *_indent(_read_source(kind, var, "here", repr(path), env))]
        (groups[group] if group else written)[key] = _write_source(kind, f"obj.{f.name}", env)
        for limit, op, word in ((f.metadata.get("min"), "<", "least"), (f.metadata.get("max"), ">", "most")):
            if limit is not None:
                checks += [f"if obj.{f.name} is not None and obj.{f.name} {op} {limit!r}:",
                           f'    raise ScenarioError(f"{{_path(_path(at, key), {path!r})}} must be at {word} {limit}")']
    env["names"] = frozenset(names)
    opened = ["here = _path(at, key)",
              "if not (isinstance(data, dict) and names.issuperset(data)):", "    _check_object(data, names, here)"]
    for j, (group, keys) in enumerate(groups.items()):
        env[f"names{j}"] = frozenset(keys)
        opened += [f"g{j} = data.get({group!r}, {{}})", f"if not (isinstance(g{j}, dict) and names{j}.issuperset(g{j})):",
                   f"    _check_object(g{j}, names{j}, _path(here, {group!r}))"]
    literal = ", ".join([*(f"{g!r}: {{{', '.join(f'{k!r}: {v}' for k, v in keys.items())}}}" for g, keys in groups.items()),
                         *(f"{k!r}: {v}" for k, v in written.items())])
    source = "\n".join(["def read(data, at, key):", *_indent(opened + reads),
                        f"    return cls({', '.join(f'v{i}' for i in range(len(fields)))})",
                        "def write(obj):", f"    return {{{literal}}}",
                        "def check(obj, at, key):", *_indent(checks or ["pass"])])
    exec(compile(source, f"<codec of {cls.__qualname__}>", "exec"), env)
    return _Codec(env["read"], env["write"], env["check"])


def _read_source(kind: Any, var: str, at: str, key: str, env: dict[str, Any]) -> list[str]:
    """Lines that check the JSON value in `var` as the declared type `kind`, a scalar, an array, an optional or an
    object, and leave the field's value in it; `at` and `key` are source of the key path around it and its key."""
    options, where = typing.get_args(kind), f"{{_path({at}, {key})}}"
    if kind in _JSON_TYPES:
        return [f"if type({var}) is not {kind.__name__}:", f'    raise ScenarioError(f"{where} must be {_JSON_TYPES[kind]}")']
    if typing.get_origin(kind) is tuple:  # tuple[X, ...], or a fixed tuple[X, Y]
        lines = [f"if not isinstance({var}, list):", f'    raise ScenarioError(f"{where} must be a JSON array")']
        if options[-1] is Ellipsis:
            return lines + [f"{var}p, {var}s = _path({at}, {key}), []", f"for {var}i, {var}_ in enumerate({var}):",
                            *_indent(_read_source(options[0], f"{var}_", f"{var}p", f"{var}i", env)),
                            f"    {var}s.append({var}_)", f"{var} = tuple({var}s)"]
        items = [f"{var}_{j}" for j in range(len(options))]
        lines += [f"if len({var}) != {len(items)}:", f'    raise ScenarioError(f"{where} must hold {len(items)} items")',
                  f"{', '.join(items)}, = {var}"]
        for j, (item, option) in enumerate(zip(items, options)):
            lines += _read_source(option, item, f"_path({at}, {key})", str(j), env)
        return lines + [f"{var} = {', '.join(items)},"]
    if type(None) in options:  # `X | None`: null or an X
        return [f"if {var} is not None:", *_indent(_read_source(options[0], var, at, key, env))]
    env[f"read_{kind.__name__}"] = _codec(kind).read
    return [f"{var} = read_{kind.__name__}({var}, {at}, {key})"]


def _write_source(kind: Any, value: str, env: dict[str, Any]) -> str:
    """Source of the JSON value of `value`, a source expression of the declared type `kind`: a scalar or an optional
    scalar as it is, an array of scalars, or of objects of one class, as a list, an object through its writer."""
    options = typing.get_args(kind)
    if kind in _JSON_TYPES or type(None) in options and options[0] in _JSON_TYPES:
        return value
    if typing.get_origin(kind) is tuple:
        (item,) = {_write_source(option, "v", env) for option in options if option is not Ellipsis}
        return f"list({value})" if item == "v" else f"[{item} for v in {value}]"
    env[f"write_{kind.__name__}"] = _codec(kind).write
    return f"write_{kind.__name__}({value})"


def _indent(lines: list[str]) -> list[str]:
    return ["    " + line for line in lines]


def _path(at: str, key: _Key) -> str:
    """Key path of `key`, an object key or an array index, inside the value at key path `at`; "" is the whole file."""
    return f"{at}[{key}]" if type(key) is int else f"{at}.{key}" if at and key else at or key


def _check_object(obj: Any, names: frozenset[str], at: str) -> None:
    if not isinstance(obj, dict):
        raise ScenarioError(f"{at or 'scenario'} must be a JSON object")
    if not names.issuperset(obj):
        raise ScenarioError(f"{_path(at, min(obj.keys() - names))} is not a known key")


@dataclass
class _DroneState:
    spec: DroneSpec
    operator_account: str
    drone_id: int | None = None
    plan: dict[str, Any] | None = None
    broadcast_vc: bytes | None = None  # the verification code it broadcasts: its plan's, flipped by a forger
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
        self.uss = UssContract(self.ledger, self.authority, scenario)

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
                    vc = bytes.fromhex(plan["ridVc"])
                    drone.broadcast_vc = bytes([vc[0] ^ 0x01]) + vc[1:] if drone.spec.behavior == "forger" else vc
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
                {"ownerNationalId": spec.owner_national_id, "serial": spec.serial, "signTAC": True},
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
                {"departureDate": spec.mission.departure_date, "departureTime": spec.mission.departure_time,
                 "destination": spec.mission.destination, "droneId": drone_id, "source": spec.mission.source},
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
            rep.cell = (min(max(rep.cell[0] + dlat, 0), extent - 1), min(max(rep.cell[1] + dlon, 0), extent - 1))

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

    def _broadcast_phase(self, now: int) -> list[tuple[_DroneState, tuple[int, int], str]]:
        broadcasts = []  # (drone, position, wire hex): the hex made once for the trace and every report
        altitude_cm, cell_of = self.scenario.altitude_m * 100, self.grid.cell_of
        for drone in self.drones:
            if drone.spec.behavior == "silent":
                continue
            pos = self._drone_position(drone, now)
            if pos is None:
                continue
            src = drone.spec.mission.points[0]
            speed_cm_s = (drone.spec.speed_mps or self.scenario.cruise_speed_mps) * 100
            # timestamp, drone lat/lon, control station (the mission source) lat/lon, altitude, velocity
            faa = RidFaa(now, pos[0], pos[1], src[0], src[1], altitude_cm, speed_cm_s)
            rid_hex = encode_rid(RidMessage(faa, drone.broadcast_vc)).hex()
            broadcasts.append((drone, pos, rid_hex))
            self.trace.append((self.tick, drone.drone_id, *cell_of(*pos), rid_hex))
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
        locations: dict[int, str] = {}  # broadcast -> its location, formatted by its first reporter
        for i, j in sorted(candidates):
            rep = self.reporters[i]
            drone, pos, rid_hex = broadcasts[j]
            if not geo.within_range(grid, rep.position, pos, rep.spec.sensing_range_m):
                continue
            if loss and self.rng.randrange(MICRO) < loss:
                continue
            if rep.spec.honesty == "honest":
                if drone.drone_id not in rep.attempted:
                    if j not in locations:
                        locations[j] = geo.format_dms_pair(*pos)
                    self._report(rep, drone.drone_id, rid_hex, locations[j], now)
            elif drone.drone_id not in rep.heard:
                rep.heard[drone.drone_id] = (rid_hex, self.tick)
        # replayers fire after a delay, from a false position and time
        for rep in self.replayers:
            for drone_id in sorted(rep.heard):
                rid_hex, heard_tick = rep.heard[drone_id]
                if drone_id not in rep.attempted and self.tick - heard_tick >= rep.spec.replay_delay_ticks:
                    self._report(rep, drone_id, rid_hex, geo.format_dms_pair(*rep.position), now)

    def _report(self, rep: _ReporterState, drone_id: int, rid_hex: str, location: str, now: int) -> None:
        """File one report_drone: the drone heard, its broadcast, and where (DMS) and when the reporter says it was seen."""
        args = {"droneId": drone_id, "rid": rid_hex, "sightingLocation": location, "sightingTime": now}
        self.ledger.submit(rep.account, "report_drone", args)

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
            if tx.op == "request_quote":  # a row is its logged payload: op_request_quote and _close_mission name the keys
                quotes.append(dict(tx.payload))
            elif tx.op == "report_completion":
                missions.append({**tx.payload, "operator": tx.caller})
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
