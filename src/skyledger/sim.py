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

import hashlib
import random
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any

from . import geo
from .authority import AuthorityContract
from .economics import FeeParams
from .fixedmath import MICRO
from .ledger import Block, Ledger
from .rid import RidFaa, RidMessage, encode_rid
from .uss import UssContract, UssParams

SCHEMA = {"major": 1, "minor": 0}

BEHAVIOR_KINDS = ("compliant", "deviating", "silent", "forger")
HONESTY_KINDS = ("honest", "replayer")


class ScenarioError(ValueError):
    """Scenario config is structurally or semantically invalid."""


@dataclass(frozen=True)
class MissionSpec:
    source: str
    destination: str
    departure_date: str
    departure_time: str


@dataclass(frozen=True)
class DroneSpec:
    name: str
    serial: str
    owner_national_id: str
    mission: MissionSpec
    behavior: str = "compliant"
    offset_cells: int = 0
    deviate_start_tick: int = 0
    speed_mps: int | None = None
    operator: str | None = None    # drones naming the same operator share reputation


@dataclass(frozen=True)
class ReporterSpec:
    name: str
    cell: tuple[int, int]
    sensing_range_m: int = 200
    honesty: str = "honest"
    random_walk: bool = False
    replay_delay_ticks: int = 3


@dataclass(frozen=True)
class Scenario:
    name: str = "scenario"
    seed: int = 0
    grid_extent_cells: int = 64
    cell_size_m: int = 100
    meters_per_arcsec: int = 30
    tick_seconds: int = 10
    duration_ticks: int = 60
    epoch_date: str = "01012025"
    fee_params: FeeParams = field(default_factory=FeeParams)
    subscription_fee: int = 100
    reporter_reward: int = 20
    fine_unit: int = 100
    bonus_unit: int = 100
    cruise_speed_mps: int = 10
    altitude_m: int = 60
    altitude_band_m: int = 30
    match_window_s: int = 120
    deconfliction_cell_buffer: int = 1
    deconfliction_time_buffer_s: int = 60
    operator_funding: int = 100_000
    reporter_funding: int = 0
    treasury_funding: int = 1_000_000
    loss_probability_micro: int = 0
    drones: tuple[DroneSpec, ...] = ()
    reporters: tuple[ReporterSpec, ...] = ()

    def grid(self) -> geo.GridConfig:
        return geo.GridConfig(self.cell_size_m, self.meters_per_arcsec)

    def uss_params(self) -> UssParams:
        return UssParams(
            fee=self.fee_params,
            subscription_fee=self.subscription_fee,
            reporter_reward=self.reporter_reward,
            fine_unit=self.fine_unit,
            bonus_unit=self.bonus_unit,
            cruise_speed_mps=self.cruise_speed_mps,
            altitude_m=self.altitude_m,
            altitude_band_m=self.altitude_band_m,
            match_window_s=self.match_window_s,
            deconfliction_cell_buffer=self.deconfliction_cell_buffer,
            deconfliction_time_buffer_s=self.deconfliction_time_buffer_s,
            epoch_date=self.epoch_date,
            grid=self.grid(),
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema": dict(SCHEMA),
            "kind": "scenario",
            "name": self.name,
            "seed": self.seed,
            "grid": {
                "extentCells": self.grid_extent_cells,
                "cellSizeM": self.cell_size_m,
                "metersPerArcsec": self.meters_per_arcsec,
            },
            "clock": {
                "tickSeconds": self.tick_seconds,
                "durationTicks": self.duration_ticks,
                "epochDate": self.epoch_date,
            },
            "economics": {
                "baseMissionCost": self.fee_params.base_cost,
                "rcd": self.fee_params.deposit,
                "surchargePerMission": self.fee_params.surcharge_per_mission,
                "alphaMicro": self.fee_params.alpha_micro,
                "kMinMicro": self.fee_params.k_min_micro,
            },
            "fees": {
                "subscriptionFee": self.subscription_fee,
                "reporterReward": self.reporter_reward,
                "fineUnit": self.fine_unit,
                "bonusUnit": self.bonus_unit,
            },
            "uss": {
                "cruiseSpeedMps": self.cruise_speed_mps,
                "altitudeM": self.altitude_m,
                "altitudeBandM": self.altitude_band_m,
                "matchWindowS": self.match_window_s,
                "deconflictionCellBuffer": self.deconfliction_cell_buffer,
                "deconflictionTimeBufferS": self.deconfliction_time_buffer_s,
            },
            "funding": {
                "operator": self.operator_funding,
                "reporter": self.reporter_funding,
                "treasury": self.treasury_funding,
            },
            "lossProbabilityMicro": self.loss_probability_micro,
            "drones": [
                {
                    "name": d.name,
                    "serial": d.serial,
                    "ownerNationalId": d.owner_national_id,
                    "behavior": {
                        "kind": d.behavior,
                        "offsetCells": d.offset_cells,
                        "startTick": d.deviate_start_tick,
                    },
                    "mission": {
                        "source": d.mission.source,
                        "destination": d.mission.destination,
                        "departureDate": d.mission.departure_date,
                        "departureTime": d.mission.departure_time,
                    },
                    "speedMps": d.speed_mps,
                    "operator": d.operator,
                }
                for d in self.drones
            ],
            "reporters": [
                {
                    "name": r.name,
                    "cell": [r.cell[0], r.cell[1]],
                    "sensingRangeM": r.sensing_range_m,
                    "honesty": r.honesty,
                    "randomWalk": r.random_walk,
                    "replayDelayTicks": r.replay_delay_ticks,
                }
                for r in self.reporters
            ],
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Scenario":
        if not isinstance(data, dict):
            raise ScenarioError("scenario must be a JSON object")
        schema = data.get("schema", {})
        if schema.get("major") != SCHEMA["major"]:
            raise ScenarioError(f"unsupported schema version {schema!r}")
        if data.get("kind", "scenario") != "scenario":
            raise ScenarioError("file is not a scenario")
        grid = data.get("grid", {})
        clock = data.get("clock", {})
        econ = data.get("economics", {})
        fees = data.get("fees", {})
        uss = data.get("uss", {})
        funding = data.get("funding", {})
        try:
            fee_params = FeeParams(
                base_cost=int(econ.get("baseMissionCost", 10)),
                deposit=int(econ.get("rcd", 1000)),
                surcharge_per_mission=int(econ.get("surchargePerMission", 2)),
                alpha_micro=int(econ.get("alphaMicro", 300_000)),
                k_min_micro=int(econ.get("kMinMicro", 50_000)),
            )
        except ValueError as exc:
            raise ScenarioError(f"bad economics block: {exc}") from None
        drones = []
        for i, d in enumerate(data.get("drones", [])):
            behavior = d.get("behavior", {"kind": "compliant"})
            if isinstance(behavior, str):
                behavior = {"kind": behavior}
            mission = d.get("mission")
            if mission is None:
                raise ScenarioError(f"drone #{i} has no mission")
            drones.append(
                DroneSpec(
                    name=str(d.get("name", f"drone{i}")),
                    serial=str(d.get("serial", f"SN-{i:04d}")),
                    owner_national_id=str(d.get("ownerNationalId", f"NID-{i:04d}")),
                    mission=MissionSpec(
                        source=str(mission["source"]),
                        destination=str(mission["destination"]),
                        departure_date=str(mission["departureDate"]),
                        departure_time=str(mission["departureTime"]),
                    ),
                    behavior=str(behavior.get("kind", "compliant")),
                    offset_cells=int(behavior.get("offsetCells", 0)),
                    deviate_start_tick=int(behavior.get("startTick", 0)),
                    speed_mps=None if d.get("speedMps") is None else int(d["speedMps"]),
                    operator=d.get("operator"),
                )
            )
        reporters = []
        for i, r in enumerate(data.get("reporters", [])):
            cell = r.get("cell", [0, 0])
            reporters.append(
                ReporterSpec(
                    name=str(r.get("name", f"reporter{i}")),
                    cell=(int(cell[0]), int(cell[1])),
                    sensing_range_m=int(r.get("sensingRangeM", 200)),
                    honesty=str(r.get("honesty", "honest")),
                    random_walk=bool(r.get("randomWalk", False)),
                    replay_delay_ticks=int(r.get("replayDelayTicks", 3)),
                )
            )
        scenario = cls(
            name=str(data.get("name", "scenario")),
            seed=int(data.get("seed", 0)),
            grid_extent_cells=int(grid.get("extentCells", 64)),
            cell_size_m=int(grid.get("cellSizeM", 100)),
            meters_per_arcsec=int(grid.get("metersPerArcsec", 30)),
            tick_seconds=int(clock.get("tickSeconds", 10)),
            duration_ticks=int(clock.get("durationTicks", 60)),
            epoch_date=str(clock.get("epochDate", "01012025")),
            fee_params=fee_params,
            subscription_fee=int(fees.get("subscriptionFee", 100)),
            reporter_reward=int(fees.get("reporterReward", 20)),
            fine_unit=int(fees.get("fineUnit", 100)),
            bonus_unit=int(fees.get("bonusUnit", 100)),
            cruise_speed_mps=int(uss.get("cruiseSpeedMps", 10)),
            altitude_m=int(uss.get("altitudeM", 60)),
            altitude_band_m=int(uss.get("altitudeBandM", 30)),
            match_window_s=int(uss.get("matchWindowS", 120)),
            deconfliction_cell_buffer=int(uss.get("deconflictionCellBuffer", 1)),
            deconfliction_time_buffer_s=int(uss.get("deconflictionTimeBufferS", 60)),
            operator_funding=int(funding.get("operator", 100_000)),
            reporter_funding=int(funding.get("reporter", 0)),
            treasury_funding=int(funding.get("treasury", 1_000_000)),
            loss_probability_micro=int(data.get("lossProbabilityMicro", 0)),
            drones=tuple(drones),
            reporters=tuple(reporters),
        )
        scenario.validate()
        return scenario

    def validate(self) -> None:
        if self.seed < 0:
            raise ScenarioError("seed must be non-negative")
        for name, value in (
            ("grid.extentCells", self.grid_extent_cells),
            ("grid.cellSizeM", self.cell_size_m),
            ("grid.metersPerArcsec", self.meters_per_arcsec),
            ("clock.tickSeconds", self.tick_seconds),
            ("clock.durationTicks", self.duration_ticks),
            ("uss.cruiseSpeedMps", self.cruise_speed_mps),
        ):
            if value < 1:
                raise ScenarioError(f"{name} must be at least 1")
        for name, value in (
            ("fees.subscriptionFee", self.subscription_fee),
            ("fees.reporterReward", self.reporter_reward),
            ("fees.fineUnit", self.fine_unit),
            ("fees.bonusUnit", self.bonus_unit),
            ("funding.operator", self.operator_funding),
            ("funding.reporter", self.reporter_funding),
            ("funding.treasury", self.treasury_funding),
        ):
            if value < 0:
                raise ScenarioError(f"{name} must be non-negative")
        if not 0 <= self.loss_probability_micro <= MICRO:
            raise ScenarioError("lossProbabilityMicro must be within [0, 1e6]")
        grid = self.grid()
        seen_names: set[str] = set()
        seen_serials: set[str] = set()
        for d in self.drones:
            if d.name in seen_names:
                raise ScenarioError(f"duplicate drone name {d.name!r}")
            seen_names.add(d.name)
            if d.serial in seen_serials:
                raise ScenarioError(f"duplicate drone serial {d.serial!r}")
            seen_serials.add(d.serial)
            if d.behavior not in BEHAVIOR_KINDS:
                raise ScenarioError(f"drone {d.name!r}: unknown behavior {d.behavior!r}")
            if d.speed_mps is not None and d.speed_mps < 1:
                raise ScenarioError(f"drone {d.name!r}: speed must be positive")
            try:
                src = geo.parse_dms_pair(d.mission.source)
                dst = geo.parse_dms_pair(d.mission.destination)
            except geo.DmsError as exc:
                raise ScenarioError(f"drone {d.name!r}: {exc}") from None
            for pos in (src, dst):
                cell = grid.cell_of(*pos)
                if not self._cell_in_grid(cell):
                    raise ScenarioError(f"drone {d.name!r}: waypoint cell {cell} outside grid")
        reporter_names: set[str] = set()
        for r in self.reporters:
            if r.name in reporter_names:
                raise ScenarioError(f"duplicate reporter name {r.name!r}")
            reporter_names.add(r.name)
            if r.honesty not in HONESTY_KINDS:
                raise ScenarioError(f"reporter {r.name!r}: unknown honesty {r.honesty!r}")
            if r.sensing_range_m < 0:
                raise ScenarioError(f"reporter {r.name!r}: sensing range must be non-negative")
            if not self._cell_in_grid(r.cell):
                raise ScenarioError(f"reporter {r.name!r}: cell {r.cell} outside grid")

    def _cell_in_grid(self, cell: tuple[int, int]) -> bool:
        return 0 <= cell[0] < self.grid_extent_cells and 0 <= cell[1] < self.grid_extent_cells


@dataclass
class TraceRow:
    tick: int
    drone_id: int
    cell: tuple[int, int]
    broadcast_hex: str


@dataclass
class _DroneState:
    spec: DroneSpec
    operator_account: str
    drone_id: int | None = None
    plan: dict[str, Any] | None = None
    flight_duration_s: int | None = None
    completed: bool = False

    @cached_property
    def waypoints(self) -> tuple[tuple[int, int], tuple[int, int]]:
        """Mission source and destination in arcseconds, parsed on first use."""
        mission = self.spec.mission
        return geo.parse_dms_pair(mission.source), geo.parse_dms_pair(mission.destination)


@dataclass
class _ReporterState:
    spec: ReporterSpec
    account: str
    cell: tuple[int, int]
    attempted: set[int] = field(default_factory=set)       # drone ids, reset per mission
    heard: dict[int, tuple[str, int]] = field(default_factory=dict)  # replayer memory


class World:
    """One live run: the ledger, the contracts, and the agents."""

    def __init__(self, scenario: Scenario):
        scenario.validate()
        self._deploy(scenario)
        self.ledger.genesis(note=scenario.name)
        self._setup()

    @classmethod
    def deployed(cls, scenario: Scenario) -> "World":
        """The accounts, contracts and agents World(scenario) creates for a valid scenario, before any transaction."""
        world = cls.__new__(cls)
        world._deploy(scenario)
        return world

    def _deploy(self, scenario: Scenario) -> None:
        self.scenario = scenario
        self.grid = scenario.grid()
        self.tick = 0
        self.rng = random.Random(scenario.seed)
        self.trace: list[TraceRow] = []
        self.ledger = Ledger()
        self.authority = AuthorityContract(self.ledger)
        nonce_seed = hashlib.sha256(b"nonce-seed:" + str(scenario.seed).encode()).digest()
        self.uss = UssContract(self.ledger, self.authority, scenario.uss_params(), nonce_seed)
        self.ledger.accounts[self.uss.treasury].balance = scenario.treasury_funding

        self.drones: list[_DroneState] = []
        operators: dict[str, str] = {}
        for spec in scenario.drones:
            op_name = spec.operator or f"op-{spec.name}"
            if op_name not in operators:
                operators[op_name] = self.ledger.create_account("operator", scenario.operator_funding)
            self.drones.append(_DroneState(spec, operators[op_name]))
        self.operator_accounts = operators
        self.reporters: list[_ReporterState] = [
            _ReporterState(spec, self.ledger.create_account("reporter", scenario.reporter_funding), spec.cell)
            for spec in scenario.reporters
        ]
        self.replayers = [rep for rep in self.reporters if rep.spec.honesty == "replayer"]

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
            drone.drone_id = reg.payload["droneId"]
            self.ledger.submit(
                drone.operator_account,
                "subscribe",
                {"droneId": drone.drone_id},
                value=self.scenario.subscription_fee,
            )
            quote = self.ledger.submit(
                drone.operator_account, "request_quote", {"droneId": drone.drone_id}
            )
            if quote.status != "success":
                continue
            plan = self.ledger.submit(
                drone.operator_account,
                "request_plan",
                {
                    "droneId": drone.drone_id,
                    "source": spec.mission.source,
                    "destination": spec.mission.destination,
                    "departureDate": spec.mission.departure_date,
                    "departureTime": spec.mission.departure_time,
                },
                value=quote.payload["fee"],
            )
            if plan.status == "success":
                drone.plan = plan.payload
                speed = spec.speed_mps or self.scenario.cruise_speed_mps
                drone.flight_duration_s = geo.flight_duration_s(self.grid, *drone.waypoints, speed)
        self.ledger.seal_block()

    # -- per-tick agent phases ----------------------------------------------

    def now(self) -> int:
        return self.tick * self.scenario.tick_seconds

    def step(self) -> None:
        """Advance one tick: move, broadcast, sense/report, complete, seal."""
        now = self.now()
        self.ledger.clock = now
        self._walk_reporters()
        broadcasts = self._broadcast_phase(now)
        self._report_phase(broadcasts, now)
        self._completion_phase(now)
        if self.ledger.pending:
            self.ledger.seal_block()
        self.tick += 1

    def _walk_reporters(self) -> None:
        extent = self.scenario.grid_extent_cells
        for rep in self.reporters:
            if not rep.spec.random_walk:
                continue
            dlat = self.rng.choice((-1, 0, 1))
            dlon = self.rng.choice((-1, 0, 1))
            rep.cell = (
                min(max(rep.cell[0] + dlat, 0), extent - 1),
                min(max(rep.cell[1] + dlon, 0), extent - 1),
            )

    def _drone_position(self, drone: _DroneState, now: int) -> tuple[int, int] | None:
        plan = drone.plan
        if plan is None or drone.completed:
            return None
        depart = plan["departureEpoch"]
        arrival = depart + drone.flight_duration_s
        if not depart <= now <= arrival:
            return None
        src, dst = drone.waypoints
        lat, lon = geo.interpolate_position(src, dst, now - depart, drone.flight_duration_s)
        if drone.spec.behavior == "deviating" and self.tick >= drone.spec.deviate_start_tick:
            offset_m = drone.spec.offset_cells * self.scenario.cell_size_m
            lat += -(-offset_m // self.scenario.meters_per_arcsec)
        return lat, lon

    def _broadcast_phase(self, now: int) -> list[tuple[_DroneState, tuple[int, int], bytes]]:
        broadcasts = []
        for drone in self.drones:
            pos = self._drone_position(drone, now)
            if pos is None or drone.spec.behavior == "silent":
                continue
            vc = bytes.fromhex(drone.plan["ridVc"])
            if drone.spec.behavior == "forger":
                vc = bytes([vc[0] ^ 0x01]) + vc[1:]
            src = drone.waypoints[0]
            speed = drone.spec.speed_mps or self.scenario.cruise_speed_mps
            wire = encode_rid(
                RidMessage(
                    RidFaa(
                        timestamp_s=now,
                        drone_lat_arcsec=pos[0],
                        drone_lon_arcsec=pos[1],
                        cs_lat_arcsec=src[0],
                        cs_lon_arcsec=src[1],
                        altitude_cm=self.scenario.altitude_m * 100,
                        velocity_cm_s=speed * 100,
                    ),
                    vc,
                )
            )
            broadcasts.append((drone, pos, wire))
            self.trace.append(TraceRow(self.tick, drone.drone_id, self.grid.cell_of(*pos), wire.hex()))
        return broadcasts

    def _reporter_arcsec(self, rep: _ReporterState) -> tuple[int, int]:
        return (
            self.grid.cell_center_arcsec(rep.cell[0]),
            self.grid.cell_center_arcsec(rep.cell[1]),
        )

    def _report_phase(self, broadcasts, now: int) -> None:
        loss = self.scenario.loss_probability_micro
        grid = self.grid
        # Bucket reporters on a grid no finer than the widest sensing range: a
        # reporter that can hear a broadcast is in one of the 3x3 buckets around it.
        side = max([self.scenario.cell_size_m] + [rep.spec.sensing_range_m for rep in self.reporters])
        positions = [self._reporter_arcsec(rep) for rep in self.reporters]
        buckets: dict[tuple[int, int], list[int]] = {}
        for i, (lat, lon) in enumerate(positions):
            buckets.setdefault((grid.meters(lat) // side, grid.meters(lon) // side), []).append(i)
        candidates = []
        for j, (_, (lat, lon), _) in enumerate(broadcasts):
            blat, blon = grid.meters(lat) // side, grid.meters(lon) // side
            for dlat in (-1, 0, 1):
                for dlon in (-1, 0, 1):
                    candidates.extend((i, j) for i in buckets.get((blat + dlat, blon + dlon), ()))
        # (reporter, broadcast) order is the all-pairs visiting order, so the
        # loss draws and the submits come out exactly as a full scan makes them
        for i, j in sorted(candidates):
            rep = self.reporters[i]
            drone, pos, wire = broadcasts[j]
            if not geo.within_range(grid, positions[i], pos, rep.spec.sensing_range_m):
                continue
            if loss and self.rng.randrange(MICRO) < loss:
                continue
            if rep.spec.honesty == "honest":
                if drone.drone_id in rep.attempted:
                    continue
                rep.attempted.add(drone.drone_id)
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
                rep.attempted.add(drone_id)
                false_pos = self._reporter_arcsec(rep)
                self.ledger.submit(
                    rep.account,
                    "report_drone",
                    {
                        "droneId": drone_id,
                        "rid": rid_hex,
                        "sightingLocation": geo.format_dms_pair(*false_pos),
                        "sightingTime": now,
                    },
                )

    def _completion_phase(self, now: int) -> None:
        settled = set()
        for drone in self.drones:
            if drone.plan is None or drone.completed:
                continue
            if now <= drone.plan["departureEpoch"] + drone.flight_duration_s:
                continue
            result = self.ledger.submit(
                drone.operator_account,
                "report_completion",
                {"droneId": drone.drone_id, "ridVc": drone.plan["ridVc"]},
            )
            if result.status == "success":
                drone.completed = True
                settled.add(drone.drone_id)
        if settled:
            for rep in self.reporters:
                rep.attempted.difference_update(settled)
                for drone_id in rep.heard.keys() & settled:
                    del rep.heard[drone_id]

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
