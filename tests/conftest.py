"""Shared builders: a wired-up contract bench and canned scenarios."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import pytest

from skyledger import geo
from skyledger.authority import AuthorityContract
from skyledger.economics import FeeParams
from skyledger.ledger import Ledger
from skyledger.rid import RidFaa, RidMessage, encode_rid
from skyledger.sim import DroneSpec, MissionSpec, ReporterSpec, Scenario, World
from skyledger.uss import UssContract

REPO_ROOT = Path(__file__).resolve().parent.parent

SRC = "+000°00′10″ +000°00′10″"
DST = "+000°00′10″ +000°01′00″"
DATE = "01012025"
TIME = "0001"  # 60 s after the scenario epoch


def dms(lat_arcsec: int, lon_arcsec: int) -> str:
    return geo.format_dms_pair(lat_arcsec, lon_arcsec)


@dataclass
class Bench:
    """Ledger + contracts + a cast of funded accounts."""

    ledger: Ledger
    authority: AuthorityContract
    uss: UssContract
    operator: str
    second_operator: str
    reporter: str
    second_reporter: str
    uss_reader: str
    third_reporter: str  # with the two above and second_operator, five accounts can report operator's drones


def make_bench(**overrides) -> Bench:
    """A bench whose USS contract reads `Scenario(**overrides)`, which also sets the treasury's and operators' funding."""
    scenario = Scenario(**overrides)
    ledger = Ledger()
    authority = AuthorityContract(ledger)
    uss = UssContract(ledger, authority, scenario)
    bench = Bench(
        ledger=ledger,
        authority=authority,
        uss=uss,
        operator=ledger.create_account("operator", scenario.operator_funding),
        second_operator=ledger.create_account("operator", scenario.operator_funding),
        reporter=ledger.create_account("reporter"),
        second_reporter=ledger.create_account("reporter"),
        uss_reader=ledger.create_account("uss"),
        third_reporter=ledger.create_account("reporter"),
    )
    ledger.genesis(note="bench")
    return bench


def register(bench: Bench, serial: str = "SN-0001", caller: str | None = None) -> int:
    rec = bench.ledger.submit(
        caller or bench.operator,
        "register_drone",
        {"serial": serial, "ownerNationalId": f"NID-{serial}", "signTAC": True},
    )
    assert rec.status == "success", rec.reason
    return rec.payload["droneId"]


def subscribe(bench: Bench, drone_id: int, caller: str | None = None):
    return bench.ledger.submit(
        caller or bench.operator,
        "subscribe",
        {"droneId": drone_id},
        value=bench.uss.params.subscription_fee,
    )


def quote(bench: Bench, drone_id: int, caller: str | None = None):
    return bench.ledger.submit(caller or bench.operator, "request_quote", {"droneId": drone_id})


def plan(
    bench: Bench,
    drone_id: int,
    source: str = SRC,
    destination: str = DST,
    date: str = DATE,
    time: str = TIME,
    value: int | None = None,
    caller: str | None = None,
):
    caller = caller or bench.operator
    if value is None:
        q = quote(bench, drone_id, caller)
        assert q.status == "success", q.reason
        value = q.payload["fee"]
    return bench.ledger.submit(
        caller,
        "request_plan",
        {
            "droneId": drone_id,
            "source": source,
            "destination": destination,
            "departureDate": date,
            "departureTime": time,
        },
        value=value,
    )


def planned_drone(bench: Bench, serial: str = "SN-0001", **plan_kwargs) -> int:
    drone_id = register(bench, serial)
    assert subscribe(bench, drone_id).status == "success"
    result = plan(bench, drone_id, **plan_kwargs)
    assert result.status == "success", result.reason
    return drone_id


def broadcast_hex(
    bench: Bench,
    drone_id: int,
    at_s: int,
    vc: bytes | None = None,
    lat_offset_arcsec: int = 0,
) -> str:
    """Wire bytes a drone flying its plan would broadcast at a moment."""
    p = bench.uss.missions[drone_id].plan
    duration = p.arrival_epoch - p.departure_epoch
    elapsed = min(max(at_s - p.departure_epoch, 0), duration)
    lat, lon = geo.interpolate_position(p.src_arcsec, p.dst_arcsec, elapsed, duration)
    msg = RidMessage(
        RidFaa(
            timestamp_s=at_s,
            drone_lat_arcsec=lat + lat_offset_arcsec,
            drone_lon_arcsec=lon,
            cs_lat_arcsec=p.src_arcsec[0],
            cs_lon_arcsec=p.src_arcsec[1],
            altitude_cm=p.altitude_m * 100,
            velocity_cm_s=1000,
        ),
        vc if vc is not None else p.rid_vc,
    )
    return encode_rid(msg).hex()


def report_args(
    bench: Bench, drone_id: int, at_s: int, rid_hex: str | None = None, lat_offset_arcsec: int = 0
) -> dict:
    """report_drone args; defaults describe an honest on-plan observation."""
    mission = bench.uss.missions.get(drone_id)
    p = mission and mission.plan
    if rid_hex is None:
        rid_hex = broadcast_hex(bench, drone_id, at_s)
    if p is not None:
        duration = p.arrival_epoch - p.departure_epoch
        elapsed = min(max(at_s - p.departure_epoch, 0), duration)
        lat, lon = geo.interpolate_position(p.src_arcsec, p.dst_arcsec, elapsed, duration)
        location = dms(lat + lat_offset_arcsec, lon)
    else:
        location = SRC
    return {"droneId": drone_id, "rid": rid_hex, "sightingLocation": location, "sightingTime": at_s}


def report(
    bench: Bench,
    drone_id: int,
    at_s: int,
    reporter: str | None = None,
    rid_hex: str | None = None,
    lat_offset_arcsec: int = 0,
):
    """File a sighting; defaults describe an honest on-plan observation."""
    args = report_args(bench, drone_id, at_s, rid_hex, lat_offset_arcsec)
    bench.ledger.clock = at_s
    return bench.ledger.submit(reporter or bench.reporter, "report_drone", args)


def complete(bench: Bench, drone_id: int, caller: str | None = None, vc_hex: str | None = None):
    if vc_hex is None:
        mission = bench.uss.missions.get(drone_id)
        vc_hex = mission.plan.rid_vc.hex() if mission else "00" * 32
    return bench.ledger.submit(
        caller or bench.operator,
        "report_completion",
        {"droneId": drone_id, "ridVc": vc_hex},
    )


def finished_world(scenario: Scenario) -> World:
    """The scenario's world, run to its last tick."""
    world = World(scenario)
    world.run_to_end()
    return world


# -- canned scenarios ---------------------------------------------------------

def compliant_scenario(n_reporters: int = 5, seed: int = 11) -> Scenario:
    """One compliant mission, honest bystanders spaced along the route."""
    lon_cells = (5, 8, 11, 14, 17)
    return Scenario(
        name="compliant",
        seed=seed,
        duration_ticks=30,
        drones=(
            DroneSpec(
                name="d0",
                serial="SN-C-1",
                owner_national_id="NID-C-1",
                mission=MissionSpec(SRC, DST, DATE, TIME),
            ),
        ),
        reporters=tuple(
            ReporterSpec(name=f"r{i}", cell=(3, lon_cells[i]), sensing_range_m=200)
            for i in range(n_reporters)
        ),
    )


def deviating_scenario(seed: int = 12) -> Scenario:
    """Off-route flight watched by honest bystanders on the deviated row."""
    lon_cells = (5, 8, 11, 14, 17)
    return Scenario(
        name="deviating",
        seed=seed,
        duration_ticks=30,
        drones=(
            DroneSpec(
                name="d0",
                serial="SN-D-1",
                owner_national_id="NID-D-1",
                behavior="deviating",
                offset_cells=2,
                deviate_start_tick=0,
                mission=MissionSpec(SRC, DST, DATE, TIME),
            ),
        ),
        reporters=tuple(
            ReporterSpec(name=f"r{i}", cell=(5, lon_cells[i]), sensing_range_m=200)
            for i in range(5)
        ),
    )


def lonely_scenario(seed: int = 13) -> Scenario:
    """A mission nobody watches."""
    return Scenario(
        name="lonely",
        seed=seed,
        duration_ticks=30,
        drones=(
            DroneSpec(
                name="d0",
                serial="SN-L-1",
                owner_national_id="NID-L-1",
                mission=MissionSpec(SRC, DST, DATE, TIME),
            ),
        ),
    )


def doas_scenario(n_drones: int = 100, seed: int = 9) -> Scenario:
    """Many concurrent missions on parallel rows, two watchers each."""
    drones, reporters = [], []
    for i in range(n_drones):
        lat = 10 + 7 * i
        drones.append(
            DroneSpec(
                name=f"d{i}",
                serial=f"SN-{i:04d}",
                owner_national_id=f"NID-{i:04d}",
                mission=MissionSpec(dms(lat, 10), dms(lat, 60), DATE, TIME),
            )
        )
        row = (lat * 30) // 100
        reporters.append(ReporterSpec(name=f"r{i}a", cell=(row, 6), sensing_range_m=150))
        reporters.append(ReporterSpec(name=f"r{i}b", cell=(row, 12), sensing_range_m=150))
    top_row = reporters[-1].cell[0] if reporters else 0
    # 256 cells for every n <= 120, which keeps the doas_scenario(100) golden pin
    return Scenario(
        name="doas",
        seed=seed,
        grid_extent_cells=max(256, top_row + 4),
        duration_ticks=25,
        drones=tuple(drones),
        reporters=tuple(reporters),
    )


# a corridor time buffer at which each plan's bisects reach windows that its row's previous plan, four minutes earlier,
# left in the neighbouring cells, and clear them; at 60 s they reach none, and from 220 s those windows conflict
CLEARING_TIME_BUFFER_S = 218


def corridor_scenario(n_drones: int, time_buffer_s: int = 60) -> Scenario:
    """Drones on four shared rows, 24 cells long, one departure a minute: each row's cells hold every earlier plan on it."""
    rows = [10 + 10 * (i % 4) for i in range(n_drones)]  # arcseconds 300 m apart, outside each other's cell buffer
    drones = tuple(
        DroneSpec(f"d{i}", f"SN-{i}", f"NID-{i}",
                  MissionSpec(dms(lat, 4), dms(lat, 84), DATE, f"{(i + 1) // 60:02d}{(i + 1) % 60:02d}"))
        for i, lat in enumerate(rows)
    )
    # no congestion surcharge: the quote, taken at clock 0, then pays for a plan that departs into traffic
    return Scenario(name="corridors", duration_ticks=1, deconfliction_time_buffer_s=time_buffer_s,
                    fee_params=FeeParams(surcharge_per_mission=0), drones=drones)


@pytest.fixture
def bench() -> Bench:
    return make_bench()


@pytest.fixture
def demo_scenario_path() -> Path:
    return REPO_ROOT / "scenarios" / "demo.scenario.json"
