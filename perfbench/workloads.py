"""Seeded input generators for the three benchmark workloads.

Each generator is a pure function of (seed, sizes): the same seed always
gives the same scenario and, for ``quote_poll``, the same client
transactions. The seed varies which drones and bystanders misbehave and
small geometric jitter, never the workload's size, so runs on different
seeds do the same amount of work to within a few percent.

The program under test only ever receives the generated ``Scenario`` and
the client transactions; nothing here reaches into its internals.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any

from skyledger import geo
from skyledger.geo import format_dms_pair, parse_dms_pair  # bound before any tracing hook
from skyledger.economics import FeeParams
from skyledger.rid import RidFaa, RidMessage, encode_rid
from skyledger.sim import DroneSpec, MissionSpec, ReporterSpec, Scenario

DATE = "01012025"
GRID = geo.GridConfig()  # 100 m cells, 30 m per arcsecond: the scenario defaults

# Default sizes. The smoke check passes smaller ones.
DOAS_SIZES = {"drones": 60}
CROWD_SIZES = {"drones": 20, "bystanders": 120}
QUOTE_POLL_SIZES = {"plans": 48, "bystanders": 40, "ops": 600, "seal_every": 50}


def dms(lat_arcsec: int, lon_arcsec: int) -> str:
    return format_dms_pair(lat_arcsec, lon_arcsec)


def _row_arcsec(row: int) -> int:
    """Latitude of a grid row's centre line, in arcseconds."""
    return GRID.cell_center_arcsec(row)


def _hhmm(minute: int) -> str:
    return f"{minute // 60:02d}{minute % 60:02d}"


# -- doas -------------------------------------------------------------------

def doas_scenario(seed: int, drones: int) -> Scenario:
    """N concurrent missions on parallel corridors, two stationary watchers each.

    The acceptance suite's pressure shape, with the grid sized to N so any
    N fits. The seed shuffles which drone gets which corridor and jitters
    corridor lengths and watcher columns by a cell or two.
    """
    rng = random.Random(seed)
    corridors = list(range(drones))
    rng.shuffle(corridors)
    specs, watchers = [], []
    for i, corridor in enumerate(corridors):
        lat = 10 + 7 * corridor  # 210 m apart: neighbours sit outside the 1-cell buffer
        dst_lon = 60 + rng.randint(-4, 4)
        specs.append(
            DroneSpec(
                name=f"d{i}",
                serial=f"SN-{i:05d}",
                owner_national_id=f"NID-{i:05d}",
                mission=MissionSpec(dms(lat, 10), dms(lat, dst_lon), DATE, "0001"),
            )
        )
        row = GRID.cell_index(lat)
        for tag, col in (("a", 6), ("b", 12)):
            watchers.append(
                ReporterSpec(name=f"r{i}{tag}", cell=(row, col + rng.randint(-1, 1)), sensing_range_m=150)
            )
    top_row = GRID.cell_index(10 + 7 * (drones - 1))
    return Scenario(
        name="doas",
        seed=seed,
        grid_extent_cells=max(64, top_row + 4),
        duration_ticks=25,
        drones=tuple(specs),
        reporters=tuple(watchers),
    )


# -- crowd ------------------------------------------------------------------

CROWD_CORRIDOR_ROWS = (10, 13, 16, 19)
CROWD_FIRST_COL, CROWD_LAST_COL = 4, 28


def crowd_scenario(seed: int, drones: int, bystanders: int) -> Scenario:
    """Few concurrent drones on staggered departures through a dense crowd.

    One departure a minute, rotating over four corridors, so about four
    missions fly at once while each passes a few dozen bystanders. The seed
    picks which drones deviate or forge and which bystanders replay or
    wander, and drives the walks and the broadcast-loss draws.
    """
    rng = random.Random(seed)
    order = list(range(drones))
    rng.shuffle(order)
    n_forger = max(1, drones // 12)
    n_deviating = max(1, drones // 8)
    behavior = {d: "forger" for d in order[:n_forger]}
    behavior.update({d: "deviating" for d in order[n_forger:n_forger + n_deviating]})

    specs = []
    for i in range(drones):
        row = CROWD_CORRIDOR_ROWS[i % len(CROWD_CORRIDOR_ROWS)]
        lat = _row_arcsec(row)
        kind = behavior.get(i, "compliant")
        specs.append(
            DroneSpec(
                name=f"d{i}",
                serial=f"SN-{i:05d}",
                owner_national_id=f"NID-{i:05d}",
                mission=MissionSpec(
                    dms(lat, _row_arcsec(CROWD_FIRST_COL)),
                    dms(lat, _row_arcsec(CROWD_LAST_COL)),
                    DATE,
                    _hhmm(1 + i),
                ),
                behavior=kind,
                offset_cells=2 if kind == "deviating" else 0,
                deviate_start_tick=0,
            )
        )

    # a regular lattice over the corridor band, two rows deeper on the side
    # deviating drones shift to; the seed assigns roles, not places, so
    # every seed puts about the same number of bystanders in range
    rows = range(CROWD_CORRIDOR_ROWS[0] - 2, CROWD_CORRIDOR_ROWS[-1] + 5)
    cols = range(CROWD_FIRST_COL, CROWD_LAST_COL + 1)
    lattice = [(r, c) for r in rows for c in cols]
    step = len(lattice) / bystanders
    people = list(range(bystanders))
    rng.shuffle(people)
    tenth = max(1, bystanders // 10)
    replayers, walkers = set(people[:tenth]), set(people[tenth:2 * tenth])
    crowd = []
    for j in range(bystanders):
        r, c = lattice[int(j * step)]
        crowd.append(
            ReporterSpec(
                name=f"b{j}",
                cell=(r, c),
                sensing_range_m=250,
                honesty="replayer" if j in replayers else "honest",
                random_walk=j in walkers,
                replay_delay_ticks=3,
            )
        )
    # the default 10 m/s cruise covers a cell per 10 s tick
    flight_ticks = CROWD_LAST_COL - CROWD_FIRST_COL
    return Scenario(
        name="crowd",
        seed=seed,
        grid_extent_cells=40,
        duration_ticks=(1 + drones) * 6 + flight_ticks + 3,
        fee_params=FeeParams(surcharge_per_mission=0),
        loss_probability_micro=100_000,
        drones=tuple(specs),
        reporters=tuple(crowd),
    )


# -- quote_poll ----------------------------------------------------------------

@dataclass
class ClientOp:
    """One client transaction: who calls which op with what args."""

    op: str
    caller: str
    args: dict[str, Any]
    drone_id: int


def quote_poll_scenario(seed: int, plans: int, bystanders: int) -> Scenario:
    """K subscribed drones with live plans that depart after the clock.

    Parallel corridors as in ``doas``, all departing at minute 1, so every
    quote at clock 0 counts all K plans as congestion. Bystanders stand in
    one far corner: no tick ever runs, they only sign reports. The seed
    reaches the program through the nonces and the client's op mix.
    """
    specs = []
    for i in range(plans):
        lat = 10 + 7 * i
        specs.append(
            DroneSpec(
                name=f"d{i}",
                serial=f"SN-{i:05d}",
                owner_national_id=f"NID-{i:05d}",
                mission=MissionSpec(dms(lat, 10), dms(lat, 60), DATE, "0001"),
            )
        )
    top_row = GRID.cell_index(10 + 7 * (plans - 1))
    extent = max(64, top_row + 4)
    crowd = tuple(
        ReporterSpec(name=f"b{j}", cell=(extent - 1, extent - 1), sensing_range_m=0)
        for j in range(bystanders)
    )
    return Scenario(
        name="quote_poll",
        seed=seed,
        grid_extent_cells=extent,
        duration_ticks=1,
        drones=tuple(specs),
        reporters=crowd,
    )


def quote_poll_ops(
    seed: int,
    ops: int,
    owners: dict[int, str],
    plans: dict[int, dict[str, Any]],
    bystanders: list[str],
    reader: str,
) -> list[ClientOp]:
    """The client's fixed, seeded transaction mix.

    In a seeded order: 20% crowd reports, 25% registry reads by the
    service supplier and the rest quotes by owners. Each report comes from
    a bystander that has not reported that drone yet and carries a valid
    commitment built from the plan's public ``ridVc``. About half of the
    reports are sighted on the plan (reward), the rest two rows off it
    (penalty).

    ``owners`` maps drone id to owner account, ``plans`` maps drone id to
    the public plan payload, ``reader`` is a service-supplier account.
    """
    rng = random.Random(seed ^ 0x5EED)
    drone_ids = sorted(plans)
    pairs = [(b, d) for b in bystanders for d in drone_ids]
    rng.shuffle(pairs)
    n_reports = min(len(pairs), ops // 5)
    n_reads = ops // 4
    kinds = ["report_drone"] * n_reports + ["get_drone"] * n_reads + ["request_quote"] * (ops - n_reports - n_reads)
    rng.shuffle(kinds)
    out: list[ClientOp] = []
    for kind in kinds:
        if kind == "report_drone":
            bystander, drone_id = pairs.pop()
            out.append(ClientOp(kind, bystander, _report_args(plans[drone_id], rng), drone_id))
        elif kind == "get_drone":
            drone_id = rng.choice(drone_ids)
            out.append(ClientOp(kind, reader, {"droneId": drone_id}, drone_id))
        else:
            drone_id = rng.choice(drone_ids)
            out.append(ClientOp(kind, owners[drone_id], {"droneId": drone_id}, drone_id))
    return out


def _report_args(plan: dict[str, Any], rng: random.Random) -> dict[str, Any]:
    src_lat, src_lon = parse_dms_pair(plan["source"])
    at_s = plan["departureEpoch"]
    lat = src_lat if rng.random() < 0.5 else src_lat + 2 * GRID.cell_size_m // GRID.meters_per_arcsec
    wire = encode_rid(
        RidMessage(
            RidFaa(
                timestamp_s=at_s,
                drone_lat_arcsec=lat,
                drone_lon_arcsec=src_lon,
                cs_lat_arcsec=src_lat,
                cs_lon_arcsec=src_lon,
                altitude_cm=plan["altitudeM"] * 100,
                velocity_cm_s=1000,
            ),
            bytes.fromhex(plan["ridVc"]),
        )
    )
    return {"droneId": plan["droneId"], "rid": wire.hex(), "sightingLocation": dms(lat, src_lon), "sightingTime": at_s}
