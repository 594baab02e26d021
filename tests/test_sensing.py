"""Crowd sensing: bucketed candidate search against the all-pairs scan."""

from __future__ import annotations

import dataclasses
import sys

from hypothesis import assume, given, settings, strategies as st

import oracles
from conftest import REPO_ROOT, dms, doas_scenario
from skyledger import geo, rid, uss
from skyledger.fixedmath import MICRO
from skyledger.ledger import canonical_json
from skyledger.sim import BEHAVIOR_KINDS, DroneSpec, MissionSpec, ReporterSpec, Scenario, World

sys.path.insert(0, str(REPO_ROOT / "perfbench"))
import workloads  # noqa: E402 -- the benchmark's scenario generators, used read-only


class AllPairsWorld(World):
    _report_phase = oracles.all_pairs_report_phase
    _completion_phase = oracles.per_settlement_completion_phase


@st.composite
def sensing_scenarios(draw):
    extent = draw(st.integers(3, 10))
    cell = draw(st.sampled_from([30, 50, 100]))
    per_arcsec = draw(st.sampled_from([10, 30]))
    top = extent * cell // per_arcsec - 1  # last arcsec still inside the grid
    point = st.tuples(st.integers(0, top), st.integers(0, top))
    drones, sources = [], []  # sources in arcsec
    for i in range(draw(st.integers(1, 5))):
        src = draw(point)
        # several drones from one source put more than one drone in a cell
        sources.append(sources[0] if sources and draw(st.booleans()) else src)
        drones.append(
            DroneSpec(
                name=f"d{i}",
                serial=f"SN-{i}",
                owner_national_id=f"NID-{i}",
                mission=MissionSpec(dms(*sources[-1]), dms(*draw(point)), "01012025", draw(st.sampled_from(["0000", "0001"]))),
                # the first drone broadcasts, so that not every drone can be silent
                behavior=draw(st.sampled_from([b for b in BEHAVIOR_KINDS if i or b != "silent"])),
                offset_cells=draw(st.integers(-2, 2)),
                deviate_start_tick=draw(st.integers(0, 5)),
                speed_mps=draw(st.sampled_from([None, 5, 20])),
            )
        )
    edge = st.sampled_from([0, extent - 1])
    coord = st.one_of(edge, st.integers(0, extent - 1))
    sensing = st.one_of(st.sampled_from([0, cell, 2 * cell, cell * 3 + 1]), st.integers(0, 4 * cell))
    reporters = tuple(
        ReporterSpec(
            name=f"r{i}",
            # r0 stays where d0 takes off and hears it there, so that most scenarios reach the sensing path
            cell=tuple(a * per_arcsec // cell for a in sources[0]) if i == 0 else (draw(coord), draw(coord)),
            sensing_range_m=draw(st.integers(cell, 4 * cell) if i == 0 else sensing),
            honesty=draw(st.sampled_from(["honest", "honest", "replayer"])),
            random_walk=i > 0 and draw(st.booleans()),
            replay_delay_ticks=draw(st.integers(0, 4)),
        )
        for i in range(draw(st.integers(1, 14)))
    )
    return Scenario(
        name="sensing",
        seed=draw(st.integers(0, 2**16)),
        grid_extent_cells=extent,
        cell_size_m=cell,
        meters_per_arcsec=per_arcsec,
        duration_ticks=draw(st.integers(8, 24)),
        deconfliction_cell_buffer=0,
        deconfliction_time_buffer_s=0,
        # no loss in half the draws: at MICRO - 1 nobody ever reports
        loss_probability_micro=draw(st.one_of(st.just(0), st.sampled_from([1, MICRO // 4, MICRO // 2, MICRO - 1]))),
        drones=tuple(drones),
        reporters=reporters,
    )


def _outcome(world):
    world.run_to_end()
    return (
        world.ledger.blocks[-1].hash,
        world.ledger.state_digest(),
        world.trace,
        [(sorted(r.attempted), sorted(r.heard.items()), r.cell) for r in world.reporters],
        canonical_json(world.metrics().to_dict()),
    )


@settings(max_examples=80, deadline=None)
@given(sensing_scenarios())
def test_bucketed_tick_equals_all_pairs_scan(scenario):
    assert _outcome(World(scenario)) == _outcome(AllPairsWorld(scenario))


@settings(max_examples=60, deadline=None)
@given(sensing_scenarios())
def test_kept_placement_equals_a_fresh_one_after_every_tick(scenario):
    """Positions, buckets and the bucket map World keeps across ticks match a rebuild from the cells."""
    assume(any(r.random_walk for r in scenario.reporters))
    world = World(scenario)
    while world.tick < scenario.duration_ticks:
        world.step()
        assert oracles.cached_reporter_placement(world) == oracles.fresh_reporter_placement(world)


def test_broadcasts_on_the_grid_edge_equal_the_all_pairs_scan():
    """Drones on bucket row and column 0 (and one deviating below it) probe negative neighbour keys."""
    drones = tuple(
        DroneSpec(
            name=f"d{i}",
            serial=f"SN-{i}",
            owner_national_id=f"NID-{i}",
            mission=MissionSpec(dms(*src), dms(*dst), "01012025", f"000{i}"),
            behavior=behavior,
            offset_cells=-1 if behavior == "deviating" else 0,
        )
        for i, (src, dst, behavior) in enumerate([
            ((1, 1), (1, 40), "compliant"),    # along row 0
            ((1, 1), (40, 1), "compliant"),    # along column 0
            ((2, 30), (2, 5), "deviating"),    # one cell below row 0
            ((30, 2), (5, 2), "forger"),
        ])
    )
    cells = [(0, 0), (0, 1), (1, 0), (0, 4), (4, 0), (2, 2)]
    reporters = tuple(
        ReporterSpec(name=f"r{i}", cell=cell, sensing_range_m=120, honesty="replayer" if i == 5 else "honest")
        for i, cell in enumerate(cells)
    )
    scenario = Scenario(
        name="edge", seed=11, grid_extent_cells=16, deconfliction_cell_buffer=0, deconfliction_time_buffer_s=0,
        drones=drones, reporters=reporters,
    )
    world, sent = World(scenario), []
    broadcast_phase = world._broadcast_phase

    def recording(now):
        broadcasts = broadcast_phase(now)
        sent.extend(broadcasts)
        return broadcasts

    world._broadcast_phase = recording
    outcome = _outcome(world)
    side = world._bucket_side
    buckets = {(world.grid.meters(lat) // side, world.grid.meters(lon) // side) for _, (lat, lon), _ in sent}
    assert {0, -1} <= {lat for lat, _ in buckets} and 0 in {lon for _, lon in buckets}
    assert world.metrics().op_counts["report_drone"]["calls"] >= 4
    assert outcome == _outcome(AllPairsWorld(scenario))


def test_generated_scenarios_do_report():
    """The generator reaches the sensing path: some scenario files reports."""
    reports = []

    @settings(max_examples=30, deadline=None, database=None)
    @given(sensing_scenarios())
    def collect(scenario):
        world = World(scenario)
        world.run_to_end()
        reports.append(world.metrics().op_counts.get("report_drone", {}).get("calls", 0))

    collect()
    assert sum(1 for n in reports if n) >= len(reports) // 4


def _within_range_calls_per_tick(monkeypatch, scenario):
    calls = [0]
    exact = geo.within_range

    def counted(*args):
        calls[0] += 1
        return exact(*args)

    monkeypatch.setattr(geo, "within_range", counted)
    world = World(scenario)
    per_tick = []
    while world.tick < scenario.duration_ticks:
        before = calls[0]
        world.step()
        per_tick.append(calls[0] - before)
    return world, per_tick


def test_sensing_work_is_linear_in_reporters(monkeypatch):
    for n in (50, 200):
        world, per_tick = _within_range_calls_per_tick(monkeypatch, doas_scenario(n))
        reporters = len(world.reporters)
        broadcasting = max(len({drone_id for tick, drone_id, *_ in world.trace if tick == t}) for t in range(world.tick))
        assert broadcasting == n  # every drone is airborne at once, so all-pairs would be 2n * n
        assert max(per_tick) <= 2 * reporters
        assert sum(per_tick) <= 2 * reporters * len(per_tick)


def test_placement_work_per_tick_is_bounded_by_walkers(monkeypatch):
    calls = [0]
    exact = geo.GridConfig.cell_center_arcsec

    def counted(grid, cell_index):
        calls[0] += 1
        return exact(grid, cell_index)

    monkeypatch.setattr(geo.GridConfig, "cell_center_arcsec", counted)
    base = doas_scenario(50)
    reporters = tuple(dataclasses.replace(r, random_walk=i % 5 == 0) for i, r in enumerate(base.reporters))
    world = World(dataclasses.replace(base, reporters=reporters))
    assert calls[0] == 0  # setup places nobody
    walkers = sum(r.random_walk for r in reporters)
    per_tick = []
    while world.tick < world.scenario.duration_ticks:
        before = calls[0]
        world.step()
        per_tick.append(calls[0] - before)
    assert per_tick[0] == 2 * len(reporters)  # the first tick places every reporter once
    assert 0 < max(per_tick[1:]) <= 2 * walkers  # later, only walkers whose cell changed


def _counted(monkeypatch, owners, name):
    """Wrap function `name` where each module in `owners` looks it up; returns the list whose length is its calls."""
    calls = []
    exact = getattr(owners[0], name)

    def counted(*args):
        calls.append(args)
        return exact(*args)

    for owner in owners:
        monkeypatch.setattr(owner, name, counted)
    return calls


def _records(world):
    return [tx for block in world.ledger.blocks for tx in block.transactions]


def test_a_plan_is_hashed_once_however_often_it_is_reported(monkeypatch):
    """The RID code is hashed when the plan is accepted; a report compares with the stored code and hashes nothing."""
    hashed = _counted(monkeypatch, (rid, uss), "compute_rid_vc")
    world = World(workloads.crowd_scenario(1, 20, 120))
    world.run_to_end()
    records = _records(world)
    plans = sum(tx.op == "request_plan" and tx.status == "success" for tx in records)
    reports = sum(tx.op == "report_drone" and tx.status == "success" for tx in records)
    assert plans and reports > 5 * plans  # a crowd: several reports per plan
    assert len(hashed) == plans


def test_a_broadcast_location_is_formatted_once_per_tick(monkeypatch):
    """Every honest reporter of one broadcast files the same text; only a replayer's own position is formatted anew."""
    formatted = _counted(monkeypatch, (geo,), "format_dms_pair")
    world = World(workloads.crowd_scenario(1, 20, 120))
    world.run_to_end()
    replayers = {rep.account for rep in world.replayers}
    reports = [tx for tx in _records(world) if tx.op == "report_drone"]
    replayed = sum(tx.caller in replayers for tx in reports)
    assert replayed and len(reports) - replayed > len(world.trace)  # more honest reports than broadcasts
    assert len(formatted) <= len(world.trace) + replayed
