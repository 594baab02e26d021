import dataclasses
import re

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from conftest import (
    DATE,
    DST,
    REPO_ROOT,
    SRC,
    TIME,
    compliant_scenario,
    deviating_scenario,
    dms,
    doas_scenario,
    finished_world,
    lonely_scenario,
)
from skyledger.ledger import canonical_json
from skyledger.persistence import load_scenario
from skyledger.sim import (
    DroneSpec,
    MissionSpec,
    ReporterSpec,
    Scenario,
    ScenarioError,
    World,
    emit_metrics,
)


class TestByTheBookMission:
    def test_five_honest_watchers(self):
        world = finished_world(compliant_scenario())
        metrics = world.metrics()
        assert len(metrics.missions) == 1
        m = metrics.missions[0]
        assert (m["rewards"], m["penalties"]) == (5, 0)
        assert m["payout"] == 1000 + 5 * 100
        assert m["payout"] >= 1000
        assert m["reputationMicro"] == 714_286  # 5/7
        assert m["reputationMicro"] == oracles.rational_reputation(5, 0)
        assert m["kMicro"] == 742_857
        assert m["kMicro"] == oracles.rational_update_k(714_286, 10**6, 300_000, 50_000)
        assert world.ledger.verify_chain()
        # every watcher got the fixed bounty exactly once
        assert sorted(metrics.reporter_earnings.values()) == [20] * 5

    def test_deviating_flight_collects_five_penalties(self):
        metrics = finished_world(deviating_scenario()).metrics()
        m = metrics.missions[0]
        assert (m["rewards"], m["penalties"]) == (0, 5)
        assert m["payout"] == 1000 - 5 * 100
        assert m["reputationMicro"] == -714_286  # -5/7
        assert m["reputationMicro"] == oracles.rational_reputation(0, 5)
        assert m["kMicro"] == 957_143
        assert m["kMicro"] == oracles.rational_update_k(-714_286, 10**6, 300_000, 50_000)

    def test_unwatched_flight_gets_its_deposit_back(self):
        metrics = finished_world(lonely_scenario()).metrics()
        m = metrics.missions[0]
        assert (m["rewards"], m["penalties"]) == (0, 0)
        assert m["payout"] == 1000
        assert m["reputationMicro"] == 0


class TestThreatBehaviors:
    def _one_drone(self, behavior: str, n_reporters: int = 3, **behavior_kwargs) -> Scenario:
        lon_cells = (5, 11, 17)
        return Scenario(
            name=f"threat-{behavior}",
            seed=21,
            duration_ticks=30,
            drones=(
                DroneSpec(
                    name="d0",
                    serial="SN-T-1",
                    owner_national_id="NID-T-1",
                    behavior=behavior,
                    mission=MissionSpec(SRC, DST, DATE, TIME),
                    **behavior_kwargs,
                ),
            ),
            reporters=tuple(
                ReporterSpec(name=f"r{i}", cell=(3, lon_cells[i]), sensing_range_m=200)
                for i in range(n_reporters)
            ),
        )

    def test_silent_drone_is_invisible(self):
        world = finished_world(self._one_drone("silent"))
        metrics = world.metrics()
        assert world.uss.storage["sightings"] == []
        assert "report_drone" not in metrics.op_counts
        m = metrics.missions[0]
        assert (m["rewards"], m["penalties"]) == (0, 0)
        assert m["payout"] == 1000
        assert world.trace == []

    def test_forger_only_produces_invalid_report_reverts(self):
        world = finished_world(self._one_drone("forger"))
        metrics = world.metrics()
        assert metrics.revert_counts == {"Invalid report": 3}
        m = metrics.missions[0]
        assert (m["rewards"], m["penalties"]) == (0, 0)
        assert metrics.reporter_earnings == {}

    def test_replayed_broadcast_penalizes_an_honest_flight(self):
        """A genuine code replayed at a false spot sticks: the documented
        residual risk of location-free commitments."""
        scenario = Scenario(
            name="replay",
            seed=22,
            duration_ticks=30,
            drones=(
                DroneSpec(
                    name="d0", serial="SN-R-1", owner_national_id="NID-R-1",
                    mission=MissionSpec(SRC, DST, DATE, TIME),
                ),
            ),
            reporters=(
                ReporterSpec(name="spy", cell=(4, 10), sensing_range_m=200,
                             honesty="replayer", replay_delay_ticks=3),
            ),
        )
        world = finished_world(scenario)
        metrics = world.metrics()
        m = metrics.missions[0]
        assert m["penalties"] == 1 and m["rewards"] == 0
        assert m["payout"] == 900

    def test_compliant_drone_with_watcher_never_penalized(self):
        for n in (1, 2, 3):
            metrics = finished_world(self._one_drone("compliant", n_reporters=n)).metrics()
            m = metrics.missions[0]
            assert m["penalties"] == 0
            assert m["rewards"] >= 1


class TestDeterminism:
    def test_same_seed_same_chain_and_metrics(self):
        w1 = finished_world(compliant_scenario())
        m1 = w1.metrics()
        w2 = finished_world(compliant_scenario())
        m2 = w2.metrics()
        assert w1.ledger.chain_head_hex() == w2.ledger.chain_head_hex()
        assert canonical_json(m1.to_dict()) == canonical_json(m2.to_dict())
        assert w1.ledger.state_digest() == w2.ledger.state_digest()

    def test_random_walk_reporters_are_still_deterministic(self):
        scenario = dataclasses.replace(
            compliant_scenario(),
            reporters=tuple(
                dataclasses.replace(r, random_walk=True) for r in compliant_scenario().reporters
            ),
        )
        w1 = finished_world(scenario)
        m1 = w1.metrics()
        w2 = finished_world(scenario)
        m2 = w2.metrics()
        assert w1.ledger.chain_head_hex() == w2.ledger.chain_head_hex()
        assert canonical_json(m1.to_dict()) == canonical_json(m2.to_dict())

    def test_total_loss_means_no_reports(self):
        scenario = dataclasses.replace(compliant_scenario(), loss_probability_micro=10**6)
        metrics = finished_world(scenario).metrics()
        assert "report_drone" not in metrics.op_counts
        assert metrics.missions[0]["rewards"] == 0


class TestWorldMechanics:
    def test_flying_drone_tracks_its_plan_cell_for_cell(self):
        world = World(compliant_scenario())
        plan = world.uss.missions[0].plan
        grid = world.grid
        while world.tick < world.scenario.duration_ticks:
            now = world.now()
            pos = world._drone_position(world.drones[0], now)
            if pos is not None:
                expected = oracles.interpolated_cell(
                    plan.src_arcsec, plan.dst_arcsec,
                    plan.departure_epoch, plan.arrival_epoch, now,
                    grid.cell_size_m, grid.meters_per_arcsec,
                )
                assert grid.cell_of(*pos) == expected
            world.step()
            if world.drones[0].completed:
                break

    def test_conservation_all_scenarios(self):
        for scenario in (compliant_scenario(), deviating_scenario(), lonely_scenario()):
            world = finished_world(scenario)
            metrics = world.metrics()
            assert metrics.genesis_supply == metrics.final_supply
            assert world.ledger.total_supply() == metrics.genesis_supply

    def test_metrics_recompute_from_log_alone(self):
        world = finished_world(compliant_scenario())
        metrics = world.metrics()
        replayed = emit_metrics(world.ledger.blocks)
        assert canonical_json(replayed.to_dict()) == canonical_json(metrics.to_dict())

    def test_reporter_earnings_identity(self):
        world = finished_world(compliant_scenario())
        metrics = world.metrics()
        valid_reports = sum(
            1
            for block in world.ledger.blocks
            for tx in block.transactions
            if tx.op == "report_drone" and tx.status == "success"
        )
        assert sum(metrics.reporter_earnings.values()) == 20 * valid_reports

    def test_hand_counted_reverts(self):
        # forger with one watcher: exactly one Invalid report revert
        scenario = Scenario(
            name="count",
            seed=30,
            duration_ticks=30,
            drones=(
                DroneSpec(
                    name="d0", serial="SN-N-1", owner_national_id="NID-N-1",
                    behavior="forger", mission=MissionSpec(SRC, DST, DATE, TIME),
                ),
            ),
            reporters=(ReporterSpec(name="r0", cell=(3, 11), sensing_range_m=200),),
        )
        metrics = finished_world(scenario).metrics()
        assert metrics.revert_counts == {"Invalid report": 1}
        assert metrics.op_counts["report_drone"] == {"calls": 1, "reverts": 1, "stateWrites": 0}

    def test_escrow_empty_after_everything_settles(self):
        world = finished_world(compliant_scenario())
        assert world.ledger.balance(world.uss.escrow) == 0
        assert world.uss.missions == {}

    def test_escrow_matches_future_settlements_every_tick(self):
        world = World(deviating_scenario())
        while world.tick < world.scenario.duration_ticks:
            held = world.ledger.balance(world.uss.escrow)
            assert held == sum(m.escrow for m in world.uss.missions.values())
            world.step()
        assert world.ledger.balance(world.uss.escrow) == 0


class TestSharedOperator:
    def test_reputation_chains_across_a_fleet(self):
        """Two drones under one operator settle against one k history."""
        scenario = Scenario(
            name="fleet",
            seed=33,
            duration_ticks=90,  # second mission departs at 600 s and lands at 750 s
            drones=(
                DroneSpec(
                    name="d0", serial="SN-F-1", owner_national_id="NID-F",
                    operator="fleet-op", mission=MissionSpec(SRC, DST, DATE, TIME),
                ),
                DroneSpec(
                    name="d1", serial="SN-F-2", owner_national_id="NID-F",
                    operator="fleet-op",
                    mission=MissionSpec(dms(40, 10), dms(40, 60), DATE, "0010"),
                ),
            ),
            reporters=(ReporterSpec(name="r0", cell=(3, 11), sensing_range_m=200),),
        )
        world = finished_world(scenario)
        metrics = world.metrics()
        assert len(metrics.missions) == 2
        assert len({d.operator_account for d in world.drones}) == 1
        first, second = metrics.missions
        assert first["operator"] == second["operator"]
        # the second settlement blends from the first one's k, not from 1.0
        assert second["kMicro"] == oracles.rational_update_k(
            second["reputationMicro"], first["kMicro"], 300_000, 50_000
        )
        # both missions were paid for from one funded account
        assert metrics.genesis_supply == metrics.final_supply


class TestDoasPressure:
    def test_fee_rises_with_concurrent_missions(self):
        scenario = doas_scenario(n_drones=25)
        world = finished_world(scenario)
        metrics = world.metrics()
        assert len(metrics.missions) == 25
        congestion = [q["congestion"] for q in metrics.quotes]
        fees = [q["fee"] for q in metrics.quotes]
        assert congestion == list(range(25))
        assert all(b > a for a, b in zip(fees, fees[1:]))
        assert world.ledger.verify_chain()

    def test_fixture_grid_holds_every_row(self):
        doas_scenario(n_drones=2000)  # a Scenario checks itself when built
        assert doas_scenario(n_drones=120).grid_extent_cells == 256


class TestScenarioValidation:
    def test_round_trips_through_dict(self):
        scenario = compliant_scenario()
        assert Scenario.from_dict(scenario.to_dict()) == scenario

    @pytest.mark.parametrize(
        "mutate,message",
        [
            (lambda d: d["drones"].append(dict(d["drones"][0])), "duplicate drone name"),
            (lambda d: d["drones"][0]["behavior"].update(kind="teleporting"), "unknown behavior"),
            (lambda d: d["drones"][0]["mission"].update(source="over there"), "not a DMS"),
            (lambda d: d["reporters"][0].update(cell=[9999, 0]), "outside grid"),
            (lambda d: d["reporters"][0].update(honesty="chaotic"), "unknown honesty"),
            (lambda d: d["clock"].update(tickSeconds=0), "at least 1"),
            (lambda d: d["economics"].update(alphaMicro=10**6), "economics.alphaMicro must be at most 999999"),
            (lambda d: d.update(lossProbabilityMicro=2 * 10**6), "lossProbabilityMicro"),
            # each key's declared type: JSON integers only, no coercion
            pytest.param(lambda d: d["reporters"][0].update(cell="ab"), "reporters[0].cell must be a JSON array",
                         id="cell-string"),
            pytest.param(lambda d: d.update(drones={"d": 1}), "drones must be a JSON array", id="drones-object"),
            pytest.param(lambda d: d["drones"][0]["mission"].pop("source"), "drones[0].mission.source is missing",
                         id="no-source"),
            pytest.param(lambda d: d.update(seed=[1]), "seed must be an integer", id="seed-list"),
            pytest.param(lambda d: d.update(grid=[1]), "grid must be a JSON object", id="grid-list"),
            pytest.param(lambda d: d["drones"][0].update(speedMps="fast"), "drones[0].speedMps must be an integer",
                         id="speed-string"),
            pytest.param(lambda d: d["reporters"].__setitem__(0, "x"), "reporters[0] must be a JSON object",
                         id="reporter-string"),
            pytest.param(lambda d: d.update(seed=True), "seed must be an integer", id="seed-true"),
            pytest.param(lambda d: d.update(seed=1.9), "seed must be an integer", id="seed-float"),
            pytest.param(lambda d: d.update(seed="3"), "seed must be an integer", id="seed-string"),
            pytest.param(lambda d: d["reporters"][0].update(randomWalk="no"),
                         "reporters[0].randomWalk must be a boolean", id="walk-string"),
            pytest.param(lambda d: d["reporters"][0].update(sensingRange=150),
                         "reporters[0].sensingRange is not a known key", id="unknown-key"),
            pytest.param(lambda d: d["drones"][0].update(behavior="silent"), "drones[0].behavior must be a JSON object",
                         id="behavior-string"),
            pytest.param(lambda d: d["uss"].update(altitudeBandM=0), "uss.altitudeBandM must be at least 1",
                         id="zero-band"),
            pytest.param(lambda d: d.update(seed=-1), "seed must be at least 0", id="seed-negative"),
            pytest.param(lambda d: d["uss"].update(deconflictionCellBuffer=-1),
                         "uss.deconflictionCellBuffer must be at least 0", id="negative-buffer"),
            # economics is declared like every other key: each bound names its key path
            pytest.param(lambda d: d["economics"].update(alphaMicro=0), "economics.alphaMicro must be at least 1",
                         id="alpha-zero"),
            pytest.param(lambda d: d["economics"].update(baseMissionCost=-1),
                         "economics.baseMissionCost must be at least 0", id="negative-base-cost"),
            pytest.param(lambda d: d["economics"].update(rcd=-1), "economics.rcd must be at least 0",
                         id="negative-rcd"),
            pytest.param(lambda d: d["economics"].update(surchargePerMission=-1),
                         "economics.surchargePerMission must be at least 0", id="negative-surcharge"),
            pytest.param(lambda d: d["economics"].update(kMinMicro=0), "economics.kMinMicro must be at least 1",
                         id="k-floor-zero"),
            pytest.param(lambda d: d["economics"].update(kMinMicro=10**6 + 1),
                         "economics.kMinMicro must be at most 1000000", id="k-floor-past-one"),
            pytest.param(lambda d: d["reporters"][2].update(sensingRangeM=-1),
                         "reporters[2].sensingRangeM must be at least 0", id="negative-range"),
            pytest.param(lambda d: d["drones"][0]["mission"].update(source="+٠٠٠°٠٠′١٠″ +000°00′10″"),
                         "drones[0].mission: not a DMS coordinate", id="non-ascii-dms"),
            # departure fields parse as request_plan parses them, so setup never logs an invalid-datetime revert
            pytest.param(lambda d: d["drones"][0]["mission"].update(departureDate="32132025"),
                         "drones[0].mission: month must be in 1..12", id="departure-date-32132025"),
            pytest.param(lambda d: d["drones"][0]["mission"].update(departureDate="０１０１２０２５"),
                         "drones[0].mission: malformed date/time field", id="fullwidth-departure-date"),
            pytest.param(lambda d: d["drones"][0]["mission"].update(departureTime="2400"),
                         "drones[0].mission: time out of range", id="departure-time-2400"),
            # the schema major is an exact int like every other key: a bool or a float is another version
            pytest.param(lambda d: d["schema"].update(major=True), "schema: unsupported version", id="schema-major-true"),
            pytest.param(lambda d: d["schema"].update(major=1.0), "schema: unsupported version", id="schema-major-float"),
            # altitude and speed go into a RID message's u32 centimetre fields: a scenario the wire cannot carry is refused
            pytest.param(lambda d: d["uss"].update(altitudeM=-30), "uss.altitudeM must be at least 0",
                         id="altitude-negative"),
            pytest.param(lambda d: d["uss"].update(altitudeM=10**8), "uss.altitudeM must be at most 42949672",
                         id="altitude-past-the-wire"),
            pytest.param(lambda d: d["drones"][0].update(speedMps=10**8), "drones[0].speedMps must be at most 42949672",
                         id="speed-past-the-wire"),
            pytest.param(lambda d: d["uss"].update(cruiseSpeedMps=10**8), "uss.cruiseSpeedMps must be at most 42949672",
                         id="cruise-speed-past-the-wire"),
        ],
    )
    def test_rejects_bad_configs(self, mutate, message):
        data = compliant_scenario().to_dict()
        mutate(data)
        with pytest.raises(ScenarioError, match=re.escape(message)):
            Scenario.from_dict(data)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_any_single_edit_parses_or_names_its_key_path(self, data):
        """Drop a key, retype a value or add an unknown key anywhere: a Scenario, or a ScenarioError naming the path."""
        scenario = data.draw(st.sampled_from([compliant_scenario(), _demo_scenario()]))
        tree = scenario.to_dict()
        paths = list(_json_paths(tree))
        path = data.draw(st.sampled_from(paths))
        *parents, last = path
        node = tree
        for step in parents:
            node = node[step]
        edit = data.draw(st.sampled_from(["drop", "retype", "add"]))
        if edit == "add" and isinstance(node[last], dict):
            node[last]["sensingRange"] = data.draw(_json_values)
            path = path + ("sensingRange",)
        elif edit == "drop" and isinstance(node, dict):
            del node[last]
        else:
            node[last] = data.draw(_json_values.filter(lambda v: type(v) is not type(node[last])))
        try:
            Scenario.from_dict(tree)
        except ScenarioError as exc:
            named = path[:1] if path[0] == "schema" else path  # the header is checked whole
            assert str(exc).startswith(_key_path(named)), (path, str(exc))

    def test_rejects_wrong_schema_major(self):
        data = compliant_scenario().to_dict()
        data["schema"]["major"] = 9
        with pytest.raises(ScenarioError, match="schema"):
            Scenario.from_dict(data)

    def test_mission_waypoint_outside_grid(self):
        data = compliant_scenario().to_dict()
        data["drones"][0]["mission"]["destination"] = dms(10, 100_000)
        with pytest.raises(ScenarioError, match="outside grid"):
            Scenario.from_dict(data)

    @pytest.mark.parametrize(
        "edit,message",
        [
            (lambda s: dataclasses.replace(s, tick_seconds=0), "clock.tickSeconds must be at least 1"),
            (lambda s: dataclasses.replace(s, seed=-1), "seed must be at least 0"),
            (lambda s: dataclasses.replace(s, treasury_funding=-5), "funding.treasury must be at least 0"),
            (lambda s: dataclasses.replace(s, drones=(dataclasses.replace(s.drones[0], speed_mps=0),)),
             "drones[0].speedMps must be at least 1"),
            (lambda s: dataclasses.replace(s, reporters=(dataclasses.replace(s.reporters[0], sensing_range_m=-1),)),
             "reporters[0].sensingRangeM must be at least 0"),
        ],
        ids=["zero-tick", "negative-seed", "negative-funding", "zero-speed", "negative-range"],
    )
    def test_world_refuses_out_of_range_scenario_built_in_code(self, edit, message):
        with pytest.raises(ScenarioError, match=re.escape(message)):
            World(edit(compliant_scenario()))

    def test_left_out_names_serials_and_cells_take_their_numbered_defaults(self):
        data = compliant_scenario(n_reporters=2).to_dict()
        data["drones"].append(dict(data["drones"][0]))
        for drone in data["drones"]:
            for key in ("name", "serial", "ownerNationalId"):
                del drone[key]
        for reporter in data["reporters"]:
            del reporter["name"], reporter["cell"]
        scenario = Scenario.from_dict(data)
        assert [(d.name, d.serial, d.owner_national_id) for d in scenario.drones] == [
            ("drone0", "SN-0000", "NID-0000"),
            ("drone1", "SN-0001", "NID-0001"),
        ]
        assert [(r.name, r.cell) for r in scenario.reporters] == [("reporter0", (0, 0)), ("reporter1", (0, 0))]


_json_values = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.floats(allow_nan=False), st.text(max_size=3),
    st.lists(st.integers(0, 3), max_size=2), st.dictionaries(st.sampled_from("ab"), st.integers(), max_size=1),
)


def _demo_scenario():
    return load_scenario(REPO_ROOT / "scenarios" / "demo.scenario.json")


def _json_paths(tree, prefix=()):
    """Every key and index path of a JSON tree, outer ones first."""
    items = tree.items() if isinstance(tree, dict) else enumerate(tree) if isinstance(tree, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from _json_paths(value, prefix + (key,))


def _key_path(path):
    return "".join(f"[{step}]" if isinstance(step, int) else f".{step}" for step in path).lstrip(".")
