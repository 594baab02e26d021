"""Acceptance gate: one test per criterion, each printing PASS or FAIL.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import contextlib
import csv
import random
import time

import oracles
from conftest import (
    broadcast_hex,
    complete,
    compliant_scenario,
    deviating_scenario,
    doas_scenario,
    finished_world,
    lonely_scenario,
    make_bench,
    plan,
    planned_drone,
    quote,
    register,
    report,
    subscribe,
)
from skyledger.economics import dynamic_fee, reputation, update_k
from skyledger.fixedmath import MICRO
from skyledger.ledger import Block, canonical_json, verify_blocks
from skyledger.persistence import load_scenario, write_reputation_surface_csv


@contextlib.contextmanager
def criterion(number: int, name: str, budget_s: float | None = None):
    start = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - start
        if budget_s is not None:
            assert elapsed < budget_s, f"criterion {number} took {elapsed:.2f}s, budget {budget_s}s"
    except BaseException:
        print(f"\nACCEPTANCE {number} {name}: FAIL", flush=True)
        raise
    print(f"\nACCEPTANCE {number} {name}: PASS ({elapsed:.2f}s)", flush=True)


# -- 1: algorithm conformance -------------------------------------------------

def test_criterion_1_algorithm_conformance():
    with criterion(1, "algorithm-conformance", budget_s=1.0):
        bench = make_bench()
        ledger, operator, outsider = bench.ledger, bench.operator, bench.second_operator
        reporter, second_reporter = bench.reporter, bench.second_reporter

        def expect(record, status, reason=None):
            assert (record.status, record.reason) == (status, reason), (
                f"{record.op}: expected {status}/{reason}, got {record.status}/{record.reason}"
            )
            return record

        # register_drone: every branch of the registration algorithm
        drone = expect(
            ledger.submit(operator, "register_drone",
                          {"serial": "SN-1", "ownerNationalId": "N-1", "signTAC": True}),
            "success",
        ).payload["droneId"]
        expect(
            ledger.submit(outsider, "register_drone",
                          {"serial": "SN-1", "ownerNationalId": "N-2", "signTAC": True}),
            "revert", "Drone already registered",
        )
        expect(
            ledger.submit(operator, "register_drone",
                          {"serial": "SN-2", "ownerNationalId": "N-1", "signTAC": False}),
            "revert", "Please accept terms and conditions",
        )
        spare = expect(
            ledger.submit(outsider, "register_drone",
                          {"serial": "SN-3", "ownerNationalId": "N-2", "signTAC": True}),
            "success",
        ).payload["droneId"]

        # subscribe
        expect(subscribe(bench, drone, caller=outsider), "revert", "Not the owner of the registered drone")
        expect(
            ledger.submit(operator, "subscribe", {"droneId": drone}, value=99),
            "revert", "Please make sure to pay the subscription fee",
        )
        expect(subscribe(bench, drone), "success")
        expect(subscribe(bench, drone), "revert", "Drone is already subscribed")

        # request_quote
        expect(quote(bench, drone, caller=outsider), "revert", "Not the owner of a registered drone")
        expect(quote(bench, spare, caller=outsider), "revert", "Drone is not subscribed")
        fee = expect(quote(bench, drone), "success").payload["fee"]

        # request_plan
        expect(plan(bench, spare, caller=outsider, value=10_000), "revert", "Not subscribed to a USS")
        expect(plan(bench, drone, value=fee - 1), "revert", "Please make sure to pay the mission plan fee")
        expect(plan(bench, drone, source="nowhere", value=fee), "revert", "invalid-dms")
        expect(plan(bench, drone, time="9999", value=fee), "revert", "invalid-datetime")
        expect(plan(bench, drone, value=fee), "success")
        expect(plan(bench, drone, value=10_000), "revert", "There is already an active plan for this drone")
        expect(subscribe(bench, spare, caller=outsider), "success")
        expect(plan(bench, spare, caller=outsider, value=10_000), "revert", "schedule-conflict")

        # report_drone
        expect(report(bench, drone, at_s=100, reporter=operator), "revert", "Owner of drone cannot report it!")
        expect(
            report(bench, drone, at_s=100, rid_hex=broadcast_hex(bench, drone, 100, vc=b"\x00" * 32)),
            "revert", "Invalid report",
        )
        expect(report(bench, drone, at_s=100, rid_hex="feed"), "revert", "malformed-rid")
        reward = expect(report(bench, drone, at_s=100), "success")
        assert reward.payload["verdict"] == "reward"
        expect(report(bench, drone, at_s=110), "revert", "not allowed to report same drone more than once")
        penalty = expect(
            report(bench, drone, at_s=120, reporter=second_reporter, lat_offset_arcsec=10), "success"
        )
        assert penalty.payload["verdict"] == "penalty"

        # report_completion
        expect(complete(bench, drone, caller=outsider), "revert", "Not owner of drone")
        expect(complete(bench, drone, vc_hex="22" * 32), "revert", "invalid-ridvc")
        settled = expect(complete(bench, drone), "success")
        assert settled.payload["payout"] == 1000 - 100 + 100
        expect(complete(bench, drone), "revert", "No active plan")


# -- 2: economics oracle equivalence ------------------------------------------

def test_criterion_2_economics_oracle_equivalence():
    with criterion(2, "economics-oracle-equivalence", budget_s=5.0):
        rng = random.Random(20_240_001)
        for _ in range(10_000):
            k = rng.randrange(0, 2 * MICRO)
            d = rng.randrange(0, 10**6)
            c = rng.randrange(0, 10**6)
            a = rng.randrange(0, 10**4)
            assert abs(dynamic_fee(k, d, c, a) - oracles.rational_fee(k, d, c, a)) <= 1
        for _ in range(10_000):
            r, p = rng.randrange(0, 10**6), rng.randrange(0, 10**6)
            assert abs(reputation(r, p) - oracles.rational_reputation(r, p)) <= 1
        for _ in range(10_000):
            rep = rng.randrange(-MICRO + 1, MICRO)
            k_prev = rng.randrange(50_000, MICRO + 1)
            alpha = rng.randrange(1, MICRO)
            assert abs(
                update_k(rep, k_prev, alpha, 50_000)
                - oracles.rational_update_k(rep, k_prev, alpha, 50_000)
            ) <= 1


# -- 3: reputation surface ------------------------------------------------------

def test_criterion_3_reputation_surface(tmp_path):
    with criterion(3, "reputation-surface", budget_s=1.0):
        assert reputation(0, 0) == 0
        surface = {}
        for r in range(51):
            for p in range(51):
                score = reputation(r, p)
                assert -MICRO < score < MICRO
                surface[(r, p)] = score
        for r in range(50):
            for p in range(51):
                assert surface[(r + 1, p)] > surface[(r, p)]
        for r in range(51):
            for p in range(50):
                assert surface[(r, p + 1)] < surface[(r, p)]
        path = tmp_path / "reputation_surface.csv"
        write_reputation_surface_csv(path, 50, 50)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 51 * 51
        assert all(int(row["reputationMicro"]) == surface[(int(row["rewards"]), int(row["penalties"]))]
                   for row in rows)


# -- 4: security invariant suite ------------------------------------------------

def _mutated_line(blocks, rng):
    """One sealed block's line with a single byte replaced, and the block's index."""
    while True:
        bi = rng.randrange(len(blocks))
        line = blocks[bi].line()
        pos = rng.randrange(len(line))
        replacement = rng.randrange(32, 127)
        if line[pos] != replacement:
            return bi, line[:pos] + bytes([replacement]) + line[pos + 1:]


def test_criterion_4_security_invariants(demo_scenario_path):
    with criterion(4, "security-invariants", budget_s=30.0):
        # (a) forged broadcasts: 10^4 fuzzed forgeries, zero acceptances
        bench = make_bench()
        target = planned_drone(bench, serial="SN-T")
        decoy = register(bench, serial="SN-D", caller=bench.second_operator)
        subscribe(bench, decoy, caller=bench.second_operator)
        other = plan(bench, decoy, caller=bench.second_operator, time="0030")
        assert other.status == "success"
        genuine = bench.uss.missions[target].plan.rid_vc
        foreign = bytes.fromhex(other.payload["ridVc"])
        rng = random.Random(41)
        accepted = 0
        for i in range(10_000):
            kind = i % 4
            if kind == 0:
                vc = rng.randbytes(32)
            elif kind == 1:
                pos = rng.randrange(32)
                vc = genuine[:pos] + bytes([genuine[pos] ^ (1 + rng.randrange(255))]) + genuine[pos + 1:]
            elif kind == 2:
                vc = foreign
            else:
                vc = bytes(32)
            rec = report(bench, target, at_s=100, rid_hex=broadcast_hex(bench, target, 100, vc=vc))
            if rec.status != "revert" or rec.reason != "Invalid report":
                accepted += 1
        assert accepted == 0
        record = bench.authority.record(target)
        assert (record.rewards, record.penalties) == (0, 0)
        assert bench.ledger.balance(bench.reporter) == 0

        # (b) one report per reporter per mission
        assert report(bench, target, at_s=100).status == "success"
        for at_s in range(101, 151):
            rec = report(bench, target, at_s=at_s)
            assert (rec.status, rec.reason) == ("revert", "not allowed to report same drone more than once")
        observers = [bench.ledger.create_account("reporter") for _ in range(5)]
        for trial in range(200):
            rec = report(bench, target, at_s=100 + trial % 60, reporter=rng.choice(observers))
        by_reporter = {}
        for s in bench.uss.storage["sightings"].values():
            by_reporter[s.reporter] = by_reporter.get(s.reporter, 0) + 1
        assert all(count == 1 for count in by_reporter.values())

        # (c) the owner can never report their own drone
        for at_s in range(100, 150):
            rec = report(bench, target, at_s=at_s, reporter=bench.operator)
            assert (rec.status, rec.reason) == ("revert", "Owner of drone cannot report it!")

        # (d) any single-byte mutation of a sealed block line is refused by the
        # reader or breaks the chain; some are read, so the hash check runs
        world = finished_world(load_scenario(demo_scenario_path))
        blocks = world.ledger.blocks
        assert verify_blocks(blocks) == (True, None)
        tamper_rng = random.Random(42)
        read = 0
        for _ in range(1_000):
            bi, line = _mutated_line(blocks, tamper_rng)
            try:
                block = Block.from_line(line)
            except (KeyError, TypeError, ValueError):
                continue
            read += 1
            ok, bad_index = verify_blocks(blocks[:bi] + [block] + blocks[bi + 1:])
            assert ok is False and bad_index is not None
        assert read > 0

        # (e) balance conservation across every scenario
        for scenario in (compliant_scenario(), deviating_scenario(), lonely_scenario(),
                         load_scenario(demo_scenario_path)):
            world = finished_world(scenario)
            metrics = world.metrics()
            assert metrics.genesis_supply == metrics.final_supply
            assert world.ledger.total_supply() == metrics.genesis_supply


# -- 5: end-to-end scenarios -----------------------------------------------------

def test_criterion_5_end_to_end_scenarios():
    with criterion(5, "end-to-end-scenarios", budget_s=60.0):
        metrics = finished_world(compliant_scenario()).metrics()
        m = metrics.missions[0]
        assert (m["rewards"], m["penalties"], m["payout"]) == (5, 0, 1500)
        assert m["payout"] >= 1000
        assert m["reputationMicro"] == 714_286 and m["reputationMicro"] > 0

        metrics = finished_world(deviating_scenario()).metrics()
        m = metrics.missions[0]
        assert (m["rewards"], m["penalties"], m["payout"]) == (0, 5, 1000 - 5 * 100)
        assert m["reputationMicro"] == -714_286  # -5/7

        metrics = finished_world(lonely_scenario()).metrics()
        m = metrics.missions[0]
        assert (m["rewards"], m["penalties"], m["payout"]) == (0, 0, 1000)
        assert m["reputationMicro"] == 0

        # denial-of-airspace pressure: the quoted fee climbs with congestion
        world = finished_world(doas_scenario(n_drones=100))
        metrics = world.metrics()
        assert len(metrics.missions) == 100
        assert world.ledger.verify_chain()
        pairs = [(q["congestion"], q["fee"]) for q in metrics.quotes]
        assert [c for c, _ in pairs] == list(range(100))
        fees = [f for _, f in pairs]
        assert all(later >= earlier for earlier, later in zip(fees, fees[1:]))
        assert fees[-1] > fees[0]


# -- 6: determinism ----------------------------------------------------------------

def test_criterion_6_determinism(demo_scenario_path):
    with criterion(6, "determinism"):
        scenario = load_scenario(demo_scenario_path)
        w1 = finished_world(scenario)
        m1 = w1.metrics()
        w2 = finished_world(scenario)
        m2 = w2.metrics()
        assert canonical_json(m1.to_dict()) == canonical_json(m2.to_dict())
        assert w1.ledger.chain_head_hex() == w2.ledger.chain_head_hex()


# -- 7: operation-count report ------------------------------------------------------

def test_criterion_7_operation_count_report(demo_scenario_path):
    with criterion(7, "operation-count-report"):
        metrics = finished_world(load_scenario(demo_scenario_path)).metrics()
        ops = metrics.op_counts
        print(f"\n{'function':<20} {'calls':>6} {'reverts':>8} {'stateWrites':>12}")
        for name in sorted(ops):
            row = ops[name]
            print(f"{name:<20} {row['calls']:>6} {row['reverts']:>8} {row['stateWrites']:>12}")
        for name in ("register_drone", "subscribe", "request_quote", "request_plan",
                     "report_drone", "report_completion"):
            assert ops[name]["calls"] >= 1, name
        # the quote is a view: it never writes state
        assert ops["request_quote"]["stateWrites"] == 0
        for name in ("register_drone", "subscribe", "request_plan", "report_completion"):
            assert ops[name]["stateWrites"] > 0
