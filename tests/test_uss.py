import collections
import copy
import dataclasses
import random

import pytest
from hypothesis import event, given, settings, strategies as st

import oracles
from conftest import (
    CLEARING_TIME_BUFFER_S,
    DATE,
    DST,
    SRC,
    TIME,
    broadcast_hex,
    complete,
    compliant_scenario,
    corridor_scenario,
    deviating_scenario,
    dms,
    make_bench,
    plan,
    planned_drone,
    quote,
    register,
    report,
    report_args,
    subscribe,
)
from skyledger import geo, ledger, persistence, uss
from skyledger.economics import FeeParams
from skyledger.ledger import ContractRevert, Ledger
from skyledger.rid import compute_rid_vc
from skyledger.sim import DroneSpec, MissionSpec, ReporterSpec, Scenario, World
from skyledger.uss import Mission, MissionPlan, parse_departure_epoch, SUBSCRIPTION_PERIOD_S, UssContract
from test_golden import GOLDEN, _stepped_to


def _plans(uss):
    """The active plans, read from the contract's missions."""
    return [m.plan for m in uss.missions.values()]


def small_fee_bench(**kwargs):
    """Deposit 5, base 10, surcharge 2: the hand-checkable fee setting."""
    return make_bench(
        fee_params=FeeParams(base_cost=10, deposit=5, surcharge_per_mission=2),
        fine_unit=1,
        bonus_unit=1,
        reporter_reward=1,
        **kwargs,
    )


class TestSubscribe:
    def test_owner_exact_fee(self, bench):
        drone_id = register(bench)
        treasury_before = bench.ledger.balance(bench.uss.treasury)
        rec = subscribe(bench, drone_id)
        assert rec.status == "success"
        assert bench.ledger.balance(bench.uss.treasury) == treasury_before + 100

    def test_non_owner_reverts_verbatim(self, bench):
        drone_id = register(bench)
        rec = subscribe(bench, drone_id, caller=bench.second_operator)
        assert (rec.status, rec.reason) == ("revert", "Not the owner of the registered drone")

    def test_double_subscribe_reverts_verbatim(self, bench):
        drone_id = register(bench)
        subscribe(bench, drone_id)
        rec = subscribe(bench, drone_id)
        assert (rec.status, rec.reason) == ("revert", "Drone is already subscribed")

    def test_underpayment_reverts_and_refunds(self, bench):
        drone_id = register(bench)
        before = bench.ledger.balance(bench.operator)
        rec = bench.ledger.submit(bench.operator, "subscribe", {"droneId": drone_id}, value=99)
        assert (rec.status, rec.reason) == ("revert", "Please make sure to pay the subscription fee")
        assert bench.ledger.balance(bench.operator) == before

    def test_overpayment_also_rejected(self, bench):
        drone_id = register(bench)
        rec = bench.ledger.submit(bench.operator, "subscribe", {"droneId": drone_id}, value=101)
        assert rec.reason == "Please make sure to pay the subscription fee"

    def test_unregistered_drone(self, bench):
        rec = bench.ledger.submit(bench.operator, "subscribe", {"droneId": 7}, value=100)
        assert (rec.status, rec.reason) == ("revert", "unknown-drone")


class TestQuote:
    def test_empty_sky_fee(self):
        bench = small_fee_bench()
        drone_id = register(bench)
        subscribe(bench, drone_id)
        rec = quote(bench, drone_id)
        assert rec.status == "success"
        assert rec.payload == {"fee": 15, "congestion": 0}

    def test_fee_under_one_concurrent_mission(self):
        bench = small_fee_bench()
        first = planned_drone(bench, serial="SN-A")
        other = register(bench, serial="SN-B", caller=bench.second_operator)
        subscribe(bench, other, caller=bench.second_operator)
        bench.ledger.clock = 100  # inside the first mission's window
        rec = quote(bench, other, caller=bench.second_operator)
        assert rec.payload == {"fee": 17, "congestion": 1}

    def test_not_subscribed_reverts_verbatim(self, bench):
        drone_id = register(bench)
        rec = quote(bench, drone_id)
        assert (rec.status, rec.reason) == ("revert", "Drone is not subscribed")

    def test_non_owner_reverts_verbatim(self, bench):
        drone_id = register(bench)
        subscribe(bench, drone_id)
        rec = quote(bench, drone_id, caller=bench.second_operator)
        assert (rec.status, rec.reason) == ("revert", "Not the owner of a registered drone")

    def test_view_writes_nothing(self, bench):
        drone_id = register(bench)
        subscribe(bench, drone_id)
        rec = quote(bench, drone_id)
        assert rec.state_writes == 0
        assert rec.balance_deltas == {}


class TestRequestPlan:
    def test_successful_plan(self, bench):
        drone_id = register(bench)
        subscribe(bench, drone_id)
        rec = plan(bench, drone_id)
        assert rec.status == "success"
        payload = rec.payload
        assert payload["ridVc"] != "00" * 32 and len(payload["ridVc"]) == 64
        assert payload["route"]
        assert bench.authority.record(drone_id).has_active_plan is True
        # the refundable deposit sits in escrow, the rest in the treasury
        assert bench.ledger.balance(bench.uss.escrow) == bench.uss.params.fee_params.deposit

    def test_second_active_plan_reverts_verbatim(self, bench):
        drone_id = planned_drone(bench)
        rec = plan(bench, drone_id, value=10_000)
        assert (rec.status, rec.reason) == ("revert", "There is already an active plan for this drone")

    def test_not_subscribed_reverts_verbatim(self, bench):
        drone_id = register(bench)
        rec = plan(bench, drone_id, value=10_000)
        assert (rec.status, rec.reason) == ("revert", "Not subscribed to a USS")

    def test_underpayment_reverts_verbatim(self, bench):
        drone_id = register(bench)
        subscribe(bench, drone_id)
        q = quote(bench, drone_id).payload["fee"]
        state = bench.ledger.state_digest()
        rec = plan(bench, drone_id, value=q - 1)
        assert (rec.status, rec.reason) == ("revert", "Please make sure to pay the mission plan fee")
        assert bench.ledger.state_digest() == state

    def test_expired_subscription_cannot_plan(self, bench):
        drone_id = register(bench)
        subscribe(bench, drone_id)
        bench.ledger.clock = SUBSCRIPTION_PERIOD_S + 1
        rec = plan(bench, drone_id, value=10_000)
        assert (rec.status, rec.reason) == ("revert", "Not subscribed to a USS")

    def test_subscription_still_plans_at_its_expiry(self, bench):
        drone_id = register(bench)
        assert subscribe(bench, drone_id).payload["expiry"] == SUBSCRIPTION_PERIOD_S  # subscribed at clock 0
        bench.ledger.clock = SUBSCRIPTION_PERIOD_S
        assert plan(bench, drone_id, value=10_000).status == "success"

    def test_invalid_dms_reverts_before_any_state_change(self, bench):
        drone_id = register(bench)
        subscribe(bench, drone_id)
        state = bench.ledger.state_digest()
        rec = plan(bench, drone_id, source="garbage", value=10_000)
        assert (rec.status, rec.reason) == ("revert", "invalid-dms")
        assert bench.ledger.state_digest() == state
        assert bench.authority.record(drone_id).has_active_plan is False

    def test_invalid_datetime_reverts(self, bench):
        drone_id = register(bench)
        subscribe(bench, drone_id)
        rec = plan(bench, drone_id, time="2500", value=10_000)
        assert (rec.status, rec.reason) == ("revert", "invalid-datetime")
        rec = plan(bench, drone_id, date="32132025", value=10_000)
        assert (rec.status, rec.reason) == ("revert", "invalid-datetime")

    @pytest.mark.parametrize(
        "field,text,reason",
        [
            ("source", "+٠٠٠°٠٠′١٠″ +000°00′10″", "invalid-dms"),   # Arabic-Indic digits
            ("destination", "+000°00′10″ +000°01′٠٠″", "invalid-dms"),
            ("time", "٠٠٠١", "invalid-datetime"),
            ("date", "０１０１２０２５", "invalid-datetime"),          # fullwidth digits
        ],
    )
    def test_non_ascii_digits_revert(self, bench, field, text, reason):
        """Each point and time has one text, so a plan and its commitment have one form."""
        drone_id = register(bench)
        subscribe(bench, drone_id)
        state = bench.ledger.state_digest()
        rec = plan(bench, drone_id, value=10_000, **{field: text})
        assert (rec.status, rec.reason) == ("revert", reason)
        assert bench.ledger.state_digest() == state

    def test_departure_fields_take_ascii_digits_only(self):
        assert parse_departure_epoch(DATE, TIME, "01012025") == 60
        for date, time, epoch in (("01012025", "٠٠٠١", "01012025"), ("٠١٠١٢٠٢٥", TIME, "01012025"),
                                  (DATE, TIME, "０１０１２０２５")):
            with pytest.raises(ValueError, match="malformed date/time field"):
                parse_departure_epoch(date, time, epoch)

    @pytest.mark.parametrize("date,epoch,days", [("01032024", "01012024", 60), ("01032100", "01012100", 59)])
    def test_departure_days_follow_the_gregorian_leap_rule(self, date, epoch, days):
        assert parse_departure_epoch(date, "0000", epoch) == days * 86400

    @pytest.mark.parametrize("date", ["29022100", "01010000"], ids=["feb-29-of-a-century", "year-0000"])
    def test_departure_date_off_the_calendar_raises(self, date):
        with pytest.raises(ValueError):
            parse_departure_epoch(date, "0000", "01012025")

    def test_repeat_mission_gets_fresh_commitment(self, bench):
        """Same plan fields, new nonce, different verification code."""
        drone_id = planned_drone(bench)
        first = bench.uss.missions[drone_id].plan
        first_vc = first.rid_vc.hex()
        assert first.rid_vc == compute_rid_vc(
            bench.uss.missions[drone_id].nonce, bench.operator,
            first.source, first.destination, first.departure_date, first.departure_time,
        )
        bench.ledger.clock = 1000  # past arrival
        assert complete(bench, drone_id).status == "success"
        second = plan(bench, drone_id)
        assert second.status == "success"
        assert second.payload["ridVc"] != first_vc
        # and the fresh commitment also recomputes from its stored nonce
        again = bench.uss.missions[drone_id].plan
        assert again.rid_vc == compute_rid_vc(
            bench.uss.missions[drone_id].nonce, bench.operator,
            again.source, again.destination, again.departure_date, again.departure_time,
        )

    def test_overpayment_accepted_and_kept_by_treasury(self, bench):
        drone_id = register(bench)
        subscribe(bench, drone_id)
        fee = quote(bench, drone_id).payload["fee"]
        treasury_before = bench.ledger.balance(bench.uss.treasury)
        rec = plan(bench, drone_id, value=fee + 250)
        assert rec.status == "success"
        deposit = bench.uss.params.fee_params.deposit
        assert bench.ledger.balance(bench.uss.treasury) == treasury_before + fee + 250 - deposit


class TestScheduleRoute:
    def test_empty_airspace_accepts(self, bench):
        drone_id = register(bench)
        subscribe(bench, drone_id)
        assert plan(bench, drone_id).status == "success"

    def _second_drone(self, bench):
        other = register(bench, serial="SN-2", caller=bench.second_operator)
        subscribe(bench, other, caller=bench.second_operator)
        return other

    def _oracle_conflict(self, bench, plan_route, source, destination, time):
        """Brute-force occupancy overlap for a hypothetical second flight."""
        grid = bench.uss.grid
        src = geo.parse_dms_pair(source)
        dst = geo.parse_dms_pair(destination)
        from skyledger.uss import parse_departure_epoch

        depart = parse_departure_epoch(DATE, time, bench.uss.params.epoch_date)
        duration = geo.flight_duration_s(grid, src, dst, bench.uss.params.cruise_speed_mps)
        band = bench.uss.params.altitude_m // bench.uss.params.altitude_band_m
        candidate = geo.route_occupancy(grid, src, dst, depart, duration, band)
        as_dicts = lambda ws: [
            {"latIdx": w.lat_idx, "lonIdx": w.lon_idx, "altBand": w.alt_band,
             "enterS": w.enter_s, "exitS": w.exit_s}
            for w in ws
        ]
        return oracles.brute_force_conflict(
            as_dicts(plan_route), as_dicts(candidate),
            bench.uss.params.deconfliction_cell_buffer,
            bench.uss.params.deconfliction_time_buffer_s,
        )

    def test_identical_mission_conflicts(self, bench):
        drone_id = planned_drone(bench)
        other = self._second_drone(bench)
        rec = plan(bench, other, caller=bench.second_operator)
        assert (rec.status, rec.reason) == ("revert", "schedule-conflict")
        assert self._oracle_conflict(bench, bench.uss.missions[drone_id].plan.route, SRC, DST, TIME)

    def test_departure_shifted_beyond_buffer_accepted(self, bench):
        drone_id = planned_drone(bench)  # occupies 60..210, buffer 60
        other = self._second_drone(bench)
        rec = plan(bench, other, caller=bench.second_operator, time="0005")  # departs 300
        assert rec.status == "success"
        assert not self._oracle_conflict(bench, bench.uss.missions[drone_id].plan.route, SRC, DST, "0005")

    def test_departure_shift_inside_buffer_conflicts(self, bench):
        drone_id = planned_drone(bench)
        other = self._second_drone(bench)
        rec = plan(bench, other, caller=bench.second_operator, time="0002")  # trails by 60 s
        assert (rec.status, rec.reason) == ("revert", "schedule-conflict")
        assert self._oracle_conflict(bench, bench.uss.missions[drone_id].plan.route, SRC, DST, "0002")

    def test_trailing_separation_beyond_buffer_accepted(self, bench):
        # same corridor 180 s behind: every cell-time gap exceeds the buffer
        drone_id = planned_drone(bench)
        other = self._second_drone(bench)
        rec = plan(bench, other, caller=bench.second_operator, time="0004")
        assert rec.status == "success"
        assert not self._oracle_conflict(bench, bench.uss.missions[drone_id].plan.route, SRC, DST, "0004")

    def test_adjacent_row_within_cell_buffer_conflicts(self, bench):
        drone_id = planned_drone(bench)  # row 3
        other = self._second_drone(bench)
        src, dst = dms(14, 10), dms(14, 60)  # 420 m -> row 4
        rec = plan(bench, other, caller=bench.second_operator, source=src, destination=dst)
        assert (rec.status, rec.reason) == ("revert", "schedule-conflict")
        assert self._oracle_conflict(bench, bench.uss.missions[drone_id].plan.route, src, dst, TIME)

    def test_two_rows_apart_accepted(self, bench):
        drone_id = planned_drone(bench)  # row 3
        other = self._second_drone(bench)
        src, dst = dms(17, 10), dms(17, 60)  # 510 m -> row 5
        rec = plan(bench, other, caller=bench.second_operator, source=src, destination=dst)
        assert rec.status == "success"
        assert not self._oracle_conflict(bench, bench.uss.missions[drone_id].plan.route, src, dst, TIME)

    @staticmethod
    def _as_dicts(route):
        return [
            {"latIdx": w.lat_idx, "lonIdx": w.lon_idx, "altBand": w.alt_band, "enterS": w.enter_s, "exitS": w.exit_s}
            for w in route
        ]

    @staticmethod
    def _install_plan(bench, drone_id, src, dst, depart, slowdown=1, band_shift=0):
        """An active plan put straight into storage and the airspace index, routed as request_plan routes it.

        With a slowdown of k the leg takes k times as long, and its windows k times longer, than the cruise speed gives.
        """
        uss = bench.uss
        grid, band = uss.grid, uss.params.altitude_m // uss.params.altitude_band_m + band_shift
        duration = geo.flight_duration_s(grid, src, dst, uss.params.cruise_speed_mps) * slowdown
        plan = MissionPlan(
            drone_id, bench.operator, dms(*src), dms(*dst), DATE, TIME, depart, depart + duration,
            src, dst, uss.params.altitude_m, band,
            geo.route_occupancy(grid, src, dst, depart, duration, band), b"\0" * 32,
        )
        uss.missions[drone_id] = Mission(plan, b"\0" * 16, {}, 0, 0)
        uss.index_plan(plan)
        return plan

    @staticmethod
    def _conflicts(uss, src, dst, depart):
        try:
            uss.schedule_route(src, dst, depart)
        except ContractRevert as exc:
            assert exc.reason == "schedule-conflict"
            return True
        return False

    @pytest.mark.parametrize("buf_cells", [0, 1, 2])
    @pytest.mark.parametrize("shift", [(1, 0), (-1, 0), (0, 1), (0, -1)])
    def test_parallel_leg_at_the_cell_buffer_edge(self, buf_cells, shift):
        bench = make_bench(deconfliction_cell_buffer=buf_cells)
        center = bench.uss.grid.cell_center_arcsec
        along_lon = shift[0] != 0  # a row for a lat shift, a column for a lon shift

        def leg(offset):
            a, b = (center(10 + offset), center(2)), (center(10 + offset), center(8))
            return (a, b) if along_lon else (a[::-1], b[::-1])

        self._install_plan(bench, 0, *leg(0), 100)
        sign = shift[0] + shift[1]
        assert self._conflicts(bench.uss, *leg(sign * buf_cells), 100)
        assert not self._conflicts(bench.uss, *leg(sign * (buf_cells + 1)), 100)

    @pytest.mark.parametrize("buf_s", [0, 60])
    def test_flight_at_the_time_buffer_edge(self, buf_s):
        bench = make_bench(deconfliction_time_buffer_s=buf_s)
        src, dst = (10, 10), (20, 40)  # diagonal
        other = self._install_plan(bench, 0, src, dst, 500)
        duration = other.arrival_epoch - other.departure_epoch
        assert self._conflicts(bench.uss, dst, src, other.arrival_epoch + buf_s)
        assert not self._conflicts(bench.uss, dst, src, other.arrival_epoch + buf_s + 1)
        assert self._conflicts(bench.uss, dst, src, other.departure_epoch - buf_s - duration)
        assert not self._conflicts(bench.uss, dst, src, other.departure_epoch - buf_s - duration - 1)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_conflict_iff_brute_force_finds_one(self, data):
        draw = data.draw
        buf_cells, buf_s = draw(st.integers(0, 2)), draw(st.integers(0, 90))
        bench = make_bench(deconfliction_cell_buffer=buf_cells, deconfliction_time_buffer_s=buf_s)
        uss = bench.uss
        grid, speed = uss.grid, uss.params.cruise_speed_mps
        band = uss.params.altitude_m // uss.params.altitude_band_m
        point = st.tuples(st.integers(0, 24), st.integers(0, 24))  # legs over ~8x8 cells
        for drone_id in range(draw(st.integers(0, 4))):
            src, dst = draw(point), draw(point)
            # rows and columns as well as diagonals
            dst = draw(st.sampled_from([dst, (src[0], dst[1]), (dst[0], src[1])]))
            self._install_plan(bench, drone_id, src, dst, draw(st.integers(0, 400)))
        # place the new flight at the edges of one plan: right after it (from its destination),
        # right before it (into its source), or beside it, a few cells off its track
        mode = draw(st.sampled_from(["free", "after", "before", "beside"] if uss.missions else ["free"]))
        other = uss.missions[draw(st.sampled_from(sorted(uss.missions)))].plan if uss.missions else None
        src, dst = draw(point), draw(point)
        if mode == "after":
            src = other.dst_arcsec
        elif mode == "before":
            dst = other.src_arcsec
        elif mode == "beside":
            shift = draw(st.integers(-10, 10))
            dlat, dlon = draw(st.sampled_from([(shift, 0), (0, shift), (shift, shift)]))
            src = (other.src_arcsec[0] + dlat, other.src_arcsec[1] + dlon)
            dst = (other.dst_arcsec[0] + dlat, other.dst_arcsec[1] + dlon)
        duration = geo.flight_duration_s(grid, src, dst, speed)
        nudge = draw(st.sampled_from([-1, 0, 1]))
        depart = {
            "free": lambda: draw(st.integers(0, 400)),
            "after": lambda: other.arrival_epoch + buf_s + nudge,  # touches the time buffer at nudge 0
            "before": lambda: other.departure_epoch - buf_s - duration + nudge,
            "beside": lambda: other.departure_epoch + draw(st.integers(-buf_s - 30, buf_s + 30)),
        }[mode]()
        candidate = self._as_dicts(geo.route_occupancy(grid, src, dst, depart, duration, band))
        expected = any(
            oracles.brute_force_conflict(self._as_dicts(p.route), candidate, buf_cells, buf_s)
            for p in _plans(uss)
        )
        event(f"{mode} conflict={expected}")
        assert self._conflicts(uss, src, dst, depart) == expected

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_conflict_iff_brute_force_finds_one_in_any_index(self, data):
        """Plans indexed as they are, with no deconfliction among them: overlapping, in another band, off the grid, or
        slow legs indexed last, whose windows outlast every window indexed before. The check bounds how far back a
        window can have entered by the longest window indexed, and it walks the rows and cells held when the cell
        buffer spans more of them than the index holds, so it must stay exact whatever the index holds."""
        draw = data.draw
        # cell buffers up to 10^9, where a lookup per offset in the buffer would not end
        buf_cells = draw(st.one_of(st.integers(0, 2), st.integers(0, 8), st.integers(0, 10**9)))
        buf_s = draw(st.integers(0, 90))
        bench = make_bench(deconfliction_cell_buffer=buf_cells, deconfliction_time_buffer_s=buf_s)
        uss = bench.uss
        grid, speed = uss.grid, uss.params.cruise_speed_mps
        band = uss.params.altitude_m // uss.params.altitude_band_m
        point = st.tuples(st.integers(0, 24), st.integers(0, 24))  # legs over ~8x8 cells
        legs = []
        for _ in range(draw(st.integers(1, 4))):
            src, dst = draw(point), draw(point)
            dst = draw(st.sampled_from([dst, (src[0], dst[1]), (dst[0], src[1])]))
            # the grid is 64 cells (213 arcseconds) wide: some legs lie below it or beyond it
            dlat, dlon = draw(st.sampled_from([(0, 0), (0, 0), (-40, 0), (0, 220)]))
            src, dst = (src[0] + dlat, src[1] + dlon), (dst[0] + dlat, dst[1] + dlon)
            legs.append((src, dst, draw(st.integers(0, 400)), draw(st.sampled_from([1, 1, 3, 8])),
                         draw(st.sampled_from([0, 0, 1]))))
        if draw(st.booleans()):
            legs.sort(key=lambda leg: leg[3])  # the slowest legs last
        for drone_id, (src, dst, depart, slowdown, band_shift) in enumerate(legs):
            self._install_plan(bench, drone_id, src, dst, depart, slowdown, band_shift)
        # the new flight leaves one plan's destination a time buffer after its last window, which may be the
        # longest indexed, closes; or starts along the plan while it is in the air; or ends at its source a time
        # buffer before it departs; or flies free
        mode = draw(st.sampled_from(["free", "after", "during", "before"]))
        other = uss.missions[draw(st.sampled_from(sorted(uss.missions)))].plan
        src, dst = draw(point), draw(point)
        if mode == "after":
            src = other.dst_arcsec
        elif mode == "during":
            src = other.src_arcsec
        elif mode == "before":
            dst = other.src_arcsec
        duration = geo.flight_duration_s(grid, src, dst, speed)
        nudge = draw(st.sampled_from([-1, 0, 1]))
        depart = {
            "free": lambda: draw(st.integers(0, 400)),
            "after": lambda: other.arrival_epoch + buf_s + nudge,
            "during": lambda: draw(st.integers(other.departure_epoch, other.arrival_epoch)),
            "before": lambda: other.departure_epoch - buf_s - duration + nudge,
        }[mode]()
        candidate = self._as_dicts(geo.route_occupancy(grid, src, dst, depart, duration, band))
        expected = any(
            oracles.brute_force_conflict(self._as_dicts(p.route), candidate, buf_cells, buf_s)
            for p in _plans(uss)
        )
        event(f"{mode} conflict={expected}")
        assert self._conflicts(uss, src, dst, depart) == expected


def test_conflict_checks_per_plan_stay_within_its_route(monkeypatch):
    """Plans on shared corridors are checked against the windows near each of theirs in time, not every window near in space."""
    calls, per_plan = [0], []
    exact_conflict, exact_schedule = geo.windows_conflict, UssContract.schedule_route

    def counted(*args):
        calls[0] += 1
        return exact_conflict(*args)

    def scheduled(self, *args):
        before = calls[0]
        route, arrival = exact_schedule(self, *args)
        per_plan.append((calls[0] - before, len(route)))
        return route, arrival

    monkeypatch.setattr(geo, "windows_conflict", counted)
    monkeypatch.setattr(UssContract, "schedule_route", scheduled)
    for buffer_s in (60, CLEARING_TIME_BUFFER_S):
        for n in (20, 80):
            per_plan.clear()
            world = World(corridor_scenario(n, buffer_s))
            assert len(world.uss.missions) == len(per_plan) == n  # every plan is accepted
            assert all(checks <= windows for checks, windows in per_plan), max(per_plan)
        if buffer_s == CLEARING_TIME_BUFFER_S:
            assert sum(checks for checks, _ in per_plan) > 0  # the bisects reached windows, and every one cleared


def test_no_op_makes_more_calls_per_submit_as_history_grows(monkeypatch):
    """The counted form of "a transaction's cost does not grow with history", which host noise cannot move.

    Corridor runs at n and 4n drones, flown to their settlements past one reporter per row, and each drone's twin
    asking for the same plan, which reverts on its conflict: for each op and outcome, the most calls one submit
    makes to the ledger's journal and meter, the conflict test and the airspace index's bisects stays the same.
    So does the most that one record makes when restore folds the finished world's snapshot in again.
    """
    counts = collections.Counter()

    def count(owner, name):
        exact = getattr(owner, name)

        def counted(*args, **kwargs):
            counts[name] += 1
            return exact(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)

    for owner, name in [(Ledger, "touch"), (ledger, "count_leaves"), (geo, "windows_conflict"),
                        (uss, "bisect_left"), (uss, "bisect_right"), (uss, "insort")]:
        count(owner, name)
    exact_submit, per_submit = Ledger.submit, collections.defaultdict(list)

    def submit(self, caller, op, *args, **kwargs):
        before = counts.copy()
        rec = exact_submit(self, caller, op, *args, **kwargs)
        per_submit[op, rec.status].append(counts - before)
        return rec
    monkeypatch.setattr(Ledger, "submit", submit)
    exact_apply_log, exact_admit, folded = Ledger.apply_log, Ledger._admit, []

    def apply_log(self, blocks):
        """Each folded record's counts open at its _admit call; the last one's close when the fold returns."""
        logged = {id(tx.args): tx for block in blocks for tx in block.transactions}

        def admit(self, spec, caller, args, value):
            folded.append((logged[id(args)], counts.copy()))
            return exact_admit(self, spec, caller, args, value)
        monkeypatch.setattr(Ledger, "_admit", admit)
        exact_apply_log(self, blocks)
        monkeypatch.setattr(Ledger, "_admit", exact_admit)
        folded.append((None, counts.copy()))
    monkeypatch.setattr(Ledger, "apply_log", apply_log)

    def most_calls(per_key):
        return {key: {name: max(c[name] for c in calls) for name in set().union(*calls)}
                for key, calls in per_key.items()}

    most, most_folded = [], []
    for n in (20, 80):
        per_submit.clear()
        corridors = corridor_scenario(n)
        twins = tuple(dataclasses.replace(d, name=f"twin{i}", serial=f"SN-T{i}", owner_national_id=f"NID-T{i}")
                      for i, d in enumerate(corridors.drones))
        reporters = tuple(ReporterSpec(f"r{row}", cell=(3 * row, 5 * row), sensing_range_m=200) for row in (1, 2, 3, 4))
        world = World(dataclasses.replace(corridors, drones=corridors.drones + twins, reporters=reporters,
                                          duration_ticks=6 * n + 40))  # the last plan departs at minute n
        world.run_to_end()
        assert not world.uss.missions  # every plan settled
        most.append(most_calls(per_submit))
        folded.clear()
        persistence.restore_world(persistence.snapshot_world(world))
        per_fold = collections.defaultdict(list)
        for (tx, before), (_, after) in zip(folded, folded[1:]):
            per_fold[tx.op, tx.status].append(after - before)
        most_folded.append(most_calls(per_fold))
    assert most[0].keys() == most[1].keys() >= {("report_drone", "success"), ("report_completion", "success"),
                                                 ("request_plan", "success"), ("request_plan", "revert")}
    assert most[0][("request_plan", "revert")]["windows_conflict"] > 0  # the twins' conflicts are tested
    assert most[1] == most[0]
    assert most_folded[0][("report_drone", "success")]["touch"] > 0  # the folds write through the journal
    assert most_folded[1] == most_folded[0]



def _parses(monkeypatch):
    """A Counter of the texts geo.parse_dms_pair parses from here on."""
    parsed, exact = collections.Counter(), geo.parse_dms_pair

    def counted(text):
        parsed[text] += 1
        return exact(text)
    monkeypatch.setattr(geo, "parse_dms_pair", counted)
    return parsed


@pytest.mark.parametrize("name", ["corridors", *sorted(GOLDEN)])
def test_setup_parses_no_point_its_scenario_parsed(monkeypatch, name):
    """The contract's DMS reader starts from the scenario's parsed points, so no plan of a world's setup parses again."""
    scenario = corridor_scenario(20) if name == "corridors" else GOLDEN[name][0]()
    parsed = _parses(monkeypatch)
    assert World(scenario).uss.missions  # plans were made
    assert not parsed


@pytest.mark.parametrize("make_scenario", [compliant_scenario, deviating_scenario])
def test_restore_parses_each_dms_text_at_most_once(monkeypatch, make_scenario):
    """Restoring live plans and sightings: the scenario parses each mission point, the contract only what it lacks."""
    world = _stepped_to(make_scenario(), 15)
    assert world.uss.missions and world.uss.storage["sightings"]
    snapshot = persistence.snapshot_world(world)
    parsed = _parses(monkeypatch)
    persistence.restore_world(snapshot)
    assert parsed and max(parsed.values()) == 1, parsed.most_common(3)

class TestAirspaceIndex:
    """The index applied at commit against full scans of the active plans, through reverts and a restore."""

    @staticmethod
    def _index(uss):
        return uss._cells, uss._opens, uss._closes

    @staticmethod
    def _rebuilt(uss):
        """The index built afresh from the active plans."""
        buf = uss.params.deconfliction_time_buffer_s
        cells = {}
        for p in _plans(uss):
            for w in p.route:
                cells.setdefault(w.lat_idx, {}).setdefault(w.lon_idx, []).append((w.enter_s, p.drone_id, w))
        for row in cells.values():
            for windows in row.values():
                windows.sort()
        opens = sorted(p.departure_epoch - buf for p in _plans(uss))
        return cells, opens, sorted(p.arrival_epoch + buf for p in _plans(uss))

    @staticmethod
    def _scan(uss, at_s):
        buf = uss.params.deconfliction_time_buffer_s
        return sum(p.departure_epoch - buf <= at_s <= p.arrival_epoch + buf for p in _plans(uss))

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_index_equals_full_scans(self, data):
        draw = data.draw
        buf_cells, buf_s = draw(st.integers(0, 2)), draw(st.integers(0, 90))
        point = st.tuples(st.integers(0, 24), st.integers(0, 24))  # legs over ~8x8 cells
        minute = st.integers(0, 5)
        missions = [MissionSpec(dms(*draw(point)), dms(*draw(point)), DATE, f"00{draw(minute):02d}") for _ in range(4)]
        drones = tuple(DroneSpec(f"d{i}", f"SN-{i}", f"NID-{i}", m) for i, m in enumerate(missions))
        # 1 s ticks, enough of them for any clock below, so a snapshot can name the tick its clock implies
        world = World(Scenario(name="index", duration_ticks=1000, tick_seconds=1, deconfliction_cell_buffer=buf_cells,
                               deconfliction_time_buffer_s=buf_s, drones=drones))
        steps = draw(st.integers(1, 16))
        restore_at = draw(st.integers(0, steps - 1))
        for step in range(steps):
            if step == restore_at:
                if world.ledger.pending:
                    world.ledger.seal_block()
                world.tick = world.ledger.clock + 1  # a live world's clock is the time of its last tick
                restored = persistence.restore_world(persistence.snapshot_world(world))
                assert self._index(restored.uss) == self._index(world.uss)
                world = restored
            uss, ledger = world.uss, world.ledger
            ledger.clock += draw(st.integers(0, 60))
            op = draw(st.sampled_from(["quote", "plan", "plan", "complete"]))
            # mostly a drone the op can succeed for: an idle one plans, a flying one completes
            fits = [d for d in world.drones if (d.drone_id in uss.missions) == (op == "complete")]
            drone = draw(st.sampled_from(fits if fits and draw(st.integers(0, 4)) else world.drones))
            owner, drone_id = drone.operator_account, drone.drone_id
            if op == "quote":
                rec = ledger.submit(owner, "request_quote", {"droneId": drone_id})
                assert rec.payload["congestion"] == self._scan(uss, ledger.clock)
            elif op == "plan":
                src, dst, depart = draw(point), draw(point), 60 * draw(minute)
                short = draw(st.sampled_from([0, 0, 0, 1]))
                active = [TestScheduleRoute._as_dicts(p.route) for p in _plans(uss)]
                args = {"droneId": drone_id, "source": dms(*src), "destination": dms(*dst),
                        "departureDate": DATE, "departureTime": f"00{depart // 60:02d}"}
                rec = ledger.submit(owner, "request_plan", args, value=uss.quote_fee(owner, depart)[0] - short)
                event(f"plan {rec.reason or rec.status}")
                if rec.status == "success" or rec.reason == "schedule-conflict":
                    grid, band = uss.grid, uss.params.altitude_m // uss.params.altitude_band_m
                    duration = geo.flight_duration_s(grid, src, dst, uss.params.cruise_speed_mps)
                    route = oracles.per_second_route_occupancy(grid, src, dst, depart, duration, band)
                    candidate = TestScheduleRoute._as_dicts(route)
                    expected = any(oracles.brute_force_conflict(r, candidate, buf_cells, buf_s) for r in active)
                    assert (rec.reason == "schedule-conflict") == expected
            else:
                mission = uss.missions.get(drone_id)
                vc = mission.plan.rid_vc.hex() if mission is not None and draw(st.integers(0, 3)) else "00" * 32
                rec = ledger.submit(owner, "report_completion", {"droneId": drone_id, "ridVc": vc})
                event(f"complete {rec.reason or rec.status}")
            assert self._index(uss) == self._rebuilt(uss)
            ends = [t for p in _plans(uss) for t in (p.departure_epoch - buf_s, p.arrival_epoch + buf_s)]
            for t in {ledger.clock, *(t + d for t in ends for d in (-1, 0, 1))}:
                assert uss.congestion_count(t) == self._scan(uss, t)

    @pytest.mark.parametrize("reason,time", [("schedule-conflict", TIME), ("insufficient-balance", "0005")])
    def test_a_reverted_plan_leaves_the_index_as_it_was(self, bench, reason, time):
        """request_plan indexes its plan as its last step, so a plan that reverts never reaches the index."""
        planned_drone(bench)
        uss, ledger = bench.uss, bench.ledger
        other = register(bench, serial="SN-2", caller=bench.second_operator)
        subscribe(bench, other, caller=bench.second_operator)
        instants = range(-100, 600, 10)
        before = (copy.deepcopy(self._index(uss)), [uss.congestion_count(t) for t in instants])
        value = ledger.balance(bench.second_operator) + 1 if reason == "insufficient-balance" else None
        rec = plan(bench, other, caller=bench.second_operator, time=time, value=value)
        assert (rec.status, rec.reason) == ("revert", reason)
        assert (self._index(uss), [uss.congestion_count(t) for t in instants]) == before
        assert plan(bench, other, caller=bench.second_operator, time="0005").status == "success"
        assert self._index(uss) != before[0]  # the same plan, paid for, does reach the index

    def test_a_settlement_whose_unindex_fails_changes_nothing(self, bench):
        """A plan missing from one of its route cells: report_completion raises with storage and index as they were."""
        drone_id = planned_drone(bench)
        uss, ledger = bench.uss, bench.ledger
        route = uss.missions[drone_id].plan.route
        assert len(route) > 2
        del uss._cells[route[-2].lat_idx][route[-2].lon_idx]  # the plan is the only one in its cells
        before = (copy.deepcopy(self._index(uss)), ledger.state_digest(), list(ledger.pending), ledger._tx_counter)
        ledger.clock = 1000
        with pytest.raises(KeyError):
            complete(bench, drone_id)
        assert (self._index(uss), ledger.state_digest(), ledger.pending, ledger._tx_counter) == before


class TestReportDrone:
    def test_honest_on_route_report_rewards_everyone(self, bench):
        drone_id = planned_drone(bench)
        before = bench.ledger.balance(bench.reporter)
        rec = report(bench, drone_id, at_s=100)
        assert rec.status == "success"
        assert rec.payload["verdict"] == "reward"
        assert bench.ledger.balance(bench.reporter) == before + bench.uss.params.reporter_reward
        assert bench.authority.record(drone_id).rewards == 1
        assert bench.authority.record(drone_id).penalties == 0
        assert any(e["name"] == "DroneSighted" for e in rec.events)

    def test_owner_cannot_report_verbatim(self, bench):
        drone_id = planned_drone(bench)
        rec = report(bench, drone_id, at_s=100, reporter=bench.operator)
        assert (rec.status, rec.reason) == ("revert", "Owner of drone cannot report it!")

    def test_duplicate_reporter_verbatim(self, bench):
        drone_id = planned_drone(bench)
        assert report(bench, drone_id, at_s=100).status == "success"
        rec = report(bench, drone_id, at_s=120)
        assert (rec.status, rec.reason) == ("revert", "not allowed to report same drone more than once")

    def test_second_reporter_still_welcome(self, bench):
        drone_id = planned_drone(bench)
        report(bench, drone_id, at_s=100)
        rec = report(bench, drone_id, at_s=110, reporter=bench.second_reporter)
        assert rec.status == "success"

    def test_forged_code_reverts_with_no_side_effects(self, bench):
        drone_id = planned_drone(bench)
        state = bench.ledger.state_digest()
        forged = broadcast_hex(bench, drone_id, 100, vc=b"\x13" * 32)
        rec = report(bench, drone_id, at_s=100, rid_hex=forged)
        assert (rec.status, rec.reason) == ("revert", "Invalid report")
        assert bench.ledger.state_digest() == state
        record = bench.authority.record(drone_id)
        assert (record.rewards, record.penalties) == (0, 0)

    def test_reporter_can_retry_after_invalid_report(self, bench):
        # the failed attempt rolled back its once-per-mission counter
        drone_id = planned_drone(bench)
        forged = broadcast_hex(bench, drone_id, 100, vc=b"\x13" * 32)
        assert report(bench, drone_id, at_s=100, rid_hex=forged).status == "revert"
        assert report(bench, drone_id, at_s=110).status == "success"

    def test_off_route_sighting_is_a_penalty(self, bench):
        drone_id = planned_drone(bench)
        # 10 arcsec of latitude = 300 m = 3 cells off the planned row
        rec = report(bench, drone_id, at_s=100, lat_offset_arcsec=10)
        assert rec.payload["verdict"] == "penalty"
        record = bench.authority.record(drone_id)
        assert (record.rewards, record.penalties) == (0, 1)
        # brute-force interpolation agrees the sighting is off-plan
        p = bench.uss.missions[drone_id].plan
        cell = oracles.interpolated_cell(
            p.src_arcsec, p.dst_arcsec, p.departure_epoch, p.arrival_epoch, 100,
            bench.uss.grid.cell_size_m, bench.uss.grid.meters_per_arcsec,
        )
        sighted = (cell[0] + 3, cell[1])
        assert sighted != cell

    def test_match_window_boundary(self, bench):
        drone_id = planned_drone(bench)
        arrival = bench.uss.missions[drone_id].plan.arrival_epoch
        rec = report(bench, drone_id, at_s=arrival + 120)
        assert rec.payload["verdict"] == "reward"
        rec = report(
            bench, drone_id, at_s=arrival + 121, reporter=bench.second_reporter,
            rid_hex=broadcast_hex(bench, drone_id, arrival + 121),
        )
        assert rec.payload["verdict"] == "penalty"

    def test_non_ascii_sighting_location_reverts(self, bench):
        drone_id = planned_drone(bench)
        state = bench.ledger.state_digest()
        args = {**report_args(bench, drone_id, 100), "sightingLocation": "+٠٠٠°٠٠′١٠″ +000°00′10″"}
        bench.ledger.clock = 100
        rec = bench.ledger.submit(bench.reporter, "report_drone", args)
        assert (rec.status, rec.reason) == ("revert", "invalid-dms")
        assert bench.ledger.state_digest() == state

    def test_malformed_rid_bytes(self, bench):
        drone_id = planned_drone(bench)
        rec = report(bench, drone_id, at_s=100, rid_hex="deadbeef")
        assert (rec.status, rec.reason) == ("revert", "malformed-rid")

    def test_report_without_active_plan_is_invalid(self, bench):
        drone_id = planned_drone(bench)
        rid_hex = broadcast_hex(bench, drone_id, 100)
        bench.ledger.clock = 1000
        complete(bench, drone_id)
        rec = report(bench, drone_id, at_s=1010, rid_hex=rid_hex)
        assert (rec.status, rec.reason) == ("revert", "Invalid report")

    def test_one_sighting_record_per_reporter_per_mission(self, bench):
        drone_id = planned_drone(bench)
        rng = random.Random(10)
        reporters = [bench.reporter, bench.second_reporter] + [
            bench.ledger.create_account("reporter") for _ in range(3)
        ]
        for _ in range(40):
            report(bench, drone_id, at_s=rng.randrange(60, 210), reporter=rng.choice(reporters))
        seen = [(s.reporter, s.drone_id) for s in bench.uss.storage["sightings"].values()]
        assert len(seen) == len(set(seen)) == len(reporters)

    @staticmethod
    def _walked_match(plan, cell, at_s, window_s):
        """The sighting verdict by a walk of the plan's own route."""
        return any((w.lat_idx, w.lon_idx) == cell and w.enter_s - window_s <= at_s <= w.exit_s + window_s
                   for w in plan.route)

    def test_another_drones_window_in_the_cell_is_no_match(self):
        bench = make_bench()
        flown = TestScheduleRoute._install_plan(bench, 0, (10, 10), (10, 40), 100)
        TestScheduleRoute._install_plan(bench, 1, (50, 10), (50, 40), 100)  # another row, at the same times
        first = flown.route[0]
        cell = (first.lat_idx, first.lon_idx)
        assert bench.uss._sighting_matches_plan(0, cell, first.enter_s)
        assert not bench.uss._sighting_matches_plan(1, cell, first.enter_s)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_sighting_match_equals_a_walk_of_the_plan_route(self, data):
        """The airspace index mixes drones: a cell and time another plan covers match only that plan's drone."""
        draw = data.draw
        window_s = draw(st.sampled_from([0, 1, 120]))
        bench = make_bench(match_window_s=window_s)
        point = st.tuples(st.integers(0, 24), st.integers(0, 24))  # legs over ~8x8 cells
        src, dst, depart = draw(point), draw(point), draw(st.integers(0, 400))
        legs = [(src, dst, depart, 1)]
        for _ in range(draw(st.integers(1, 3))):
            # over the first leg's cells near its times (the index holds no deconfliction), or anywhere; some slow
            shared = draw(st.booleans())
            legs.append((src if shared else draw(point), dst if shared else draw(point),
                         depart + draw(st.integers(-60, 60)) if shared else draw(st.integers(0, 400)),
                         draw(st.sampled_from([1, 1, 3]))))
        plans = [TestScheduleRoute._install_plan(bench, i, *leg) for i, leg in enumerate(legs)]
        window = draw(st.sampled_from([w for p in plans for w in p.route]))
        cell = draw(st.sampled_from([(window.lat_idx, window.lon_idx), (window.lat_idx + 1, window.lon_idx)]))
        edge = draw(st.sampled_from([window.enter_s - window_s, window.exit_s + window_s]))
        at_s = draw(st.one_of(st.integers(edge - 1, edge + 1), st.integers(0, 800)))
        drone_id = draw(st.integers(0, len(plans) - 1))
        expected = self._walked_match(plans[drone_id], cell, at_s, window_s)
        others = any(self._walked_match(p, cell, at_s, window_s) for p in plans if p.drone_id != drone_id)
        event(f"match={expected} another drone's window={others}")
        assert bench.uss._sighting_matches_plan(drone_id, cell, at_s) == expected


class TestCompletion:
    def test_clean_mission_returns_deposit(self):
        bench = small_fee_bench()
        drone_id = planned_drone(bench)
        bench.ledger.clock = 1000
        operator_before = bench.ledger.balance(bench.operator)
        rec = complete(bench, drone_id)
        assert rec.status == "success"
        assert rec.payload["payout"] == 5
        assert rec.payload["reputationMicro"] == 0
        assert bench.ledger.balance(bench.operator) == operator_before + 5
        assert drone_id not in bench.uss.missions
        assert bench.authority.record(drone_id).has_active_plan is False

    def test_settlement_arithmetic_three_rewards_one_penalty(self):
        bench = small_fee_bench()
        drone_id = planned_drone(bench)
        extra = [bench.ledger.create_account("reporter") for _ in range(2)]
        for at_s, rep in zip((70, 100, 130), [bench.reporter, bench.second_reporter, extra[0]]):
            assert report(bench, drone_id, at_s=at_s, reporter=rep).payload["verdict"] == "reward"
        assert report(bench, drone_id, at_s=160, reporter=extra[1], lat_offset_arcsec=10).payload["verdict"] == "penalty"
        bench.ledger.clock = 1000
        rec = complete(bench, drone_id)
        assert rec.payload["payout"] == 5 - 1 + 3
        assert rec.payload["rewards"] == 3
        assert rec.payload["penalties"] == 1
        assert rec.payload["reputationMicro"] == 333_333  # (3-1)/(3+1+2)
        assert rec.payload["reputationMicro"] == oracles.rational_reputation(3, 1)
        assert rec.payload["kMicro"] == oracles.rational_update_k(333_333, 10**6, 300_000, 50_000)

    def test_second_completion_reverts_verbatim(self, bench):
        drone_id = planned_drone(bench)
        bench.ledger.clock = 1000
        complete(bench, drone_id)
        rec = complete(bench, drone_id)
        assert (rec.status, rec.reason) == ("revert", "No active plan")

    def test_non_owner_reverts_verbatim(self, bench):
        drone_id = planned_drone(bench)
        rec = complete(bench, drone_id, caller=bench.second_operator)
        assert (rec.status, rec.reason) == ("revert", "Not owner of drone")

    def test_wrong_verification_code_rejected(self, bench):
        drone_id = planned_drone(bench)
        rec = complete(bench, drone_id, vc_hex="11" * 32)
        assert (rec.status, rec.reason) == ("revert", "invalid-ridvc")
        assert bench.authority.record(drone_id).has_active_plan is True

    def test_counters_reset_for_next_mission(self, bench):
        drone_id = planned_drone(bench)
        report(bench, drone_id, at_s=100)
        bench.ledger.clock = 1000
        complete(bench, drone_id)
        record = bench.authority.record(drone_id)
        assert (record.rewards, record.penalties) == (0, 0)


class TestEscrowAccounting:
    def test_escrow_tracks_future_settlement_exactly(self, bench):
        drone_id = planned_drone(bench)
        deposit = bench.uss.params.fee_params.deposit
        ledger, uss = bench.ledger, bench.uss
        assert ledger.balance(uss.escrow) == deposit
        report(bench, drone_id, at_s=100)  # reward: +bonus
        assert ledger.balance(uss.escrow) == deposit + uss.params.bonus_unit
        report(bench, drone_id, at_s=120, reporter=bench.second_reporter, lat_offset_arcsec=10)
        assert ledger.balance(uss.escrow) == deposit + uss.params.bonus_unit - uss.params.fine_unit
        assert ledger.balance(uss.escrow) == sum(m.escrow for m in uss.missions.values())
        bench.ledger.clock = 1000
        payout = complete(bench, drone_id).payload["payout"]
        assert payout == deposit + uss.params.bonus_unit - uss.params.fine_unit
        assert ledger.balance(uss.escrow) == 0

    def test_fines_cap_at_the_deposit(self):
        bench = make_bench(fine_unit=300)
        drone_id = planned_drone(bench)
        reporters = [bench.ledger.create_account("reporter") for _ in range(5)]
        for i, rep in enumerate(reporters):
            rec = report(bench, drone_id, at_s=70 + 10 * i, reporter=rep, lat_offset_arcsec=10)
            assert rec.payload["verdict"] == "penalty"
        # 5 penalties at 300 would be 1500 against a 1000 deposit
        bench.ledger.clock = 1000
        rec = complete(bench, drone_id)
        assert rec.payload["payout"] == 0
        assert bench.ledger.balance(bench.uss.escrow) == 0

    def test_payout_bounds_and_penalty_monotonicity(self):
        rng = random.Random(20)
        results = {}
        for rewards in range(3):
            for penalties in range(6):
                bench = make_bench()
                drone_id = planned_drone(bench)
                reps = [bench.ledger.create_account("reporter") for _ in range(rewards + penalties)]
                order = [("r", i) for i in range(rewards)] + [("p", i) for i in range(penalties)]
                rng.shuffle(order)
                for j, (kind, _) in enumerate(order):
                    offset = 0 if kind == "r" else 10
                    report(bench, drone_id, at_s=70 + 5 * j, reporter=reps[j], lat_offset_arcsec=offset)
                bench.ledger.clock = 1000
                payload = complete(bench, drone_id).payload
                assert payload["rewards"] == rewards and payload["penalties"] == penalties
                deposit, bonus = 1000, 100
                assert 0 <= payload["payout"] <= deposit + rewards * bonus
                results[(rewards, penalties)] = payload["payout"]
        for rewards in range(3):
            for penalties in range(5):
                assert results[(rewards, penalties + 1)] <= results[(rewards, penalties)]

    def test_active_plan_flag_iff_plan_exists(self, bench):
        drone_id = register(bench)
        subscribe(bench, drone_id)
        assert drone_id not in bench.uss.missions
        assert not bench.authority.record(drone_id).has_active_plan
        plan(bench, drone_id)
        assert drone_id in bench.uss.missions
        assert bench.authority.record(drone_id).has_active_plan
        bench.ledger.clock = 1000
        complete(bench, drone_id)
        assert drone_id not in bench.uss.missions
        assert not bench.authority.record(drone_id).has_active_plan
