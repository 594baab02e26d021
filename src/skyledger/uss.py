"""Service-supplier contract: subscriptions, mission plans, crowd reports,
and mission settlement.

Money flow, all in whole currency units:

* subscription fees go to the supplier treasury;
* at plan time the refundable compliance deposit is moved from the
  treasury receipt into a dedicated escrow account, the rest of the fee
  stays in the treasury;
* each valid crowd report pays the reporter from the treasury, then
  either accrues a bonus into escrow (sighting matches the plan) or
  forfeits a fine from escrow back to the treasury (it does not);
* settlement pays the whole per-mission escrow balance to the owner:
  max(0, deposit - penalties * fine) + rewards * bonus.

The escrow account therefore always equals the sum over active plans of
the eventual payout, and drains to zero once every mission settles.
"""

from __future__ import annotations

import datetime
import hashlib
import operator
import weakref
from bisect import bisect_left, bisect_right, insort
from collections import defaultdict
from dataclasses import dataclass
from itertools import chain
from typing import TYPE_CHECKING, Any

from . import economics, geo
from .authority import AuthorityContract
from .ledger import AccountId, ContractRevert, Ledger, LedgerError, TransactionRecord, same_fields
from .rid import compute_rid_vc, decode_rid, MalformedRid, RidMessage, verify_rid_vc

if TYPE_CHECKING:
    from .sim import Scenario

REVERT_NOT_OWNER_SUBSCRIBE = "Not the owner of the registered drone"
REVERT_ALREADY_SUBSCRIBED = "Drone is already subscribed"
REVERT_SUBSCRIPTION_FEE = "Please make sure to pay the subscription fee"
REVERT_NOT_OWNER_QUOTE = "Not the owner of a registered drone"
REVERT_NOT_SUBSCRIBED_QUOTE = "Drone is not subscribed"
REVERT_NOT_SUBSCRIBED_PLAN = "Not subscribed to a USS"
REVERT_ACTIVE_PLAN_EXISTS = "There is already an active plan for this drone"
REVERT_PLAN_FEE = "Please make sure to pay the mission plan fee"
REVERT_OWNER_REPORT = "Owner of drone cannot report it!"
REVERT_DUPLICATE_REPORT = "not allowed to report same drone more than once"
REVERT_INVALID_REPORT = "Invalid report"
REVERT_NOT_OWNER_COMPLETE = "Not owner of drone"
REVERT_NO_ACTIVE_PLAN = "No active plan"
REASON_SCHEDULE_CONFLICT = "schedule-conflict"
REASON_INVALID_DMS = "invalid-dms"
REASON_INVALID_DATETIME = "invalid-datetime"
REASON_MALFORMED_RID = "malformed-rid"
REASON_INVALID_RIDVC = "invalid-ridvc"

VERDICT_REWARD = "reward"
VERDICT_PENALTY = "penalty"

SUBSCRIPTION_PERIOD_S = 365 * 86400
_ENTER = operator.itemgetter(0)  # an airspace index entry's enter_s
PlanPoints = tuple[tuple[int, int], tuple[int, int], int]  # a plan's source and destination arcseconds, departure second


def parse_departure_epoch(date_ddmmyyyy: str, time_hhmm: str, epoch_date_ddmmyyyy: str) -> int:
    """Seconds since the scenario epoch (midnight of the epoch date)."""
    for text, width in ((date_ddmmyyyy, 8), (time_hhmm, 4), (epoch_date_ddmmyyyy, 8)):
        if len(text) != width or not (text.isascii() and text.isdigit()):
            raise ValueError(f"malformed date/time field {text!r}")
    hour, minute = int(time_hhmm[:2]), int(time_hhmm[2:])
    if hour > 23 or minute > 59:
        raise ValueError(f"time out of range {time_hhmm!r}")
    day, epoch_day = (datetime.date(int(d[4:]), int(d[2:4]), int(d[:2])) for d in (date_ddmmyyyy, epoch_date_ddmmyyyy))
    return (day - epoch_day).days * 86400 + hour * 3600 + minute * 60


@dataclass
class Subscription:
    drone_id: int
    subscriber: AccountId
    paid_fee: int
    expiry: int


@dataclass
class MissionPlan:
    drone_id: int
    owner_account: AccountId
    source: str
    destination: str
    departure_date: str
    departure_time: str
    departure_epoch: int
    arrival_epoch: int
    src_arcsec: tuple[int, int]
    dst_arcsec: tuple[int, int]
    altitude_m: int
    alt_band: int
    route: list[geo.CellWindow]
    rid_vc: bytes
    active: bool = True

    def leaf_count(self) -> int:
        """ledger.count_leaves with no walk: 12 scalar fields, 2 per point, 5 per route window (an empty route is 1)."""
        return 16 + (5 * len(self.route) or 1)

    def to_public_dict(self) -> dict[str, Any]:
        # nonce lives elsewhere and is never part of any export; keys in sorted order, as every logged dict is built
        return {
            "active": self.active,
            "altitudeM": self.altitude_m,
            "arrivalEpoch": self.arrival_epoch,
            "departureDate": self.departure_date,
            "departureEpoch": self.departure_epoch,
            "departureTime": self.departure_time,
            "destination": self.destination,
            "droneId": self.drone_id,
            "ridVc": self.rid_vc.hex(),
            "route": [{"altBand": band, "enterS": enter_s, "exitS": exit_s, "latIdx": lat, "lonIdx": lon}
                      for lat, lon, band, enter_s, exit_s in self.route],
            "source": self.source,
        }


@dataclass
class Mission:
    """What the contract holds for one active mission, from its plan to its settlement."""

    plan: MissionPlan | None           # None only while restore walks the log (build_live_plans)
    nonce: bytes                       # USS-side secret behind the plan's RID verification code
    report_counts: dict[AccountId, int]  # reporter -> valid reports on this mission
    escrow: int                        # currency held for the mission
    forfeited: int                     # fines taken so far, capped at the deposit

    def leaf_count(self) -> int:
        """ledger.count_leaves with no walk: the plan's (1 while it is None), 3 scalars, 1 per report count (1 if none)."""
        return (1 if self.plan is None else self.plan.leaf_count()) + 3 + (len(self.report_counts) or 1)


@dataclass
class SightingRecord:
    reporter: AccountId
    drone_id: int
    rid_hex: str
    cell: tuple[int, int]
    sighting_time: int
    verdict: str


class _DmsReader(dict):
    """The contract's DMS reader, text -> (lat, lon) arcseconds, seeded with the points its scenario parsed; a string it
    does not hold yet is parsed once and kept (a DmsError is not). Bound as __getitem__, a hit is a C-level lookup."""
    def __missing__(self, text: str) -> tuple[int, int]:
        return self.setdefault(text, geo.parse_dms_pair(text))


class UssContract:
    def __init__(self, ledger: Ledger, authority: AuthorityContract, params: Scenario, nonce_seed: bytes):
        self.ledger = weakref.proxy(ledger)  # the ledger holds our ops; a strong reference back would be a cycle
        self.authority = authority
        self.params = params  # the contract reads its fees, buffers and flight settings from the scenario
        self.grid = params.grid()
        self.alt_band = params.altitude_m // params.altitude_band_m
        self.treasury = ledger.create_account("uss")
        self.escrow = ledger.create_account("uss")
        self.missions: dict[int, Mission] = {}  # drone_id -> Mission, opened by a plan, closed by its settlement
        self.storage: dict[str, Any] = {
            "subscriptions": {},      # drone_id -> Subscription
            "missions": self.missions,
            "sightings": {},          # index -> SightingRecord, append-only audit trail
            "reputation": {},         # owner account -> ReputationState
            "nonce_counter": 0,       # missions planned so far; the next nonce's counter
        }
        self._nonce_seed = nonce_seed
        # lat -> lon -> the cell's (enter_s, drone id, window) in time order; _longest bounds every exit_s - enter_s
        self._cells: dict[int, dict[int, list[tuple[int, int, geo.CellWindow]]]] = defaultdict(lambda: defaultdict(list))
        self._longest = 0
        self._opens, self._closes = [], []  # sorted departures - time buffer, sorted arrivals + time buffer
        self._unbuilt: dict[int, TransactionRecord] = {}  # drone id -> request of a plan restore has yet to build
        missions = [d.mission for d in params.drones]
        self._point = _DmsReader(chain.from_iterable(zip((m.source, m.destination), m.points) for m in missions)).__getitem__
        ledger.attach_storage("uss", self.storage)
        drone = {"droneId": int}
        plan = {**drone, "source": str, "destination": str, "departureDate": str, "departureTime": str}
        sighting = {**drone, "rid": str, "sightingLocation": str, "sightingTime": int}
        ledger.register_op("subscribe", self.op_subscribe, args=drone, fold=self.op_subscribe, receiver=self.treasury)
        ledger.register_op("request_quote", self.op_request_quote, args=drone)
        ledger.register_op("request_plan", self.op_request_plan, args=plan, fold=self.fold_request_plan,
                           receiver=self.treasury)
        ledger.register_op("report_drone", self.op_report_drone, args=sighting, fold=self.fold_report_drone)
        ledger.register_op("report_completion", self.op_report_completion, args={**drone, "ridVc": str},
                           fold=self.fold_report_completion)

    # -- helpers -----------------------------------------------------------

    def reputation_of(self, owner: AccountId) -> economics.ReputationState:
        return self.storage["reputation"].get(owner) or economics.ReputationState()

    def _subscription_valid(self, drone_id: int, caller: AccountId) -> bool:
        sub = self.storage["subscriptions"].get(drone_id)
        return sub is not None and sub.subscriber == caller and self.ledger.clock <= sub.expiry

    def index_plan(self, plan: MissionPlan) -> None:
        """Add an active plan to the airspace index, which lives outside storage: an op changes it last, past any revert."""
        buf, drone_id, longest = self.params.deconfliction_time_buffer_s, plan.drone_id, self._longest
        for w in plan.route:
            lat, lon, _, enter_s, exit_s = w  # unpacked: a tuple's field reads cost more than a dataclass's
            insort(self._cells[lat][lon], (enter_s, drone_id, w))
            if exit_s - enter_s > longest:  # an if, not max(): a builtin call per window costs more
                longest = exit_s - enter_s
        self._longest = longest  # never lowered: an upper bound is all the check needs
        insort(self._opens, plan.departure_epoch - buf)
        insort(self._closes, plan.arrival_epoch + buf)

    def _unindex_plan(self, plan: MissionPlan) -> None:
        """Take a settled plan out of the airspace index; one missing from any of its cells raises KeyError and changes nothing."""
        buf = self.params.deconfliction_time_buffer_s
        entries = [(w.lat_idx, w.lon_idx, (w.enter_s, plan.drone_id, w)) for w in plan.route]
        if not all(entry in self._cells.get(lat, {}).get(lon, ()) for lat, lon, entry in entries):
            raise KeyError(plan.drone_id)
        for lat, lon, entry in entries:
            row = self._cells[lat]
            windows = row[lon]
            del windows[bisect_left(windows, entry)]
            if not windows:
                del row[lon]
                if not row:
                    del self._cells[lat]
        del self._opens[bisect_left(self._opens, plan.departure_epoch - buf)]
        del self._closes[bisect_left(self._closes, plan.arrival_epoch + buf)]

    def congestion_count(self, at_s: int) -> int:
        """Active plans whose buffered time window contains the instant."""
        return bisect_right(self._opens, at_s) - bisect_left(self._closes, at_s)

    def quote_fee(self, owner: AccountId, at_s: int) -> tuple[int, int]:
        fee_params = self.params.fee_params
        congestion = self.congestion_count(at_s)
        surcharge = economics.congestion_surcharge(congestion, fee_params.surcharge_per_mission)
        fee = economics.dynamic_fee(self.reputation_of(owner).k_micro, fee_params.base_cost, fee_params.deposit, surcharge)
        return fee, congestion

    # -- storage writers, called by the ops and by their folds; only they move money and emit events

    def _next_nonce(self) -> bytes:
        """The next mission nonce: counter-mode SHA-256 over the contract's seed."""
        counter = self.storage["nonce_counter"]
        self.ledger.touch(self.storage, "nonce_counter")
        self.storage["nonce_counter"] = counter + 1
        return hashlib.sha256(self._nonce_seed + counter.to_bytes(8, "big")).digest()[:16]

    def _open_mission(self, drone_id: int, plan: MissionPlan | None, nonce: bytes) -> None:
        """Open a mission with the deposit moved from the treasury into escrow."""
        deposit = self.params.fee_params.deposit
        self.ledger.transfer(self.treasury, self.escrow, deposit)
        self.ledger.touch(self.missions, drone_id)
        self.missions[drone_id] = Mission(plan, nonce, {}, deposit, 0)
        self.authority.set_active_plan(drone_id, True)

    def _record_sighting(self, tx: TransactionRecord, cell: tuple[int, int], verdict: str) -> dict[str, Any]:
        """Pay the reporter, count the report, move the bonus into escrow or the fine the deposit covers out; DroneSighted."""
        args, drone_id, reporter, params = tx.args, tx.args["droneId"], tx.caller, self.params
        mission = self.missions[drone_id]
        self.ledger.touch(self.missions, drone_id)  # the journaled copy shares report_counts with the live mission
        counts = mission.report_counts
        self.ledger.touch(counts, reporter)  # this reporter's entry alone, so the cost does not grow with the crowd
        counts[reporter] = counts.get(reporter, 0) + 1
        self.ledger.transfer(self.treasury, reporter, params.reporter_reward)
        if verdict == VERDICT_REWARD:
            self.ledger.transfer(self.treasury, self.escrow, params.bonus_unit)
            mission.escrow += params.bonus_unit
            self.authority.add_reward(drone_id)
        elif verdict == VERDICT_PENALTY:
            fine = min(params.fine_unit, params.fee_params.deposit - mission.forfeited)
            self.ledger.transfer(self.escrow, self.treasury, fine)
            mission.escrow -= fine
            mission.forfeited += fine
            self.authority.add_penalty(drone_id)
        else:
            raise ValueError(f"unknown verdict {verdict!r}")
        sightings = self.storage["sightings"]
        self.ledger.touch(sightings, len(sightings))
        sightings[len(sightings)] = SightingRecord(reporter, drone_id, args["rid"], cell, args["sightingTime"], verdict)
        self.ledger.emit("DroneSighted", droneId=drone_id, reporter=reporter, sightingLocation=args["sightingLocation"])
        return {"reporterReward": params.reporter_reward, "verdict": verdict}

    def _close_mission(self, tx: TransactionRecord) -> dict[str, Any]:
        """Settle: pay the owner, store its reputation, emit missionComplete; the payload. LedgerError if escrow differs."""
        drone_id, owner = tx.args["droneId"], tx.caller
        record, fee_params = self.authority.record(drone_id), self.params.fee_params
        rewards, penalties = record.rewards, record.penalties
        payout = max(0, fee_params.deposit - penalties * self.params.fine_unit) + rewards * self.params.bonus_unit
        if (escrow := self.missions[drone_id].escrow) != payout:
            raise LedgerError(f"escrow for drone {drone_id} holds {escrow}, settlement formula pays {payout}")
        rep_micro = economics.reputation(rewards, penalties)
        k_micro = economics.update_k(rep_micro, self.reputation_of(owner).k_micro, fee_params.alpha_micro,
                                     fee_params.k_min_micro)
        self.ledger.transfer(self.escrow, owner, payout)
        self.ledger.touch(self.missions, drone_id)
        del self.missions[drone_id]
        reputations = self.storage["reputation"]
        self.ledger.touch(reputations, owner)
        reputations[owner] = economics.ReputationState(rep_micro, k_micro)
        self.authority.reset_counters(drone_id)
        self.authority.set_active_plan(drone_id, False)
        self.ledger.emit("missionComplete", droneId=drone_id, ridVc=bytes.fromhex(tx.args["ridVc"]).hex())
        return {"droneId": drone_id, "kMicro": k_micro, "payout": payout, "penalties": penalties,
                "reputationMicro": rep_micro, "rewards": rewards}

    # -- calculators, called by request_plan and by restore; each computes and writes nothing

    def plan_points(self, args: dict[str, Any]) -> PlanPoints:
        """A plan request's source and destination arcseconds and departure second; reverts on bad DMS, then date."""
        try:
            src, dst = self._point(args["source"]), self._point(args["destination"])
        except geo.DmsError:
            raise ContractRevert(REASON_INVALID_DMS) from None
        try:
            depart_s = parse_departure_epoch(args["departureDate"], args["departureTime"], self.params.epoch_date)
        except ValueError:
            raise ContractRevert(REASON_INVALID_DATETIME) from None
        return src, dst, depart_s

    def plan_for(self, tx: TransactionRecord, nonce: bytes, points: PlanPoints) -> MissionPlan:
        """The plan request_plan stores for the request, its args' plan_points and the nonce; reverts on a conflict."""
        (src, dst, depart_s), args, caller = points, tx.args, tx.caller
        texts = args["source"], args["destination"], args["departureDate"], args["departureTime"]
        route, arrival_s = self.schedule_route(src, dst, depart_s)
        return MissionPlan(args["droneId"], caller, *texts, depart_s, arrival_s, src, dst, self.params.altitude_m,
                           self.alt_band, route, compute_rid_vc(nonce, caller, *texts))

    # -- operations ---------------------------------------------------------

    def op_subscribe(self, tx: TransactionRecord) -> dict[str, Any]:
        drone_id, caller, value = tx.args["droneId"], tx.caller, tx.value
        record = self.authority.record(drone_id)
        if caller != record.owner_account:
            raise ContractRevert(REVERT_NOT_OWNER_SUBSCRIBE)
        if drone_id in self.storage["subscriptions"]:
            raise ContractRevert(REVERT_ALREADY_SUBSCRIBED)
        if value != self.params.subscription_fee:
            raise ContractRevert(REVERT_SUBSCRIPTION_FEE)
        expiry = self.ledger.clock + SUBSCRIPTION_PERIOD_S
        self.ledger.touch(self.storage["subscriptions"], drone_id)
        self.storage["subscriptions"][drone_id] = Subscription(drone_id, caller, value, expiry)
        return {"droneId": drone_id, "expiry": expiry}

    def op_request_quote(self, tx: TransactionRecord) -> dict[str, Any]:
        drone_id, caller = tx.args["droneId"], tx.caller
        record = self.authority.record(drone_id)
        if caller != record.owner_account:
            raise ContractRevert(REVERT_NOT_OWNER_QUOTE)
        if not self._subscription_valid(drone_id, caller):
            raise ContractRevert(REVERT_NOT_SUBSCRIBED_QUOTE)
        fee, congestion = self.quote_fee(caller, self.ledger.clock)
        return {"congestion": congestion, "fee": fee}

    def _check_plan(self, tx: TransactionRecord) -> None:
        """request_plan's leading checks, which its fold runs too: a valid subscription, then no active plan."""
        drone_id = tx.args["droneId"]
        if not self._subscription_valid(drone_id, tx.caller):
            raise ContractRevert(REVERT_NOT_SUBSCRIBED_PLAN)
        if self.authority.record(drone_id).has_active_plan:
            raise ContractRevert(REVERT_ACTIVE_PLAN_EXISTS)

    def op_request_plan(self, tx: TransactionRecord) -> dict[str, Any]:
        self._check_plan(tx)
        points = self.plan_points(tx.args)
        fee, congestion = self.quote_fee(tx.caller, points[2])
        if tx.value < fee:
            raise ContractRevert(REVERT_PLAN_FEE)

        nonce = self._next_nonce()
        plan = self.plan_for(tx, nonce, points)
        self._open_mission(plan.drone_id, plan, nonce)
        self.index_plan(plan)  # last: nothing below can revert
        return dict(sorted({**plan.to_public_dict(), "congestion": congestion, "fee": fee}.items()))  # in key order

    def schedule_route(
        self, src: tuple[int, int], dst: tuple[int, int], depart_s: int
    ) -> tuple[list[geo.CellWindow], int]:
        """Straight-line cell route at the configured altitude.

        Reverts "schedule-conflict" when any cell-time window comes
        within the deconfliction buffer (1 cell, 60 s by default) of an
        active plan's occupancy. In each nearby cell only the windows
        entering in [enter - buffer - longest, exit + buffer] can conflict,
        so it bisects to them and windows_conflict decides each.
        """
        duration = geo.flight_duration_s(self.grid, src, dst, self.params.cruise_speed_mps)
        route = geo.route_occupancy(self.grid, src, dst, depart_s, duration, self.alt_band)
        buf_cells, buf_s, cells = self.params.deconfliction_cell_buffer, self.params.deconfliction_time_buffer_s, self._cells
        near = range(-buf_cells, buf_cells + 1)
        walk_rows = len(near) > len(cells)  # the index holds fewer rows than 2b+1, and gains none during the check
        reach = buf_s + self._longest  # a window entering earlier than this before ours has left too early to conflict
        for window in route if cells else ():  # an empty index, as while restore builds plans, has no conflict
            lat, lon, _, enter_s, exit_s = window
            earliest, latest = enter_s - reach, exit_s + buf_s
            # look up each offset in the buffer, or, where the index (a row) holds fewer keys, walk the keys it holds
            for dlat in [k - lat for k in cells if abs(k - lat) <= buf_cells] if walk_rows else near:
                row = cells.get(lat + dlat)  # get, not [], so a miss adds no empty row or cell
                if row:
                    for dlon in [k - lon for k in row if abs(k - lon) <= buf_cells] if len(near) > len(row) else near:
                        windows = row.get(lon + dlon, ())
                        i = bisect_left(windows, earliest, key=_ENTER)
                        while i < len(windows) and windows[i][0] <= latest:
                            if geo.windows_conflict(window, windows[i][2], buf_cells, buf_s):
                                raise ContractRevert(REASON_SCHEDULE_CONFLICT)
                            i += 1
        return route, depart_s + duration

    def _check_report(self, tx: TransactionRecord) -> tuple[Mission | None, RidMessage]:
        """report_drone's leading checks, which its fold runs too: not the owner, not a second report, a RID that decodes."""
        drone_id, caller = tx.args["droneId"], tx.caller
        if caller == self.authority.record(drone_id).owner_account:
            raise ContractRevert(REVERT_OWNER_REPORT)
        mission = self.missions.get(drone_id)
        if mission is not None and caller in mission.report_counts:  # a count is stored only once it is 1
            raise ContractRevert(REVERT_DUPLICATE_REPORT)
        try:
            return mission, decode_rid(bytes.fromhex(tx.args["rid"]))
        except (MalformedRid, ValueError):
            raise ContractRevert(REASON_MALFORMED_RID) from None

    def op_report_drone(self, tx: TransactionRecord) -> dict[str, Any]:
        mission, message = self._check_report(tx)
        sighting_cell = self._sighting_cell(tx.args)

        if mission is None or not verify_rid_vc(message.rid_vc, mission.plan.rid_vc):  # hashed once, at acceptance
            raise ContractRevert(REVERT_INVALID_REPORT)

        matches = self._sighting_matches_plan(tx.args["droneId"], sighting_cell, tx.args["sightingTime"])
        return self._record_sighting(tx, sighting_cell, VERDICT_REWARD if matches else VERDICT_PENALTY)

    def _sighting_cell(self, args: dict[str, Any]) -> tuple[int, int]:
        """The cell of a report's sightingLocation, which its op and its fold read alike; reverts on bad DMS."""
        try:
            return self.grid.cell_of(*self._point(args["sightingLocation"]))
        except geo.DmsError:
            raise ContractRevert(REASON_INVALID_DMS) from None

    def _sighting_matches_plan(self, drone_id: int, cell: tuple[int, int], at_s: int) -> bool:
        """The drone's plan is in the cell within the match window of the instant: of the cell's airspace index entries,
        only those entering in [at - window - longest, at + window] can be, so it bisects to them."""
        window_s, row = self.params.match_window_s, self._cells.get(cell[0])
        entries = row.get(cell[1], ()) if row else ()  # get, not [], so a miss adds no empty row or cell
        i, latest = bisect_left(entries, at_s - window_s - self._longest, key=_ENTER), at_s + window_s
        while i < len(entries) and entries[i][0] <= latest:
            if entries[i][1] == drone_id and at_s <= entries[i][2].exit_s + window_s:
                return True
            i += 1
        return False

    def _check_completion(self, tx: TransactionRecord) -> bytes:
        """report_completion's leading checks, which its fold runs too: the owner, an active plan, a ridVc that is hex."""
        record = self.authority.record(tx.args["droneId"])
        if tx.caller != record.owner_account:
            raise ContractRevert(REVERT_NOT_OWNER_COMPLETE)
        if not record.has_active_plan:
            raise ContractRevert(REVERT_NO_ACTIVE_PLAN)
        try:
            return bytes.fromhex(tx.args["ridVc"])
        except ValueError:  # not hex
            raise ContractRevert(REASON_INVALID_RIDVC) from None

    def op_report_completion(self, tx: TransactionRecord) -> dict[str, Any]:
        rid_vc = self._check_completion(tx)
        plan = self.missions[tx.args["droneId"]].plan
        if not verify_rid_vc(rid_vc, plan.rid_vc):
            raise ContractRevert(REASON_INVALID_RIDVC)

        payload = self._close_mission(tx)
        self._unindex_plan(plan)  # last: nothing below can revert, and its KeyError rolls the op back
        return payload

    # -- folds: restore re-applies each logged success through its op's leading checks and writers (Ledger.apply_log)

    def fold_request_plan(self, tx: TransactionRecord) -> dict[str, Any]:
        """Open the mission; its plan is built and its payload checked at the end only if still active (build_live_plans)."""
        drone_id = tx.args["droneId"]
        self._check_plan(tx)
        if not tx.payload["route"] or tx.payload["arrivalEpoch"] < tx.payload["departureEpoch"]:  # settled plans too
            raise ValueError(f"plan for drone {drone_id} has no route or lands before it departs")
        self._open_mission(drone_id, None, self._next_nonce())
        self._unbuilt[drone_id] = tx
        return tx.payload

    def fold_report_drone(self, tx: TransactionRecord) -> dict[str, Any]:
        """Record the report under its logged verdict, taken as given and read past the op's checks: a revert's is null."""
        self._check_report(tx)
        return self._record_sighting(tx, self._sighting_cell(tx.args), tx.payload["verdict"])

    def fold_report_completion(self, tx: TransactionRecord) -> dict[str, Any]:
        self._check_completion(tx)
        self._unbuilt.pop(tx.args["droneId"], None)
        return self._close_mission(tx)

    def build_live_plans(self) -> None:
        """After restore's walk, build each plan still active from its request's args and nonce, then index them all.

        A plan other than its logged payload (all but `fee` and `congestion`, taken as given), by type too for the
        route windows' values, raises ValueError. Built before any is indexed, so building scans no other plan for conflicts.
        """
        for drone_id, tx in self._unbuilt.items():
            mission = self.missions[drone_id]
            mission.plan = self.plan_for(tx, mission.nonce, self.plan_points(tx.args))
            quoted = {"fee": tx.payload["fee"], "congestion": tx.payload["congestion"]}
            if not same_fields(tx.payload, {**mission.plan.to_public_dict(), **quoted}) or (
                    {*map(type, chain.from_iterable(map(dict.values, tx.payload["route"])))} - {int}):  # 60.0 or True
                raise ValueError(f"plan for drone {drone_id} is not the one its request_plan args give")
        for drone_id in self._unbuilt:
            self.index_plan(self.missions[drone_id].plan)
        self._unbuilt.clear()

    def export_active_plans(self) -> list[dict[str, Any]]:
        return [self.missions[d].plan.to_public_dict() for d in sorted(self.missions)]

    def export_reputation(self) -> dict[str, dict[str, int]]:
        return {owner: {"reputationMicro": st.reputation_micro, "kMicro": st.k_micro}
                for owner, st in sorted(self.storage["reputation"].items())}
