"""Walk one drone through the whole protocol, one call at a time.

register -> subscribe -> quote -> plan -> fly & get reported -> settle

Run: python3 demos/01_mission_lifecycle.py
"""

import hashlib

from skyledger import AuthorityContract, FeeParams, Ledger, Scenario, UssContract
from skyledger.rid import RidFaa, RidMessage, encode_rid
from skyledger import geo


def show(step, record):
    print(f"--- {step}")
    print(f"    status: {record.status}" + (f" ({record.reason})" if record.reason else ""))
    if record.payload is not None:
        print(f"    output: {record.payload}")
    print()


ledger = Ledger()
authority = AuthorityContract(ledger)
uss = UssContract(
    ledger,
    authority,
    Scenario(fee_params=FeeParams(base_cost=10, deposit=1000, surcharge_per_mission=2)),
    nonce_seed=hashlib.sha256(b"demo-01").digest(),
)
ledger.accounts[uss.treasury].balance = 1_000_000

operator = ledger.create_account("operator", 100_000)
bystander = ledger.create_account("reporter")
ledger.genesis(note="mission lifecycle demo")

rec = ledger.submit(operator, "register_drone",
                    {"serial": "SN-0001", "ownerNationalId": "NID-77", "signTAC": True})
show("register the drone with the aviation authority", rec)
drone_id = rec.payload["droneId"]

rec = ledger.submit(operator, "subscribe", {"droneId": drone_id}, value=uss.params.subscription_fee)
show("subscribe the drone to the service supplier", rec)

rec = ledger.submit(operator, "request_quote", {"droneId": drone_id})
show("ask what the mission will cost (view call, free)", rec)
fee = rec.payload["fee"]

source = "+000°00′10″ +000°00′10″"
destination = "+000°00′10″ +000°01′00″"
rec = ledger.submit(
    operator,
    "request_plan",
    {"droneId": drone_id, "source": source, "destination": destination,
     "departureDate": "01012025", "departureTime": "0001"},
    value=fee,
)
show(f"buy the mission plan for {fee} (deposit {uss.params.fee_params.deposit} held in escrow)", rec)
plan = rec.payload

# mid-flight, a bystander receives the broadcast and forwards it
at_s = 100
p = uss.missions[drone_id].plan
duration = p.arrival_epoch - p.departure_epoch
pos = geo.interpolate_position(p.src_arcsec, p.dst_arcsec, at_s - p.departure_epoch, duration)
wire = encode_rid(RidMessage(
    RidFaa(at_s, pos[0], pos[1], p.src_arcsec[0], p.src_arcsec[1], p.altitude_m * 100, 1000),
    bytes.fromhex(plan["ridVc"]),
))
ledger.clock = at_s
rec = ledger.submit(
    bystander,
    "report_drone",
    {"droneId": drone_id, "rid": wire.hex(),
     "sightingLocation": geo.format_dms_pair(*pos), "sightingTime": at_s},
)
show("a bystander forwards the broadcast (on plan, so the drone earns a reward)", rec)

ledger.clock = 1000
rec = ledger.submit(operator, "report_completion", {"droneId": drone_id, "ridVc": plan["ridVc"]})
show("land and settle: deposit back, plus the earned bonus", rec)

ledger.seal_block()
print(f"chain verifies: {ledger.verify_chain()}")
print(f"bystander earned: {ledger.balance(bystander)}")
