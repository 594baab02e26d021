"""How flying record moves prices.

Runs the same operator through several missions, first flawless, then
penalized, and prints the quoted fee before each one: good reputation
drags the cost-scaling factor (and the fee) down, bad reputation pushes
it back up. Also prints the congestion curve behind denial-of-airspace
pricing.

Run: python3 demos/03_reputation_pricing.py
"""

import hashlib

from skyledger import AuthorityContract, FeeParams, Ledger, Scenario, UssContract
from skyledger import geo
from skyledger.rid import RidFaa, RidMessage, encode_rid
from skyledger.economics import congestion_surcharge, dynamic_fee

ledger = Ledger()
authority = AuthorityContract(ledger)
uss = UssContract(
    ledger,
    authority,
    Scenario(fee_params=FeeParams(base_cost=200, deposit=1000, surcharge_per_mission=2)),
    nonce_seed=hashlib.sha256(b"demo-03").digest(),
)
ledger.accounts[uss.treasury].balance = 10_000_000
operator = ledger.create_account("operator", 1_000_000)
watcher = ledger.create_account("reporter")
ledger.genesis(note="pricing demo")

drone = ledger.submit(operator, "register_drone",
                      {"serial": "SN-PRICE", "ownerNationalId": "N", "signTAC": True}).payload["droneId"]
ledger.submit(operator, "subscribe", {"droneId": drone}, value=uss.params.subscription_fee)

SRC = "+000°00′10″ +000°00′10″"
DST = "+000°00′10″ +000°01′00″"


def fly_mission(n, on_plan: bool):
    ledger.clock = n * 10_000
    q = ledger.submit(operator, "request_quote", {"droneId": drone}).payload
    k = uss.reputation_of(operator).k_micro
    plan = ledger.submit(
        operator, "request_plan",
        {"droneId": drone, "source": SRC, "destination": DST,
         "departureDate": "01012025", "departureTime": "0001"},
        value=q["fee"],
    ).payload
    p = uss.missions[drone].plan
    at_s = ledger.clock + 100
    pos = geo.interpolate_position(p.src_arcsec, p.dst_arcsec, 40, p.arrival_epoch - p.departure_epoch)
    lat = pos[0] if on_plan else pos[0] + 10  # 3 cells off
    wire = encode_rid(RidMessage(
        RidFaa(at_s, lat, pos[1], p.src_arcsec[0], p.src_arcsec[1], p.altitude_m * 100, 1000), p.rid_vc))
    ledger.submit(watcher, "report_drone",
                  {"droneId": drone, "rid": wire.hex(),
                   "sightingLocation": geo.format_dms_pair(lat, pos[1]),
                   "sightingTime": p.departure_epoch + 40})
    ledger.clock += 5000
    settle = ledger.submit(operator, "report_completion",
                           {"droneId": drone, "ridVc": plan["ridVc"]}).payload
    print(f"mission {n}: k={k/1e6:<8.4f} quoted fee={q['fee']:<5} "
          f"{'on-plan ' if on_plan else 'off-plan'} -> R={settle['reputationMicro']/1e6:+.4f}")


print("flawless record first, then a string of violations:")
for n in range(3):
    fly_mission(n, on_plan=True)
for n in range(3, 6):
    fly_mission(n, on_plan=False)

print()
print("congestion pricing (fresh operator, k=1):")
fee_params = FeeParams(base_cost=200, deposit=1000, surcharge_per_mission=25)
for active in (0, 5, 10, 20, 40):
    fee = dynamic_fee(10**6, fee_params.base_cost, fee_params.deposit,
                      congestion_surcharge(active, fee_params.surcharge_per_mission))
    print(f"  {active:>3} concurrent missions -> fee {fee}")
