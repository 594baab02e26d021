"""Four flight behaviors under crowd enforcement, end to end.

A compliant drone collects rewards, a deviating one collects penalties,
a silent one is invisible (the model's stated blind spot), and a forger
only ever produces rejected reports. A replaying bystander shows the
residual risk: a genuine code replayed at a false location sticks.

Run: python3 demos/02_crowd_enforcement.py
"""

from pathlib import Path

from skyledger import World
from skyledger.persistence import load_scenario

scenario = load_scenario(Path(__file__).resolve().parent.parent / "scenarios" / "demo.scenario.json")
world = World(scenario)
world.run_to_end()
metrics = world.metrics()

names = {i: d.spec.name for i, d in enumerate(world.drones)}
print(f"{'drone':<10} {'behavior':<10} {'r':>2} {'p':>2} {'payout':>7} {'R (1e-6)':>9}")
for m in metrics.missions:
    spec = world.drones[m["droneId"]].spec
    print(f"{spec.name:<10} {spec.behavior:<10} {m['rewards']:>2} {m['penalties']:>2}"
          f" {m['payout']:>7} {m['reputationMicro']:>9}")

print()
print("reverts seen on chain:", metrics.revert_counts or "none")
print("reporter bounties:", {k[:10]: v for k, v in metrics.reporter_earnings.items()} or "none")
print()
print("Note the compliant drone's single penalty: a replayer re-sent its")
print("genuine broadcast from a false spot. The commitment cannot tell, so")
print("the report stands. That gap is part of the threat model on purpose.")
print()
print(f"supply conserved: {metrics.genesis_supply} == {metrics.final_supply}")
print(f"chain verifies:   {world.ledger.verify_chain()}")
