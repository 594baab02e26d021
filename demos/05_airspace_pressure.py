"""Denial-of-airspace pressure test.

Floods the service supplier with concurrent mission requests on
parallel corridors and prints how the quoted fee climbs with the count
of active missions, which is exactly what makes the flood expensive.

Run: python3 demos/05_airspace_pressure.py
"""

import time

from skyledger import DroneSpec, MissionSpec, ReporterSpec, Scenario, World
from skyledger.geo import format_dms_pair


def dms(lat, lon):
    return format_dms_pair(lat, lon)


N = 60
drones, reporters = [], []
for i in range(N):
    lat = 10 + 7 * i
    drones.append(DroneSpec(
        name=f"d{i}", serial=f"SN-{i:04d}", owner_national_id=f"NID-{i:04d}",
        mission=MissionSpec(dms(lat, 10), dms(lat, 60), "01012025", "0001"),
    ))
    row = (lat * 30) // 100
    reporters.append(ReporterSpec(name=f"r{i}", cell=(row, 9), sensing_range_m=150))

scenario = Scenario(name="pressure", seed=9, grid_extent_cells=256, duration_ticks=25,
                    drones=tuple(drones), reporters=tuple(reporters))

start = time.perf_counter()
world = World(scenario)
world.run_to_end()
metrics = world.metrics()
elapsed = time.perf_counter() - start

print(f"{N} drones, {N} watchers, {metrics.transactions} transactions, "
      f"{metrics.blocks} blocks in {elapsed:.1f}s")
print(f"all missions settled: {len(metrics.missions) == N}")
print(f"chain verifies: {world.ledger.verify_chain()}")
print()
print("quoted fee vs concurrent active missions:")
for q in metrics.quotes[:: max(1, N // 12)]:
    bar = "#" * ((q["fee"] - 1000) // 4)
    print(f"  {q['congestion']:>3} active: {q['fee']:>5} {bar}")
