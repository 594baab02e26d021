"""Smoke check of the benchmark at tiny sizes; takes a few seconds.

    python3 perfbench/smoke.py

Runs one untraced and one traced iteration of every workload at tiny
sizes and checks that every output check passes, every metric is
produced, every tracing hook finds its target, two runs of one seed
give one fingerprint, and the host probe leaves no timer or handler behind. Then checks that a hook with no target is reported
as absent, and that ``run.py`` refuses to run, without printing a result,
where there is no program to measure.
"""

from __future__ import annotations

import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import measure  # noqa: E402 -- needs the checkout's src on sys.path
import tracing  # noqa: E402
from run import WORKLOADS  # noqa: E402
from tracing import Tracer  # noqa: E402

TINY = {
    "doas": {"drones": 4},
    "crowd": {"drones": 4, "bystanders": 16},
    "quote_poll": {"plans": 4, "bystanders": 4, "ops": 40, "seal_every": 10},
}


def check_workload(name: str, out_dir: Path) -> list[str]:
    failures = []
    workload = measure.make_workload(name, seed=3, sizes=TINY[name])
    first = measure.run_iteration(workload, out_dir)
    again = measure.run_iteration(measure.make_workload(name, seed=3, sizes=TINY[name]), out_dir)
    tracer = Tracer()
    traced = measure.run_iteration(workload, out_dir, tracer)
    for label, it in (("untraced", first), ("repeat", again), ("traced", traced)):
        failures += [f"{name} {label}: {p}" for p in it.errors + it.problems]
    if failures:
        return failures
    if len({first.fingerprint, again.fingerprint, traced.fingerprint}) != 1:
        failures.append(f"{name}: one seed gave different fingerprints")
    if tracer.absent:
        failures.append(f"{name}: hooks found no target: {tracer.absent}")
    if signal.getitimer(signal.ITIMER_REAL) != (0.0, 0.0) or signal.getsignal(signal.SIGALRM) is not signal.SIG_DFL:
        failures.append(f"{name}: the host probe left its timer or handler in place")
    e2e = measure.end_to_end([first], peak_rss_mb=1.0)
    layers = measure.per_layer([measure.layer_sample(tracer, traced)], overhead_ratio=1.0)
    if set(e2e) != set(measure.END_TO_END_UNITS):
        failures.append(f"{name}: end-to-end metrics {sorted(e2e)}")
    if set(layers) != set(measure.PER_LAYER):
        failures.append(f"{name}: per-layer metrics {sorted(layers)}")
    if not all(v > 0 for v in e2e.values()):
        failures.append(f"{name}: an end-to-end metric is not positive: {e2e}")
    if layers["ledger.submit.calls"] != traced.transactions:
        failures.append(f"{name}: {layers['ledger.submit.calls']} submits for {traced.transactions} transactions")
    return failures


def check_absent_hook() -> list[str]:
    """A hook whose target a refactor removed is reported, not fatal."""
    tracer = Tracer(tracing.HOOKS + (("sim.gone", "skyledger.sim", "World._phase_that_was_removed"),))
    tracer.install()
    tracer.uninstall()
    return [] if tracer.absent == ["sim.gone"] else [f"absent hooks reported as {tracer.absent}"]


def check_refuses_without_program(work_dir: Path) -> list[str]:
    bare = work_dir / "bare"
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "doas", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"run.py without src/: exit {proc.returncode}, stdout {proc.stdout!r}"]
    return []


def main() -> int:
    work_dir = measure.fresh_dir(ROOT / ".perfbench_out" / "smoke")
    try:
        failures = []
        for name in WORKLOADS:
            failures += check_workload(name, work_dir)
        failures += check_absent_hook()
        failures += check_refuses_without_program(work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    for line in failures:
        print(f"FAIL {line}")
    print("smoke: ok" if not failures else f"smoke: {len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
