"""skyledger benchmark: one workload, closed loop, one client, one process.

    python3 perfbench/run.py --workload doas --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from the root of a checkout: the program is imported from its
``src/``. The workload is repeated for ``--seconds`` and every iteration's
outputs are checked. With ``--trace 0`` each end-to-end time is the
median of the run's samples scaled to a reference host speed (see
``measure.Iteration.host_factor``); with ``--trace 1`` untraced and traced
iterations alternate and the per-layer metrics come from the traced
ones. The last
line of standard output is one JSON object; the exit code is 1 when any
check failed and 2 when the program cannot be found.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
BASELINE = Path(__file__).resolve().parent / "baseline.json"
WORKLOADS = ("doas", "crowd", "quote_poll")
CHILD_TIMEOUT_S = 120


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument(
        "--workload", required=True, choices=WORKLOADS + ("all",),
        help="'all' runs every workload in turn, each in a process of its own",
    )
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="how long to keep repeating the workload")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: run one iteration and print this process's peak RSS in MB
    p.add_argument("--peak-rss-child", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--child-dir", default="", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return _run_all(args)
    if not (SRC / "skyledger" / "__init__.py").is_file():
        print(f"perfbench: no skyledger sources at {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import measure  # needs the checkout's src on sys.path
    from tracing import Tracer

    if args.peak_rss_child:
        print(measure.peak_rss_mb_of_one_iteration(args.workload, args.seed, args.child_dir))
        return 0

    workload = measure.make_workload(args.workload, args.seed)
    out_dir = measure.fresh_dir(OUT / f"{args.workload}-{args.seed}-{os.getpid()}")
    untraced, traced, samples = [], [], []
    tracer = None
    peak_rss_mb = None
    try:
        # warm-up: lazy imports, compiled regexes and a grown heap are not
        # what later iterations pay; it is checked but not measured
        warmup = measure.run_iteration(workload, out_dir)
        deadline = time.perf_counter() + args.seconds
        while not warmup.errors and (not untraced or time.perf_counter() < deadline):
            untraced.append(measure.run_iteration(workload, out_dir))
            if args.trace:
                tracer = Tracer()
                traced.append(measure.run_iteration(workload, out_dir, tracer))
                if not traced[-1].errors:
                    samples.append(measure.layer_sample(tracer, traced[-1]))
            if untraced[-1].errors or (traced and traced[-1].errors):
                break  # the program is broken; more iterations add nothing
        if not args.trace and not _run_problems([warmup] + untraced):
            peak_rss_mb = _peak_rss_mb(args, out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    iterations = [warmup] + untraced + traced
    problems = _run_problems(iterations)
    ok = [it for it in untraced if not it.errors]
    for line, count in Counter(problems).items():
        print(f"CHECK FAILED (x{count}): {line}", file=sys.stderr)

    if args.trace:
        units = {k: u for k, (u, _) in measure.PER_LAYER.items()}
        metrics = {}
        if samples and ok:
            # untraced and traced iterations alternate, so both meet the same host
            overhead = statistics.median(it.wall_s for it in traced) / statistics.median(it.wall_s for it in ok)
            metrics = measure.per_layer(samples, overhead)
        if tracer is not None:
            tracer.write_spans(OUT / f"{args.workload}.spans.csv")
            if tracer.absent:
                print(f"absent hooks (reported as 0): {', '.join(tracer.absent)}")
    else:
        units = measure.END_TO_END_UNITS
        metrics = measure.end_to_end(ok, peak_rss_mb) if peak_rss_mb else {}

    _print_report(args, iterations, metrics, units)
    if ok and not args.trace:
        raw = ", ".join(f"{p}_s {statistics.median(x for it in ok for x in it.samples[p]):.6g}" for p in measure.PHASES)
        factors = sorted(it.host_factor() for it in ok)
        print(f"host factor (reference-task median / {measure.REFERENCE_S:g} s): "
              f"median {statistics.median(factors):.3f}, range {factors[0]:.3f}-{factors[-1]:.3f}")
        print(f"unscaled medians: {raw}")
    result = {
        "correct": not problems,
        "attempted": max(1, sum(it.attempted for it in iterations)),
        "failed": len(problems),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not problems and metrics else 1


def _run_all(args: argparse.Namespace) -> int:
    """Each workload in a fresh process, so its peak RSS and heap are its own."""
    worst = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        worst = max(worst, subprocess.run(cmd, check=False).returncode)
    return worst


def _diverged(iterations) -> bool:
    return len({it.fingerprint for it in iterations if not it.errors}) > 1


def _run_problems(iterations) -> list[str]:
    problems = [p for it in iterations for p in it.errors + it.problems]
    if _diverged(iterations):
        problems.append("iterations of one seed produced different chain heads or metrics bytes")
    return problems


def _peak_rss_mb(args, out_dir: Path) -> float:
    """Peak RSS of a fresh process that runs one iteration of the workload.

    The child is waited for on every path out: subprocess.run kills it on a
    timeout or an exception before returning or raising.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--peak-rss-child", "--child-dir", str(out_dir)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"peak RSS child exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return float(proc.stdout.strip().splitlines()[-1])


def _print_report(args, iterations, metrics, units) -> None:
    it = next((i for i in iterations if not i.errors), iterations[0])
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  iterations {len(iterations)}")
    print(f"transactions per iteration {it.transactions} (genesis excluded)")
    reverts = ", ".join(f"{k!r} x{v}" for k, v in sorted(it.reverts.items())) or "none"
    print(f"protocol reverts per iteration: {reverts}")
    if it.fingerprint:
        status = _fingerprint_status(args, it.fingerprint)
        print(f"fingerprint {args.workload} seed {args.seed}: {it.fingerprint}  ({status})")
    for name, value in metrics.items():
        print(f"  {name:<36} {value:>14.6g} {units[name]}")


def _fingerprint_status(args, fingerprint: str) -> str:
    """Compare against fingerprints recorded when the benchmark was defined."""
    try:
        recorded = json.loads(BASELINE.read_text())["fingerprints"][args.workload].get(str(args.seed))
    except (OSError, ValueError, KeyError):
        recorded = None
    if recorded is None:
        return "no recorded fingerprint for this seed"
    if recorded == fingerprint:
        return "matches the recorded fingerprint"
    return "DIFFERS from the recorded fingerprint: protocol bytes changed"


if __name__ == "__main__":
    sys.exit(main())
