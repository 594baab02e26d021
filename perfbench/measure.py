"""Timed iterations of one workload, their output checks, and the metrics.

One iteration is what a user of ``skyledger run`` waits for, split into
the phases the end-to-end metrics name:

    setup     World(scenario): accounts, genesis, register/subscribe/quote/plan
    run       World.run_to_end(), or the quote_poll client loop
    export    metrics plus every file ``skyledger run`` writes except the state
    snapshot  persistence.snapshot_world on the sealed world
    restore   persistence.restore_world from those bytes
    verify    persistence.verify_chain_file on the written chain log

Every iteration is then checked (outside the timed phases); a failed check
or an exception escaping ``submit`` counts as a failed operation.

The host this runs on is shared: other tenants slow the interpreter by up
to 2x, in stretches from a fraction of a second to minutes, so raw times of
one commit differ by more than any bound between two runs. While an
untraced phase runs, a timer signal therefore interrupts it every
``REFERENCE_INTERVAL_S`` to time a fixed reference task of the benchmark's
own; the handler's time is taken out of the phase's time, and every
end-to-end time is reported scaled to a host on which that task takes
``REFERENCE_S`` (see ``Iteration.host_factor``).
"""

from __future__ import annotations

import gc
import hashlib
import json
import pickle
import resource
import shutil
import signal
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import workloads
from skyledger import persistence
from skyledger.sim import World
from skyledger.uss import REVERT_INVALID_REPORT
from tracing import END, NAME, PARENT, START, TAG, CHILD, Tracer

PHASES = ("setup", "run", "export", "snapshot", "restore", "verify")
VIEW_OPS = ("request_quote", "get_drone")


# -- workloads -----------------------------------------------------------------

class SimWorkload:
    """A scenario driven by the simulator's own closed loop."""

    def __init__(self, scenario, expected_reverts: frozenset[str], required_reverts: frozenset[str]):
        self.scenario = scenario
        self.expected_reverts = expected_reverts
        self.required_reverts = required_reverts

    def prepare(self, world: World) -> None:
        return None

    def run(self, world: World, client: None) -> list[str]:
        world.run_to_end()
        return []

    def check(self, world: World, client: None, metrics) -> list[str]:
        problems = []
        unsettled = [d.spec.name for d in world.drones if d.plan is None or not d.completed]
        if unsettled or len(metrics.missions) != len(self.scenario.drones):
            problems.append(f"{len(unsettled)} missions did not settle: {unsettled[:5]}")
        sc = self.scenario
        for m in metrics.missions:
            payout = max(0, sc.fee_params.deposit - m["penalties"] * sc.fine_unit) + m["rewards"] * sc.bonus_unit
            if m["payout"] != payout:
                problems.append(f"drone {m['droneId']} paid {m['payout']}, settlement formula gives {payout}")
        return problems


class QuotePollWorkload:
    """One client issuing a seeded mix of views and reports against K live plans."""

    expected_reverts: frozenset[str] = frozenset()
    required_reverts: frozenset[str] = frozenset()

    def __init__(self, seed: int, plans: int, bystanders: int, ops: int, seal_every: int):
        self.scenario = workloads.quote_poll_scenario(seed, plans, bystanders)
        self.seed, self.ops, self.seal_every = seed, ops, seal_every

    def prepare(self, world: World) -> list[workloads.ClientOp]:
        # account ids and plans are public outputs of setup; building the
        # transactions from them is input generation, so it is not timed
        owners = {d.drone_id: d.operator_account for d in world.drones}
        plans = {d.drone_id: d.plan for d in world.drones}
        bystanders = [r.account for r in world.reporters]
        return workloads.quote_poll_ops(self.seed, self.ops, owners, plans, bystanders, world.uss.treasury)

    def run(self, world: World, client: list[workloads.ClientOp]) -> list[str]:
        ledger, errors = world.ledger, []
        self.records = []
        for i, op in enumerate(client, 1):
            try:
                self.records.append(ledger.submit(op.caller, op.op, op.args))
            except Exception as exc:  # noqa: BLE001 -- counted as a failed operation
                self.records.append(None)
                errors.append(f"{op.op} raised {exc!r}")
            if i % self.seal_every == 0 and ledger.pending:
                ledger.seal_block()
        if ledger.pending:
            ledger.seal_block()
        return errors

    def check(self, world: World, client: list[workloads.ClientOp], metrics) -> list[str]:
        """Every op succeeds; quotes match an independent fee oracle."""
        problems = []
        sc = self.scenario
        buf = sc.deconfliction_time_buffer_s
        clock = world.ledger.clock
        plans = [d.plan for d in world.drones]
        congestion = sum(1 for p in plans if p["departureEpoch"] - buf <= clock <= p["arrivalEpoch"] + buf)
        # no mission settles in this workload, so every operator keeps k = 1
        fee = sc.fee_params.base_cost + sc.fee_params.deposit + sc.fee_params.surcharge_per_mission * congestion
        for op, rec in zip(client, self.records):
            if rec is None:
                continue
            if rec.status != "success":
                problems.append(f"{op.op} on drone {op.drone_id} reverted: {rec.reason}")
            elif op.op == "request_quote" and rec.payload != {"fee": fee, "congestion": congestion}:
                problems.append(f"quote {rec.payload} != oracle fee {fee}, congestion {congestion}")
            elif op.op == "get_drone" and (
                rec.payload["droneId"] != op.drone_id
                or rec.payload["ownerAccount"] != world.drones[op.drone_id].operator_account
            ):
                problems.append(f"get_drone({op.drone_id}) returned {rec.payload}")
        return problems


def make_workload(name: str, seed: int, sizes: dict[str, int] | None = None):
    if name == "doas":
        s = sizes or workloads.DOAS_SIZES
        return SimWorkload(workloads.doas_scenario(seed, **s), frozenset(), frozenset())
    if name == "crowd":
        s = sizes or workloads.CROWD_SIZES
        only_forgery = frozenset({REVERT_INVALID_REPORT})
        return SimWorkload(workloads.crowd_scenario(seed, **s), only_forgery, only_forgery)
    if name == "quote_poll":
        return QuotePollWorkload(seed, **(sizes or workloads.QUOTE_POLL_SIZES))
    raise ValueError(f"unknown workload {name!r}")



# -- host speed ----------------------------------------------------------------

# The reference task does the kinds of work the program spends its time on
# (pickling nested dicts, comparing them in Python, hashing and JSON
# encoding) on fixed data of its own; nothing of the program runs in it.
_REFERENCE_DATA = {f"k{i}": {"a": i, "b": [i, i + 1, str(i)], "c": (i, "x" * 8)} for i in range(600)}
# What the reference task takes, interleaved with a phase, on a quiet host
# of the kind the benchmark was defined on; it only sets the scale of the
# reported times.
REFERENCE_S = 1.0e-3
# How often a running phase is interrupted to time the reference task.
REFERENCE_INTERVAL_S = 0.02
# A phase with fewer reference samples than this is scaled by all of its
# iteration's samples instead.
MIN_REFERENCE_SAMPLES = 3


def _reference_task() -> None:
    blob = pickle.dumps(_REFERENCE_DATA, protocol=pickle.HIGHEST_PROTOCOL)
    back = pickle.loads(blob)
    sum(1 for k, v in back.items() if v != _REFERENCE_DATA[k])
    hashlib.sha256(blob).digest()
    json.dumps(back["k7"], sort_keys=True)
    tally: dict[int, int] = {}
    for i in range(1200):
        tally[i % 97] = tally.get(i % 97, 0) + i


def time_reference_task() -> float:
    """Seconds for one run of the reference task. The collector is off, so
    the program's garbage and gc settings do not reach into it."""
    gc_was_on = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _reference_task()
        return time.perf_counter() - t0
    finally:
        if gc_was_on:
            gc.enable()


class HostProbe:
    """While entered, times the reference task every ``REFERENCE_INTERVAL_S``.

    A SIGALRM timer interrupts the phase between bytecodes; the handler runs
    the reference task once and adds the time it took to ``spent``, which
    the caller takes out of the phase's time. The previous handler is back
    in place on leaving, whatever way the phase ends.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0

    def _on_alarm(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.samples.append(time_reference_task())
        self.spent += time.perf_counter() - t0

    def __enter__(self) -> "HostProbe":
        self.samples, self.spent = [], 0.0
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, REFERENCE_INTERVAL_S, REFERENCE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


# -- one iteration ---------------------------------------------------------------

@dataclass
class Iteration:
    samples: dict[str, list[float]] = field(default_factory=dict)  # phase -> seconds per repeat
    reference: dict[str, list[float]] = field(default_factory=dict)  # phase -> reference-task seconds during it
    transactions: int = 0
    attempted: int = 0
    errors: list[str] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    reverts: dict[str, int] = field(default_factory=dict)
    fingerprint: str = ""
    state_writes: int = 0
    snapshot_bytes: int = 0
    chain_bytes: int = 0

    @property
    def wall_s(self) -> float:
        """One pass through every phase, each phase at its median repeat."""
        return sum(statistics.median(xs) for xs in self.samples.values())

    def host_factor(self, phase: str | None = None) -> float:
        """How much slower than the reference host a phase ran: the median
        reference-task time measured during it, over ``REFERENCE_S``. A raw
        time divided by it is the time on the reference host. With no phase,
        or too few samples in it: over the whole iteration."""
        pool = self.reference.get(phase, [])
        if len(pool) < MIN_REFERENCE_SAMPLES:
            pool = [x for xs in self.reference.values() for x in xs]
        return statistics.median(pool) / REFERENCE_S

    def scaled(self, phase: str) -> list[float]:
        """The phase's samples, scaled to the reference host."""
        factor = self.host_factor(phase)
        return [x / factor for x in self.samples[phase]]


# The phases after the run take milliseconds; each is repeated this many
# times per untraced iteration, so a run holds enough samples of them.
SHORT_PHASE_REPEATS = 10


def _timed(fn, repeats: int = 1, probe: HostProbe | None = None):
    """Call fn repeats times; return its last result and every duration,
    less the time the probe's handler took during it."""
    samples, result = [], None
    for _ in range(repeats):
        result = None  # drop the last result first, or peak memory counts two
        spent = probe.spent if probe else 0.0
        t0 = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - t0
        samples.append(elapsed - (probe.spent - spent if probe else 0.0))
    return result, samples


def run_iteration(workload, out_dir: Path, tracer: Tracer | None = None, probe_host: bool = True) -> Iteration:
    """One timed pass through every phase, then the output checks.

    A traced iteration runs each phase once, so its spans describe one pass,
    and is not interrupted by the host probe, nor is one with ``probe_host``
    false.
    """
    it = Iteration()
    name = workload.scenario.name
    chain_path = out_dir / f"{name}.chain.jsonl"
    metrics_path = out_dir / f"{name}.metrics.json"
    mark = tracer.mark_phase if tracer else (lambda phase: None)
    repeats = 1 if tracer else SHORT_PHASE_REPEATS

    def export():
        metrics = world.metrics()
        persistence.write_metrics(metrics_path, metrics)
        persistence.write_chain_jsonl(chain_path, world.ledger.blocks)
        persistence.write_trace_csv(out_dir / f"{name}.trace.csv", world)
        persistence.write_events_jsonl(out_dir / f"{name}.events.jsonl", world.ledger.blocks)
        persistence.write_reputation_surface_csv(out_dir / "reputation_surface.csv")
        persistence.write_congestion_fee_csv(out_dir / "congestion_fee.csv", workload.scenario)
        return metrics

    probe = HostProbe() if probe_host and not tracer else None

    def phase(label: str, fn, times: int = 1):
        mark(label)
        if probe is None:
            result, it.samples[label] = _timed(fn, times)
        else:
            with probe:
                result, it.samples[label] = _timed(fn, times, probe)
            it.reference[label] = probe.samples
        mark("")
        return result

    gc.collect()  # each iteration starts from the same heap, not the last one's garbage
    if tracer:
        tracer.install()
    try:
        world = phase("setup", lambda: World(workload.scenario))
        client = workload.prepare(world)
        it.errors = phase("run", lambda: workload.run(world, client))
        metrics = phase("export", export, repeats)
        snapshot = phase("snapshot", lambda: persistence.snapshot_world(world), repeats)
        restored = phase("restore", lambda: persistence.restore_world(snapshot), repeats)
        chain_ok, bad_block = phase("verify", lambda: persistence.verify_chain_file(chain_path), repeats)
        if probe and sum(map(len, it.reference.values())) < MIN_REFERENCE_SAMPLES:
            # phases too short for the timer (tiny sizes): time the task after them
            it.reference["after"] = [time_reference_task() for _ in range(MIN_REFERENCE_SAMPLES)]
    except Exception as exc:  # noqa: BLE001 -- e.g. an exception escaping submit: the iteration fails
        it.errors.append(f"iteration raised {exc!r}")
        return it
    finally:
        if tracer:
            tracer.uninstall()

    it.transactions = metrics.transactions - 1  # genesis is not a transaction anyone sent
    it.attempted = it.transactions + len(it.errors)
    it.reverts = dict(metrics.revert_counts)
    it.state_writes = sum(c["stateWrites"] for c in metrics.op_counts.values())
    it.snapshot_bytes = len(snapshot)
    it.chain_bytes = chain_path.stat().st_size
    it.fingerprint = f"{metrics.chain_head} {hashlib.sha256(metrics_path.read_bytes()).hexdigest()}"

    problems = it.problems
    if not chain_ok:
        problems.append(f"written chain log fails verification at block {bad_block}")
    if metrics.final_supply != metrics.genesis_supply or world.ledger.total_supply() != metrics.genesis_supply:
        problems.append(f"supply moved: genesis {metrics.genesis_supply}, final {metrics.final_supply}")
    if restored.ledger.state_digest() != world.ledger.state_digest():
        problems.append("restored state digest differs from the live world's")
    if restored.ledger.chain_head_hex() != world.ledger.chain_head_hex():
        problems.append("restored chain head differs from the live world's")
    unexpected = set(it.reverts) - workload.expected_reverts
    if unexpected:
        problems.append(f"unexpected revert reasons: {sorted(unexpected)}")
    missing = workload.required_reverts - set(it.reverts)
    if missing:
        problems.append(f"expected reverts did not occur: {sorted(missing)}")
    problems.extend(workload.check(world, client, metrics))
    return it


def peak_rss_mb_of_one_iteration(name: str, seed: int, out_dir: str) -> float:
    """Run in a fresh process: the peak resident memory of one iteration.

    A process of its own, so the number does not depend on how many
    iterations the timing loop fitted in or how fragmented its heap got;
    without the host probe, whose timing would move when the collector runs.
    """
    it = run_iteration(make_workload(name, seed), Path(out_dir), probe_host=False)
    if it.errors or it.problems:
        raise RuntimeError(f"memory iteration failed: {it.errors + it.problems}")
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


# -- metrics -------------------------------------------------------------------

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "us_per_tx": "us",
    "export_s": "s",
    "snapshot_s": "s",
    "restore_s": "s",
    "verify_s": "s",
    "peak_rss_mb": "MB",
}


def scaled_median(iterations: list[Iteration], phase: str) -> float:
    """Median of every sample of a phase, each scaled to the reference host."""
    return statistics.median(x for it in iterations for x in it.scaled(phase))


def end_to_end(iterations: list[Iteration], peak_rss_mb: float) -> dict[str, float]:
    """Medians over the run, scaled to the reference host, plus the separately measured peak RSS."""
    out = {f"{p}_s": scaled_median(iterations, p) for p in PHASES}
    out["us_per_tx"] = statistics.median(
        (it.scaled("setup")[0] + it.scaled("run")[0]) / it.transactions * 1e6 for it in iterations
    )
    out["peak_rss_mb"] = peak_rss_mb
    return {k: out[k] for k in END_TO_END_UNITS}


# name -> (unit, better); the order is the order they print in
PER_LAYER: dict[str, tuple[str, str]] = {
    "ledger.submit.calls": ("count", "lower"),
    "ledger.submit.self_s": ("s", "lower"),
    "ledger.submit.p50_us": ("us", "lower"),
    "ledger.submit.p99_us": ("us", "lower"),
    "ledger.submit.growth": ("ratio", "lower"),
    "ledger.view.p50_us": ("us", "lower"),
    "ledger.view.p99_us": ("us", "lower"),
    "ledger.revert.count": ("count", "lower"),
    "ledger.revert.p50_us": ("us", "lower"),
    "ledger.state_writes": ("count", "lower"),
    "ledger.seal_block.calls": ("count", "lower"),
    "ledger.seal_block.s": ("s", "lower"),
    "ledger.verify_blocks.s": ("s", "lower"),
    "authority.op_register_drone.s": ("s", "lower"),
    "uss.op_request_plan.s": ("s", "lower"),
    "uss.schedule_route.s": ("s", "lower"),
    "uss.schedule_route.calls": ("count", "lower"),
    "uss.congestion_count.s": ("s", "lower"),
    "uss.congestion_count.calls": ("count", "lower"),
    "uss.op_request_quote.s": ("s", "lower"),
    "uss.op_report_drone.s": ("s", "lower"),
    "uss.op_report_drone.calls": ("count", "lower"),
    "uss.op_report_completion.s": ("s", "lower"),
    "rid.s": ("s", "lower"),
    "rid.verify_rid_vc.calls": ("count", "lower"),
    "economics.s": ("s", "lower"),
    "geo.within_range.calls": ("count", "lower"),
    "geo.within_range.s": ("s", "lower"),
    "sim.sensing.hit_ratio": ("ratio", "higher"),
    "geo.parse_dms_pair.calls": ("count", "lower"),
    "geo.parse_dms_pair.s": ("s", "lower"),
    "geo.route_occupancy.s": ("s", "lower"),
    "sim.setup.s": ("s", "lower"),
    "sim.walk.s": ("s", "lower"),
    "sim.broadcast.s": ("s", "lower"),
    "sim.report.s": ("s", "lower"),
    "sim.completion.s": ("s", "lower"),
    "sim.seal.s": ("s", "lower"),
    "sim.emit_metrics.s": ("s", "lower"),
    "persistence.write_chain_jsonl.s": ("s", "lower"),
    "persistence.write_trace_csv.s": ("s", "lower"),
    "persistence.write_events_jsonl.s": ("s", "lower"),
    "persistence.read_chain_jsonl.s": ("s", "lower"),
    "persistence.snapshot_bytes": ("B", "lower"),
    "persistence.chain_bytes_per_tx": ("B/tx", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
    "trace.uncovered_s": ("s", "lower"),
    "trace.uncovered_share": ("ratio", "lower"),
    "trace.absent_hooks": ("count", "lower"),
}

# Latency percentiles pool every traced iteration's samples; the rest are
# medians of per-iteration values.
_POOLED = ("submit", "view", "revert")


@dataclass
class LayerSample:
    values: dict[str, float]
    latencies_us: dict[str, list[float]]


def layer_sample(tracer: Tracer, it: Iteration) -> LayerSample:
    """Per-layer values of one traced iteration."""
    calls: dict[str, int] = {}
    incl: dict[str, float] = {}
    self_s: dict[str, float] = {}
    submit_self: list[float] = []
    lat = {k: [] for k in _POOLED}
    hits = run_seals = covered = 0.0
    phases = tracer.phase_of_spans()
    for span, phase in zip(tracer.spans, phases):
        if not phase:
            continue  # input generation between timed phases
        name, dur = span[NAME], span[END] - span[START]
        calls[name] = calls.get(name, 0) + 1
        incl[name] = incl.get(name, 0.0) + dur
        self_s[name] = self_s.get(name, 0.0) + dur - span[CHILD]
        if span[PARENT] < 0:
            covered += dur
        if name == "ledger.submit":
            submit_self.append(dur - span[CHILD])
            lat["submit"].append(dur * 1e6)
            if span[TAG] is not None:
                op, status = span[TAG]
                if op in VIEW_OPS:
                    lat["view"].append(dur * 1e6)
                if status == "revert":
                    lat["revert"].append(dur * 1e6)
        elif name == "geo.within_range":
            hits += bool(span[TAG])
        elif name == "ledger.seal_block" and phase == "run":
            run_seals += dur

    def group_self(prefix: str) -> float:
        return sum(v for k, v in self_s.items() if k.startswith(prefix))

    tenth = max(1, len(submit_self) // 10)
    first, last = submit_self[:tenth], submit_self[-tenth:]
    wall = it.wall_s
    v = {
        "ledger.submit.calls": calls.get("ledger.submit", 0),
        "ledger.submit.self_s": self_s.get("ledger.submit", 0.0),
        "ledger.submit.growth": (sum(last) / len(last)) / (sum(first) / len(first)) if first else 0.0,
        "ledger.revert.count": len(lat["revert"]),
        "ledger.state_writes": it.state_writes,
        "ledger.seal_block.calls": calls.get("ledger.seal_block", 0),
        "ledger.seal_block.s": incl.get("ledger.seal_block", 0.0),
        "ledger.verify_blocks.s": incl.get("ledger.verify_blocks", 0.0),
        "authority.op_register_drone.s": incl.get("authority.op_register_drone", 0.0),
        "rid.s": group_self("rid."),
        "rid.verify_rid_vc.calls": calls.get("rid.verify_rid_vc", 0),
        "economics.s": group_self("economics."),
        "sim.sensing.hit_ratio": hits / calls["geo.within_range"] if calls.get("geo.within_range") else 0.0,
        "sim.seal.s": run_seals,
        "sim.emit_metrics.s": incl.get("sim.emit_metrics", 0.0),
        "persistence.snapshot_bytes": it.snapshot_bytes,
        "persistence.chain_bytes_per_tx": it.chain_bytes / it.transactions,
        "trace.uncovered_s": wall - covered,
        "trace.uncovered_share": (wall - covered) / wall,
        "trace.absent_hooks": len(tracer.absent),
    }
    for key in PER_LAYER:
        if key in v or key.startswith("trace.") or key.endswith("_us"):
            continue
        span_name, _, what = key.rpartition(".")
        if what == "calls":
            v[key] = calls.get(span_name, 0)
        elif span_name.startswith("sim."):
            v[key] = self_s.get(span_name, 0.0)  # phases report self time
        else:
            v[key] = incl.get(span_name, 0.0)
    return LayerSample(v, lat)


def per_layer(samples: list[LayerSample], overhead_ratio: float) -> dict[str, float]:
    out: dict[str, float] = {}
    for key in PER_LAYER:
        if key == "trace.overhead_ratio":
            out[key] = overhead_ratio
        elif key.endswith(("p50_us", "p99_us")):
            group = key.split(".")[1]
            pooled = sorted(x for s in samples for x in s.latencies_us[group])
            out[key] = _percentile(pooled, 50 if key.endswith("p50_us") else 99)
        else:
            out[key] = statistics.median(s.values[key] for s in samples)
    return out


def _percentile(sorted_xs: list[float], pct: int) -> float:
    if not sorted_xs:
        return 0.0
    return sorted_xs[min(len(sorted_xs) - 1, (len(sorted_xs) * pct) // 100)]


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path
