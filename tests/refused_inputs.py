"""Every input the CLI refuses, written once, as one row: tier-1 runs each through cli.main, CI through the installed
`skyledger` script.

    PYTHONPATH=src python tests/refused_inputs.py DIR

runs the demo scenario into DIR/base, writes each case's input under DIR/<case id> and prints one line per case: the
exit code, the stderr pattern and the argv, tab-separated. `--check CODE PATTERN EXIT OUT_FILE ERR_FILE` exits 1,
naming what is wrong, unless a run that exited EXIT and printed those files is what the case expects.

A case edits one base: a file of the demo run ("scenario", "state", "chain"), the demo scenario's snapshot at tick 5,
while plans are live ("live"), or the --out layout of a demo run ("out"). Its edit must change the base. The five
controls run their base as it is and exit 0, so no row is refused only because its base already is.
"""

from __future__ import annotations

import json
import re
import shutil
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import oracles
from skyledger import persistence
from skyledger.cli import INSPECT_QUERIES, main
from skyledger.sim import World

DEMO_SCENARIO = Path(__file__).resolve().parent.parent / "scenarios" / "demo.scenario.json"
BASES = {"scenario": "demo.scenario.json", "state": "demo.state.json", "chain": "demo.chain.jsonl",
         "live": "live.state.json", "out": "demo.state.json"}
QUERIES = [query.replace("<id>", "x") for query in INSPECT_QUERIES]
DEEP_JSON = b"[" * 100_000 + b"]" * 100_000  # deeper than json's decoder recurses
DIRECTORY, MISSING = "a directory", "nothing"  # what an edit leaves at its input's place when that is not a file


@dataclass(frozen=True)
class Case:
    id: str
    edits: str  # a key of BASES
    edit: Callable[[bytes | str], bytes | str] | None  # bytes, DIRECTORY or MISSING; None: the base as it is
    argv: tuple[str, ...]  # "{file}" is the edited input, "{dir}" the case's directory
    code: int
    stderr: str  # re.match pattern; "{dir}" stands for the case's directory


def run(id: str, edit, stderr: str, *options: str) -> Case:
    return Case(id, "scenario", edit, ("run", "--scenario", "{file}", "--out", "{dir}/out", "--quiet", *options), 2,
                stderr)


def verify(id: str, edit, stderr: str, code: int = 2) -> Case:
    return Case(id, "chain", edit, ("verify", "{file}"), code, stderr)


def inspect(id: str, edit, stderr: str, query: str = "supply", edits: str = "state") -> Case:
    return Case(id, edits, edit, ("inspect", "{file}", query), 2, stderr)


# -- edits ---------------------------------------------------------------------

def whole(body: bytes | str):
    """Replace the input with `body`."""
    return lambda _: body


def sub(pattern: bytes, repl: bytes):
    """Replace the first match of `pattern`."""
    return lambda raw: re.sub(pattern, repl, raw, count=1)


def line(n: int, edit: Callable[[bytes], bytes]):
    """Edit line n (0 is the header) and leave the others as they are."""
    def edited(raw: bytes) -> bytes:
        lines = raw.split(b"\n")
        lines[n] = edit(lines[n])
        return b"\n".join(lines)
    return edited


def forged(forge: Callable[[dict], None]):
    """Edit a snapshot as one dict and seal it again (oracles.forge_snapshot)."""
    return lambda raw: oracles.forge_snapshot(raw, forge)


def in_header(edit: Callable[[dict], None]):
    """Edit a snapshot's header line, every hash left as it is."""
    return lambda raw: oracles.edit_snapshot(raw, lambda header, blocks: edit(header))


def first(data: dict, op: str | None = None, status: str = "success") -> dict:
    """The first logged record with this status, and op if one is named."""
    return next(tx for block in data["chain"] for tx in block["transactions"]
                if tx["status"] == status and op in (None, tx["op"]))


def event_of(data: dict, op: str) -> dict:
    """The one event of the first logged success of `op`."""
    (event,) = first(data, op)["events"]
    return event


def ridvc_not_hex(data: dict) -> None:
    """The first settlement's ridVc arg and its missionComplete event's ridVc, both set to "zz"."""
    first(data, "report_completion")["args"]["ridVc"] = event_of(data, "report_completion")["args"]["ridVc"] = "zz"


def flipped_hash(block_line: bytes) -> bytes:
    """The block line with the first hex digit of its recorded hash changed."""
    at = block_line.index(b'"hash":"') + 8
    return block_line[:at] + (b"1" if block_line[at:at + 1] == b"0" else b"0") + block_line[at + 1:]


def _reordered_prefix(block_line: bytes) -> bytes:
    block = json.loads(block_line)
    return json.dumps({k: block[k] for k in ("index", "hash", "prevHash", "transactions")},
                      separators=(",", ":")).encode()


def moved(*deltas: int):
    """A forge that adds each delta to the balance of one account of the header's table, in order."""
    def forge(data: dict) -> None:
        for account, delta in zip(data["accounts"], deltas):
            account["balance"] = str(int(account["balance"]) + delta)
    return forge


def named(name: bytes):
    """Give the scenario `name`, a JSON string, as its name."""
    return lambda raw: raw.replace(b'"name": "demo"', b'"name": ' + name, 1)


# block 1 keeps its prefix, but its body nests deeper than json's decoder recurses
DEEP_BODY = line(2, lambda block: block[:block.index(b'"transactions":') + 15] + DEEP_JSON + b"}")


# -- the table -----------------------------------------------------------------

CONTROLS = [
    Case("control-run", "scenario", None, ("run", "--scenario", "{file}", "--out", "{dir}", "--quiet"), 0, r"\Z"),
    Case("control-inspect", "state", None, ("inspect", "{file}", "supply"), 0, r"\Z"),
    Case("control-verify", "chain", None, ("verify", "{file}"), 0, r"\Z"),
    Case("control-live", "live", None, ("inspect", "{file}", "supply"), 0, r"\Z"),
    Case("control-tx", "state", None, ("inspect", "{file}", "tx:1"), 0, r"\Z"),
]

DEEP = r"maximum recursion depth"
CHAIN = r"cannot parse chain log: "
LAYOUT = CHAIN + r"bad block line: block line is not in the sealed layout$"
SNAPSHOT = r"malformed state snapshot: "
FOLD = SNAPSHOT + r"snapshot structure invalid: "
DROPPED = FOLD + r"tx \d+ \(report_drone\) logs events that its writers do not emit$"
HEAD = SNAPSHOT + r"snapshot chain does not end at the header's head$"
HEADER = SNAPSHOT + r"state header is not the one this code writes: "
NAME = r"invalid scenario: name %s is not a plain file name$"
UNSEALED = oracles.UNSEALED_SNAPSHOT_EDITS
REFUSED = [
    run("run-bad-date", sub(rb'"departureDate": "[0-9]*"', b'"departureDate": "32132025"'),
        r"invalid scenario: drones\[0\]\.mission: month must be in 1\.\.12$"),
    run("run-low-altitude", sub(b'"altitudeM": 60,', b'"altitudeM": -30,'), r"invalid scenario: uss\.altitudeM "),
    run("run-alpha-zero", sub(rb'"alphaMicro": [0-9]*', b'"alphaMicro": 0'),
        r"invalid scenario: economics\.alphaMicro must be at least 1$"),
    run("run-string-seed", sub(b'"seed": 42', b'"seed": "3"'), r"invalid scenario: seed must be an integer$"),
    run("run-string-seed-alone", whole(b'{"schema": {"major": 1, "minor": 0}, "kind": "scenario", "seed": "3"}'),
        r"invalid scenario: seed must be an integer$"),
    run("run-unknown-key", sub(b'"sensingRangeM"', b'"sensingRange": 150, "sensingRangeM"'),
        r"invalid scenario: reporters\[0\]\.sensingRange is not a known key$"),
    run("run-negative-seed-option", None, r"invalid scenario: seed must be at least 0$", "--seed", "-1"),
    run("run-seed-not-an-int", None, r"skyledger run: argument --seed: invalid int value: 'x'$", "--seed", "x"),
    run("run-schema-violation", whole(b'{"schema": {"major": 1}, "kind": "scenario", "seed": -4}'),
        r"invalid scenario: seed must be at least 0$"),
    run("run-malformed", whole(b'{\n  "name": "x",,\n}'), r"parse error at line 2, column 15: "),
    run("run-deep", whole(DEEP_JSON), r"parse error: " + DEEP),
    run("run-huge-int", sub(rb'"seed": 42', b'"seed": ' + b"9" * 5000), r"parse error: "),  # past int's 4300 digits
    run("run-not-utf8", lambda raw: raw.decode().encode("latin-1", "replace"), r"scenario is not UTF-8 text: "),
    run("run-missing", whole(MISSING), r"cannot read scenario "),
    run("run-directory", whole(DIRECTORY), r"cannot read scenario "),
    run("run-name-parent", named(b'"../escaped"'), NAME % r"'\.\./escaped'"),  # its files would land beside --out
    run("run-name-empty", named(b'""'), NAME % "''"),
    run("run-name-dot", named(b'"."'), NAME % r"'\.'"),
    run("run-name-dotdot", named(b'".."'), NAME % r"'\.\.'"),
    run("run-name-slash", named(b'"a/b"'), NAME % "'a/b'"),
    run("run-name-nul", named(rb'"a\u0000b"'), NAME % r"'a\\x00b'"),
    Case("run-unwritable-state", "out", whole(DIRECTORY), ("run", "--scenario", str(DEMO_SCENARIO), "--out", "{dir}",
                                                             "--quiet"), 2, r"cannot write {dir}/demo\.state\.json: "),

    verify("verify-flipped-hash", line(3, flipped_hash), r"chain broken at block 2$", code=4),
    verify("verify-spaced-block", line(1, lambda block: b"{ " + block[1:]), LAYOUT),
    verify("verify-reordered-prefix", line(1, _reordered_prefix), LAYOUT),
    verify("verify-duplicate-key", line(1, lambda block: block[:block.index(b",") + 1] + block[1:]), LAYOUT),
    verify("verify-empty-line", line(1, lambda block: block + b"\n"), CHAIN + r"blank line 3 "),
    verify("verify-blank-line", line(1, lambda block: block + b"\n \t "), CHAIN + r"blank line 3 "),
    verify("verify-float-major", sub(b'"major":1,', b'"major":1.0,'),
           CHAIN + r"chain header is not the one this code writes: \['schema'\] differs$"),
    verify("verify-deep-header", lambda raw: DEEP_JSON + raw[raw.index(b"\n"):], CHAIN + r"bad chain header: " + DEEP),
    verify("verify-deep-block", DEEP_BODY, CHAIN + r"bad block line: " + DEEP),
    verify("verify-empty", whole(b""), CHAIN + r"empty chain file$"),
    verify("verify-header-only", lambda raw: raw[:raw.index(b"\n") + 1], CHAIN + r"no block in chain file$"),
    verify("verify-schema-list", whole(b'{"schema":[1],"kind":"chain"}\n'), CHAIN + r"missing schema header "),
    verify("verify-block-list", whole(b'{"schema":{"major":1},"kind":"chain"}\n[1]\n'), LAYOUT),
    verify("verify-hash-int", whole(b'{"schema":{"major":1},"kind":"chain"}\n'
                                    b'{"index":0,"prevHash":5,"hash":"00","transactions":[]}\n'), LAYOUT),
    verify("verify-not-utf8", whole(b'\xb0{}\n'), CHAIN + r"bad chain header: 'utf-8' codec "),
    verify("verify-missing", whole(MISSING), r"cannot read chain log "),
    verify("verify-directory", whole(DIRECTORY), r"cannot read chain log "),

    inspect("inspect-flipped-byte", line(1, lambda block: block.replace(b'"caller":"0x0', b'"caller":"0x1', 1)),
            SNAPSHOT + r"snapshot chain broken at block 0$"),
    inspect("inspect-spaced-header", line(0, lambda header: b"{ " + header[1:]), HEADER + r"its layout differs$"),
    inspect("inspect-reversed-reporters", in_header(lambda h: h["reporters"].reverse()), HEADER + r"\['reporters'\] "),
    inspect("inspect-clock-ahead", in_header(lambda h: h.update(clock=h["clock"] + 1)),
            SNAPSHOT + r"tick 30 or clock 291 out of range"),
    inspect("inspect-revert-moves", forged(lambda d: (tx := first(d, status="revert")).update(
                balanceDeltas={tx["caller"]: 5, d["accounts"][0]["id"]: -5})),
            FOLD + r"tx \d+ \(report_drone\) logs a revert that writes, moves or emits, "),
    inspect("inspect-genesis-note", forged(lambda d: d["chain"][0]["transactions"][0]["args"].update(note="forged")),
            FOLD + r"chain does not open with this ledger's genesis$"),
    inspect("inspect-raised-payout", forged(lambda d: (settled := first(d, "report_completion")["payload"]).update(
                payout=settled["payout"] + 1)),
            FOLD + r"tx \d+ \(report_completion\) logs a payload or balanceDeltas that its op does not give$"),
    inspect("inspect-unknown-op", forged(lambda d: first(d, "request_quote").update(op="mint")),
            FOLD + r"tx \d+ \(mint\) logs a success that its op reverts: unknown-operation$"),
    inspect("inspect-owner-report", forged(oracles.report_by_owner),
            FOLD + r"tx \d+ \(report_drone\) logs a success that its op reverts: Owner of drone cannot report it!$"),
    inspect("inspect-noon", forged(lambda d: first(d, "report_drone")["args"].update(sightingTime="noon")),
            FOLD + r"tx \d+ \(report_drone\) logs a success that its op reverts: invalid-arg:sightingTime$"),
    inspect("inspect-report-rid-not-hex", forged(lambda d: first(d, "report_drone")["args"].update(rid="zz")),
            FOLD + r"tx \d+ \(report_drone\) logs a success that its op reverts: malformed-rid$"),
    inspect("inspect-report-rid-short", forged(lambda d: (args := first(d, "report_drone")["args"]).update(
                rid=args["rid"][:40])), FOLD + r"tx \d+ \(report_drone\) logs a success that its op reverts: malformed-rid$"),
    inspect("inspect-dropped-event", forged(lambda d: first(d, "report_drone").update(events=[])), DROPPED),
    inspect("inspect-edited-event", forged(lambda d: event_of(d, "report_drone")["args"].update(
                sightingLocation=first(d, "request_plan")["args"]["source"])), DROPPED),
    inspect("inspect-duplicated-event", forged(lambda d: first(d, "report_drone")["events"].append(
                event_of(d, "report_drone"))), DROPPED),
    inspect("inspect-completion-ridvc-not-hex", forged(ridvc_not_hex),
            FOLD + r"tx \d+ \(report_completion\) logs a success that its op reverts: invalid-ridvc$"),
    inspect("inspect-success-reason", forged(lambda d: first(d, "report_drone").update(reason="Invalid report")),
            FOLD + r"tx \d+ logs 'success' for 'report_drone' by .* reason 'Invalid report' "),
    inspect("inspect-declined-terms", forged(lambda d: first(d, "register_drone")["args"].update(signTAC=False)),
            FOLD + r"tx \d+ \(register_drone\) logs a success that its op reverts: Please accept terms "),
    inspect("inspect-float-time", forged(lambda d: (tx := first(d, "report_drone")).update(
                timestamp=tx["timestamp"] + 0.5)), FOLD + r"tx \d+ logs timestamp \d+\.5, not an int "),
    inspect("inspect-no-route", forged(lambda d: first(d, "request_plan")["payload"].update(route=[])),
            FOLD + r"plan for drone 0 has no route "),
    inspect("inspect-float-window", forged(lambda d: (window := first(d, "request_plan")["payload"]["route"][0]).update(
                enterS=float(window["enterS"]))),
            FOLD + r"plan for drone 0 is not the one its request_plan args give$", edits="live"),
    inspect("inspect-inflated-balance", forged(moved(10**9)), HEADER + r"\['accounts'\] differs$"),
    inspect("inspect-empty-chain", forged(lambda d: d.update(chain=[])),
            FOLD + r"chain does not open with this ledger's genesis$"),
    *(inspect(f"inspect-moved-balance-{query.replace(':', '-')}", forged(moved(-500, 500)),
              HEADER + r"\['accounts'\] differs$", query) for query in QUERIES),
    inspect("inspect-unsealed-probe", UNSEALED["probe"], SNAPSHOT + r"snapshot chain broken at block 0$"),
    inspect("inspect-unsealed-broken-link", UNSEALED["broken-link"], SNAPSHOT + r"snapshot chain broken at block 1$"),
    inspect("inspect-unsealed-line-truncation", UNSEALED["line-truncation"], HEAD),
    inspect("inspect-unsealed-head-mismatch", UNSEALED["head-mismatch"], HEAD),
    inspect("inspect-deep-body", DEEP_BODY, SNAPSHOT + r"bad block line: " + DEEP),
    inspect("inspect-off-grid", forged(lambda d: d["reporters"][0].update(cell=[9999, 9999])),
            SNAPSHOT + r"reporter 'walker-a': cell off the grid"),
    inspect("inspect-version-1", forged(lambda d: d.update(schema={"major": 1, "minor": 0})),
            r"not a readable state snapshot: unsupported major version ", "accounts"),
    inspect("inspect-version-2", forged(lambda d: d.update(schema={"major": 2, "minor": 0})),
            r"not a readable state snapshot: unsupported major version ", "drones"),
    inspect("inspect-unknown-query", None, r"unknown query 'vibes'; ", "vibes"),
    inspect("inspect-unknown-query-no-file", whole(MISSING), r"unknown query 'vibes'; ", "vibes"),  # looked up first
    Case("inspect-no-query", "state", None, ("inspect", "{file}"), 2,
         r"skyledger inspect: the following arguments are required: query$"),
    inspect("inspect-no-such-tx", None, r"no such tx: 26$", "tx:26"),  # one past the demo run's last record
    inspect("inspect-tx-not-an-id", None, r"no such tx: x$", "tx:x"),
    inspect("inspect-not-a-snapshot", whole(b"{}"), SNAPSHOT + r"missing schema header ", "accounts"),
    inspect("inspect-schema-list", whole(b'{"schema":[1],"kind":"state"}'), SNAPSHOT + r"missing schema header "),
    inspect("inspect-not-utf8", whole(b"\xb0{}"), SNAPSHOT + r"bad state header: 'utf-8' codec "),
    inspect("inspect-directory", whole(DIRECTORY), r"cannot read state snapshot "),
    *(inspect(f"inspect-header-alone-{query.replace(':', '-')}",
              whole(b'{"schema":{"major":4,"minor":0},"kind":"state"}'), HEAD, query) for query in QUERIES),
    Case("cli-demo-removed", "scenario", None, ("demo", "full"), 2,
         r"skyledger: argument command: invalid choice: 'demo'"),  # gone: inspect's tx:<id> shows a record
]

CASES = CONTROLS + REFUSED


# -- writing and checking -----------------------------------------------------

def write_bases(root: Path) -> Path:
    """The demo run's files and the tick-5 live snapshot, under root/base."""
    base = root / "base"
    base.mkdir(parents=True)
    shutil.copyfile(DEMO_SCENARIO, base / BASES["scenario"])
    if main(["run", "--scenario", str(base / BASES["scenario"]), "--out", str(base), "--quiet"]) != 0:
        raise RuntimeError("the demo scenario does not run")
    world = World(persistence.load_scenario(DEMO_SCENARIO))
    while world.tick < 5:
        world.step()
    if not world.uss.missions:
        raise RuntimeError("no plan is live at tick 5")
    (base / BASES["live"]).write_bytes(persistence.snapshot_world(world))
    return base


def write_case(case: Case, base: Path, at: Path) -> tuple[list[str], str]:
    """Write the case's input under `at`, a directory of its own; its argv and its stderr pattern."""
    file = base / BASES[case.edits]
    if case.edit is not None:
        before = MISSING if case.edits == "out" else file.read_bytes()
        after, file = case.edit(before), at / BASES[case.edits]
        if after == before:
            raise ValueError(f"{case.id}: the edit leaves its input as it was")
        if after == DIRECTORY:
            file.mkdir()
        elif after != MISSING:
            file.write_bytes(after)
    argv = [arg.replace("{file}", str(file)).replace("{dir}", str(at)) for arg in case.argv]
    return argv, case.stderr.replace("{dir}", re.escape(str(at)))


def fault(code: int, pattern: str, exit_code: int, out: str, err: str) -> str | None:
    """What is wrong with a run that exited `exit_code` and printed `out` and `err`, for a case that expects `code` and
    stderr matching `pattern`, or None. A refusal prints nothing on stdout and one line on stderr."""
    if exit_code != code:
        return f"exit {exit_code}, expected {code}; stderr {err!r}"
    if not re.match(pattern, err):
        return f"stderr {err!r} does not match {pattern!r}"
    if code and (out or err.count("\n") != 1 or not err.endswith("\n")):
        return f"a refusal prints no stdout and one stderr line: stdout {out!r}, stderr {err!r}"
    return None


if __name__ == "__main__":
    if sys.argv[1:2] == ["--check"]:
        code, expected, exit_code, out, err = sys.argv[2:]
        problem = fault(int(code), expected, int(exit_code), Path(out).read_text(), Path(err).read_text())
        sys.exit(problem and f"refused input: {problem}")
    root = Path(sys.argv[1])
    base = write_bases(root)
    for case in CASES:
        at = root / case.id
        at.mkdir()
        argv, pattern = write_case(case, base, at)
        print("\t".join([str(case.code), pattern, *argv]))
