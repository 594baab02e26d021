"""Command-line front end.

    skyledger run --scenario demo.scenario.json --out outdir [--seed N] [--quiet]
    skyledger verify <chain.jsonl>
    skyledger inspect <state.json> <query>

Exit codes: 0 success, 2 config/parse error, 3 runtime scenario
failure, 4 broken chain.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path
from typing import Any, Callable

from . import persistence
from .ledger import canonical_json
from .sim import ScenarioError, World

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3
EXIT_BROKEN_CHAIN = 4

# query -> (restored world, the text after its colon) -> result; None is no such account or tx
INSPECT_QUERIES: dict[str, Callable[[World, str], Any]] = {
    "accounts": lambda world, _: persistence.account_table(world.ledger),
    "account:<id>": lambda world, wanted: {a["id"]: a for a in persistence.account_table(world.ledger)}.get(wanted),
    "tx:<id>": lambda world, wanted: next((tx.to_dict() for block in world.ledger.blocks for tx in block.transactions
                                          if str(tx.tx_id) == wanted), None),
    "drones": lambda world, _: world.authority.export_registry(),
    "plans": lambda world, _: world.uss.export_active_plans(),
    "supply": lambda world, _: {"total": str(world.ledger.total_supply())},
    "reputation": lambda world, _: world.uss.export_reputation(),
}


class _Refused(Exception):
    """A command line that argparse refuses, as one line: the refusing (sub)command's prog, then argparse's message."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would print its usage as well; every refusal here is one stderr line
        raise _Refused(f"{self.prog}: {message}")


def main(argv: list[str] | None = None) -> int:
    parser = _Parser(prog="skyledger", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario and write its artifacts")
    p_run.add_argument("--scenario", required=True, help="path to *.scenario.json")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    p_run.add_argument("--quiet", action="store_true", help="suppress the summary table")

    p_verify = sub.add_parser("verify", help="check a chain log's hashes and links")
    p_verify.add_argument("chain", help="path to *.chain.jsonl")

    p_inspect = sub.add_parser("inspect", help="query a state snapshot")
    p_inspect.add_argument("state", help="path to *.state.json")
    p_inspect.add_argument("query", help="one of: " + ", ".join(INSPECT_QUERIES))

    try:
        args = parser.parse_args(argv)
    except _Refused as exc:
        return _fail(EXIT_CONFIG, str(exc))
    if args.command == "run":
        return _cmd_run(args.scenario, args.out, args.seed, args.quiet)
    if args.command == "verify":
        return _cmd_verify(args.chain)
    return _cmd_inspect(args.state, args.query)


def _fail(code: int, message: str) -> int:
    print(message, file=sys.stderr)
    return code


def _cmd_run(scenario_path: str, out_dir: str, seed: int | None, quiet: bool) -> int:
    try:
        scenario = persistence.load_scenario(scenario_path)
        if seed is not None:
            scenario = dataclasses.replace(scenario, seed=seed)  # the Scenario checks the bound again
    except OSError as exc:
        return _fail(EXIT_CONFIG, f"cannot read scenario {scenario_path}: {exc.strerror}")
    except json.JSONDecodeError as exc:
        return _fail(EXIT_CONFIG, f"parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}")
    except RecursionError as exc:  # json's decoder refuses deeper nesting than the interpreter's recursion limit
        return _fail(EXIT_CONFIG, f"parse error: {exc}")
    except UnicodeDecodeError as exc:
        return _fail(EXIT_CONFIG, f"scenario is not UTF-8 text: {exc}")
    except ScenarioError as exc:
        return _fail(EXIT_CONFIG, f"invalid scenario: {exc}")
    except ValueError as exc:  # after its subclasses above: json's decoder refuses an int past the digit limit
        return _fail(EXIT_CONFIG, f"parse error: {exc}")

    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        return _fail(EXIT_CONFIG, f"cannot create output directory {out_dir}: {exc.strerror}")
    staging = None
    try:
        world = World(scenario)
        world.run_to_end()
        metrics = world.metrics()
        name, blocks = scenario.name, world.ledger.blocks
        artifacts: dict[str, Callable[[Path], Any]] = {  # file name -> its writer, in writing order
            f"{name}.metrics.json": lambda path: persistence.write_metrics(path, metrics),
            f"{name}.chain.jsonl": lambda path: persistence.write_chain_jsonl(path, blocks),
            f"{name}.trace.csv": lambda path: persistence.write_trace_csv(path, world),
            f"{name}.events.jsonl": lambda path: persistence.write_events_jsonl(path, blocks),
            f"{name}.state.json": lambda path: path.write_bytes(persistence.snapshot_world(world)),
            "reputation_surface.csv": persistence.write_reputation_surface_csv,
            "congestion_fee.csv": lambda path: persistence.write_congestion_fee_csv(path, scenario),
        }
        staging = Path(tempfile.mkdtemp(prefix=".skyledger-run-", dir=out))  # all are written here before any is moved
        for file, write in artifacts.items():
            write(staging / file)
        for file in artifacts:
            os.replace(staging / file, out / file)
    except OSError as exc:  # from a writer or a rename (the run itself opens no file); named by its place in out
        return _fail(EXIT_CONFIG, f"cannot write {out / Path(exc.filename).name if staging and exc.filename else out}: "
                                  f"{exc.strerror}")
    except Exception as exc:  # noqa: BLE001 -- CLI boundary maps failures to exit 3
        return _fail(EXIT_RUNTIME, f"scenario failed: {exc}")
    finally:
        if staging is not None:
            shutil.rmtree(staging, ignore_errors=True)

    if not quiet:
        _print_summary(metrics)
    return EXIT_OK


def _print_summary(metrics) -> None:
    print(f"blocks {metrics.blocks}  txs {metrics.transactions}  chain head {metrics.chain_head[:16]}…")
    print(f"supply {metrics.genesis_supply} -> {metrics.final_supply}")
    if metrics.missions:
        print(f"{'drone':>6} {'operator':>14} {'payout':>8} {'r':>3} {'p':>3} {'R(micro)':>10} {'k(micro)':>10}")
        for m in metrics.missions:
            print(
                f"{m['droneId']:>6} {m['operator'][:12]:>14} {m['payout']:>8}"
                f" {m['rewards']:>3} {m['penalties']:>3} {m['reputationMicro']:>10} {m['kMicro']:>10}"
            )
    if metrics.revert_counts:
        print("reverts:", ", ".join(f"{k} x{v}" for k, v in sorted(metrics.revert_counts.items())))


def _cmd_verify(chain_path: str) -> int:
    try:
        ok, bad_index = persistence.verify_chain_file(chain_path)
    except OSError as exc:
        return _fail(EXIT_CONFIG, f"cannot read chain log {chain_path}: {exc.strerror}")
    except (persistence.CorruptPayload, persistence.SchemaMismatch) as exc:
        return _fail(EXIT_CONFIG, f"cannot parse chain log: {exc}")
    if not ok:
        return _fail(EXIT_BROKEN_CHAIN, f"chain broken at block {bad_index}")
    print("chain OK")
    return EXIT_OK


def _cmd_inspect(state_path: str, query: str) -> int:
    name, colon, wanted = query.partition(":")
    answer = INSPECT_QUERIES.get(name + (colon and ":<id>"))
    if answer is None:  # before the restore, so a mistyped query reads no file
        return _fail(EXIT_CONFIG, f"unknown query {query!r}; expected one of: " + ", ".join(INSPECT_QUERIES))
    try:
        world = persistence.restore_world(Path(state_path).read_bytes())
    except OSError as exc:
        return _fail(EXIT_CONFIG, f"cannot read state snapshot {state_path}: {exc.strerror}")
    except persistence.SchemaMismatch as exc:
        return _fail(EXIT_CONFIG, f"not a readable state snapshot: {exc}")
    except persistence.CorruptPayload as exc:
        return _fail(EXIT_CONFIG, f"malformed state snapshot: {exc}")
    result = answer(world, wanted)
    if result is None:
        return _fail(EXIT_CONFIG, f"no such {name}: {wanted}")
    print(canonical_json(result).decode())
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
