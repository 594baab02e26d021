import errno
import json
import re

import pytest

import oracles
from conftest import UNSEALED_SNAPSHOT_EDITS
from skyledger import persistence
from skyledger.cli import builtin_demo_scenario, main
from skyledger.ledger import canonical_json
from skyledger.sim import World


DEEP_JSON = b"[" * 100_000 + b"]" * 100_000  # deeper than json's decoder recurses


def run_cli(*argv):
    return main(list(argv))


def _with_deep_block_body(raw: bytes) -> bytes:
    """A chain log or snapshot whose block 1 keeps its prefix but has a deeply nested body."""
    lines = raw.split(b"\n")
    prefix, body_at, _ = lines[2].partition(b'"transactions":')
    lines[2] = prefix + body_at + DEEP_JSON + b"}"
    return b"\n".join(lines)


class TestRun:
    def test_writes_all_artifacts(self, tmp_path, demo_scenario_path, capsys):
        code = run_cli("run", "--scenario", str(demo_scenario_path), "--out", str(tmp_path))
        assert code == 0
        for suffix in ("metrics.json", "chain.jsonl", "trace.csv", "events.jsonl", "state.json"):
            assert (tmp_path / f"demo.{suffix}").exists(), suffix
        assert (tmp_path / "reputation_surface.csv").exists()
        assert (tmp_path / "congestion_fee.csv").exists()
        assert len(list(tmp_path.iterdir())) == 7  # the staging directory is gone
        out = capsys.readouterr().out
        assert "payout" in out and "chain head" in out

    def test_quiet_suppresses_summary(self, tmp_path, demo_scenario_path, capsys):
        code = run_cli("run", "--scenario", str(demo_scenario_path), "--out", str(tmp_path), "--quiet")
        assert code == 0
        assert capsys.readouterr().out == ""

    def test_rerun_is_byte_identical(self, tmp_path, demo_scenario_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run_cli("run", "--scenario", str(demo_scenario_path), "--out", str(a), "--quiet") == 0
        assert run_cli("run", "--scenario", str(demo_scenario_path), "--out", str(b), "--quiet") == 0
        assert (a / "demo.metrics.json").read_bytes() == (b / "demo.metrics.json").read_bytes()
        assert (a / "demo.chain.jsonl").read_bytes() == (b / "demo.chain.jsonl").read_bytes()

    def test_seed_override_changes_nothing_structural(self, tmp_path, demo_scenario_path):
        code = run_cli(
            "run", "--scenario", str(demo_scenario_path), "--out", str(tmp_path), "--seed", "123", "--quiet"
        )
        assert code == 0
        metrics = json.loads((tmp_path / "demo.metrics.json").read_bytes())
        assert metrics["kind"] == "metrics"

    def test_malformed_json_reports_line_and_column(self, tmp_path, capsys):
        bad = tmp_path / "bad.scenario.json"
        bad.write_text('{\n  "name": "x",,\n}')
        assert run_cli("run", "--scenario", str(bad), "--out", str(tmp_path)) == 2
        err = capsys.readouterr().err
        assert re.search(r"line \d+, column \d+", err)

    def test_schema_violation_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.scenario.json"
        bad.write_text(json.dumps({"schema": {"major": 1}, "kind": "scenario", "seed": -4}))
        assert run_cli("run", "--scenario", str(bad), "--out", str(tmp_path)) == 2
        assert "invalid scenario" in capsys.readouterr().err

    def test_missing_file_exits_2(self, tmp_path):
        assert run_cli("run", "--scenario", str(tmp_path / "nope.json"), "--out", str(tmp_path)) == 2

    @pytest.mark.parametrize("case", ["not-utf8", "directory", "negative-seed", "string-seed", "unknown-key"])
    def test_unreadable_input_exits_2_with_one_line(self, tmp_path, demo_scenario_path, capsys, case):
        scenario, extra = demo_scenario_path, []
        text = demo_scenario_path.read_text(encoding="utf-8")
        if case == "not-utf8":
            scenario = tmp_path / "latin1.scenario.json"
            scenario.write_bytes(text.encode("latin-1", "replace"))  # the DMS degree sign becomes byte 0xb0
        elif case == "directory":
            scenario = tmp_path
        elif case == "negative-seed":
            extra = ["--seed", "-1"]
        else:
            data = json.loads(text)
            if case == "string-seed":
                data["seed"] = "3"
            else:
                data["reporters"][0]["sensingRange"] = 150
            scenario = tmp_path / "edited.scenario.json"
            scenario.write_text(json.dumps(data), encoding="utf-8")
        assert run_cli("run", "--scenario", str(scenario), "--out", str(tmp_path / "out"), "--quiet", *extra) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1, err

    def test_deeply_nested_json_exits_2_with_one_line(self, tmp_path, capsys):
        deep = tmp_path / "deep.scenario.json"
        deep.write_bytes(DEEP_JSON)
        assert run_cli("run", "--scenario", str(deep), "--out", str(tmp_path / "out"), "--quiet") == 2
        err = capsys.readouterr().err
        assert err.startswith("parse error") and err.count("\n") == 1, err

    def test_negative_seed_override_names_its_bound(self, tmp_path, demo_scenario_path, capsys):
        assert run_cli("run", "--scenario", str(demo_scenario_path), "--out", str(tmp_path), "--seed", "-1") == 2
        assert capsys.readouterr().err == "invalid scenario: seed must be at least 0\n"

    @pytest.mark.parametrize("under", ["", "sub"], ids=["is-a-file", "under-a-file"])
    def test_output_path_through_a_file_exits_2_with_one_line(self, tmp_path, demo_scenario_path, capsys, under):
        taken = tmp_path / "taken"
        taken.write_text("not a directory")
        assert run_cli("run", "--scenario", str(demo_scenario_path), "--out", str(taken / under), "--quiet") == 2
        err = capsys.readouterr().err
        assert err.startswith("cannot create output directory") and err.count("\n") == 1, err
        assert taken.read_text() == "not a directory"

    @pytest.mark.parametrize(
        "taken",
        ["demo.metrics.json", "demo.chain.jsonl", "demo.trace.csv", "demo.events.jsonl", "demo.state.json",
         "reputation_surface.csv", "congestion_fee.csv"],
    )
    def test_unwritable_output_file_exits_2_naming_it(self, tmp_path, demo_scenario_path, capsys, taken):
        (tmp_path / taken).mkdir()  # a directory where the file goes
        assert run_cli("run", "--scenario", str(demo_scenario_path), "--out", str(tmp_path), "--quiet") == 2
        err = capsys.readouterr().err
        assert err.startswith(f"cannot write {tmp_path / taken}: ") and err.count("\n") == 1, err
        assert "scenario failed" not in err
        if taken == "demo.state.json":  # every file is written; the ones renamed into place before it stay there
            assert all((tmp_path / f"demo.{s}").is_file() for s in ("metrics.json", "chain.jsonl", "trace.csv"))
        assert not list(tmp_path.glob(".skyledger-run-*"))  # the staging directory is gone

    @pytest.mark.parametrize("failure", ["os-error", "other-error"])
    def test_a_writer_that_fails_adds_no_file_to_out(self, tmp_path, demo_scenario_path, capsys, monkeypatch, failure):
        """Each file is staged under --out and moved into place only once all are written."""
        (tmp_path / "kept.txt").write_text("from before")

        def failing(path, blocks):
            if failure == "os-error":
                raise OSError(errno.ENOSPC, "No space left on device", str(path))
            raise RuntimeError("boom")

        monkeypatch.setattr(persistence, "write_events_jsonl", failing)  # the fourth of seven writers
        code = run_cli("run", "--scenario", str(demo_scenario_path), "--out", str(tmp_path), "--quiet")
        err = capsys.readouterr().err
        if failure == "os-error":
            assert code == 2 and err == f"cannot write {tmp_path / 'demo.events.jsonl'}: No space left on device\n"
        else:
            assert code == 3 and err == "scenario failed: boom\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["kept.txt"]


class TestVerify:
    @pytest.fixture
    def chain_path(self, tmp_path, demo_scenario_path):
        run_cli("run", "--scenario", str(demo_scenario_path), "--out", str(tmp_path), "--quiet")
        return tmp_path / "demo.chain.jsonl"

    def test_untampered_chain_passes(self, chain_path, capsys):
        assert run_cli("verify", str(chain_path)) == 0
        assert "chain OK" in capsys.readouterr().out

    def test_flipped_hex_digit_detected_with_block_index(self, chain_path, capsys):
        lines = chain_path.read_bytes().split(b"\n")
        # block lines start at 1; tamper the third block's recorded hash
        target = 3
        block = json.loads(lines[target])
        digit = block["hash"][0]
        block["hash"] = ("0" if digit != "0" else "1") + block["hash"][1:]
        lines[target] = json.dumps(block, sort_keys=True, separators=(",", ":")).encode()
        chain_path.write_bytes(b"\n".join(lines))
        assert run_cli("verify", str(chain_path)) == 4
        assert f"block {target - 1}" in capsys.readouterr().err

    @pytest.mark.parametrize("edit", ["inserted-space", "reordered-prefix", "duplicate-key"])
    def test_line_out_of_the_sealed_layout_exits_2(self, chain_path, capsys, edit):
        """The hashed body is left as it is, so a reader that decodes the line and encodes it again verifies it."""
        lines = chain_path.read_bytes().split(b"\n")
        line = lines[1]
        if edit == "inserted-space":
            edited = b"{ " + line[1:]
        elif edit == "reordered-prefix":
            block = json.loads(line)
            keys = ("index", "hash", "prevHash", "transactions")
            edited = json.dumps({k: block[k] for k in keys}, separators=(",", ":")).encode()
        else:
            edited = line[: line.index(b",") + 1] + line[1:]
        body_at = b'"transactions":'
        assert edited != line and edited[edited.index(body_at):] == line[line.index(body_at):]
        lines[1] = edited
        chain_path.write_bytes(b"\n".join(lines))
        assert run_cli("verify", str(chain_path)) == 2
        err = capsys.readouterr().err
        assert "not in the sealed layout" in err and err.count("\n") == 1

    @pytest.mark.parametrize("blank", [b"", b" \t "], ids=["empty", "spaces-and-tab"])
    def test_blank_line_between_blocks_exits_2(self, chain_path, capsys, blank):
        lines = chain_path.read_bytes().split(b"\n")
        lines.insert(2, blank)
        chain_path.write_bytes(b"\n".join(lines))
        assert run_cli("verify", str(chain_path)) == 2
        err = capsys.readouterr().err
        assert "blank line 3" in err and err.count("\n") == 1

    def test_broken_link_then_bad_line_exits_2_and_alone_exits_4(self, chain_path, capsys):
        """verify reads every line even after the chain breaks, so a bad later line still refuses the file."""
        lines = chain_path.read_bytes().split(b"\n")
        hash_at = lines[2].index(b'"hash":"') + 8  # block 1's recorded hash
        lines[2] = lines[2][:hash_at] + (b"1" if lines[2][hash_at:hash_at + 1] == b"0" else b"0") + lines[2][hash_at + 1:]
        chain_path.write_bytes(b"\n".join(lines))
        assert run_cli("verify", str(chain_path)) == 4
        assert capsys.readouterr().err == "chain broken at block 1\n"
        lines[4] = lines[4][:-1]  # block 3's line loses its closing brace
        chain_path.write_bytes(b"\n".join(lines))
        assert run_cli("verify", str(chain_path)) == 2
        err = capsys.readouterr().err
        assert err.startswith("cannot parse chain log: bad block line") and err.count("\n") == 1, err

    @pytest.mark.parametrize("line", ["header", "block"])
    def test_deeply_nested_json_exits_2_with_one_line(self, chain_path, capsys, line):
        raw = chain_path.read_bytes()
        chain_path.write_bytes(DEEP_JSON + raw[raw.index(b"\n"):] if line == "header" else _with_deep_block_body(raw))
        assert run_cli("verify", str(chain_path)) == 2
        err = capsys.readouterr().err
        assert err.startswith("cannot parse chain log") and "recursion" in err and err.count("\n") == 1, err

    def test_empty_file_is_a_parse_error(self, tmp_path):
        empty = tmp_path / "empty.chain.jsonl"
        empty.write_bytes(b"")
        assert run_cli("verify", str(empty)) == 2

    def test_missing_file(self, tmp_path):
        assert run_cli("verify", str(tmp_path / "ghost.jsonl")) == 2

    @pytest.mark.parametrize(
        "body",
        [b'{"schema":[1],"kind":"chain"}\n', b'{"schema":{"major":1},"kind":"chain"}\n[1]\n',
         b'{"schema":{"major":1},"kind":"chain"}\n{"index":0,"prevHash":5,"hash":"00","transactions":[]}\n',
         b'\xb0{}\n', None],
        ids=["schema-list", "block-list", "hash-int", "not-utf8", "directory"],
    )
    def test_unreadable_log_exits_2_with_one_line(self, tmp_path, capsys, body):
        path = tmp_path
        if body is not None:
            path = tmp_path / "x.chain.jsonl"
            path.write_bytes(body)
        assert run_cli("verify", str(path)) == 2
        assert capsys.readouterr().err.count("\n") == 1


class TestInspect:
    @pytest.fixture
    def state_path(self, tmp_path, demo_scenario_path):
        run_cli("run", "--scenario", str(demo_scenario_path), "--out", str(tmp_path), "--quiet")
        return tmp_path / "demo.state.json"

    @pytest.mark.parametrize("query", ["accounts", "drones", "plans", "supply", "reputation"])
    def test_known_queries_emit_json(self, state_path, capsys, query):
        assert run_cli("inspect", str(state_path), query) == 0
        json.loads(capsys.readouterr().out)

    def test_supply_matches_funding(self, state_path, capsys):
        run_cli("inspect", str(state_path), "supply")
        supply = json.loads(capsys.readouterr().out)
        assert supply == {"total": "1400000"}  # treasury + 4 operators funded at genesis

    @pytest.mark.parametrize("forge", ["inflated-balance", "empty-chain"])
    def test_supply_refuses_a_forged_snapshot(self, state_path, capsys, forge):
        def edit(data):
            if forge == "inflated-balance":
                account = data["accounts"][0]
                account["balance"] = str(int(account["balance"]) + 10**9)
            else:
                data["chain"] = []

        state_path.write_bytes(oracles.forge_snapshot(state_path.read_bytes(), edit))
        assert run_cli("inspect", str(state_path), "supply") == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1

    @pytest.mark.parametrize("query", ["accounts", "account:x", "drones", "plans", "supply", "reputation"])
    def test_every_query_refuses_a_moved_balance(self, state_path, capsys, query):
        def move(data):
            for account, delta in zip(data["accounts"][:2], (-500, 500)):
                account["balance"] = str(int(account["balance"]) + delta)

        state_path.write_bytes(oracles.forge_snapshot(state_path.read_bytes(), move))
        assert run_cli("inspect", str(state_path), query) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1

    @pytest.mark.parametrize("edit", sorted(UNSEALED_SNAPSHOT_EDITS))
    def test_chain_edited_without_its_hashes_exits_2(self, state_path, capsys, edit):
        state_path.write_bytes(UNSEALED_SNAPSHOT_EDITS[edit](state_path.read_bytes()))
        assert run_cli("inspect", str(state_path), "supply") == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("malformed state snapshot")
        assert captured.err.count("\n") == 1

    def test_deeply_nested_block_body_exits_2_with_one_line(self, state_path, capsys):
        state_path.write_bytes(_with_deep_block_body(state_path.read_bytes()))
        assert run_cli("inspect", str(state_path), "supply") == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("malformed state snapshot: bad block line")
        assert "recursion" in captured.err and captured.err.count("\n") == 1

    def test_reporter_off_the_grid_exits_2(self, state_path, capsys):
        forged = oracles.forge_snapshot(state_path.read_bytes(), lambda d: d["reporters"][0].update(cell=[9999, 9999]))
        state_path.write_bytes(forged)
        assert run_cli("inspect", str(state_path), "supply") == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1 and "off the grid" in captured.err

    def test_version_1_snapshot_exits_2(self, state_path, capsys):
        forged = oracles.forge_snapshot(state_path.read_bytes(), lambda d: d.update(schema={"major": 1, "minor": 0}))
        state_path.write_bytes(forged)
        assert run_cli("inspect", str(state_path), "accounts") == 2
        err = capsys.readouterr().err
        assert "unsupported major version" in err and err.count("\n") == 1

    def test_version_2_snapshot_exits_2(self, state_path, capsys):
        forged = oracles.forge_snapshot(state_path.read_bytes(), lambda d: d.update(schema={"major": 2, "minor": 0}))
        state_path.write_bytes(forged)
        assert run_cli("inspect", str(state_path), "drones") == 2
        err = capsys.readouterr().err
        assert "unsupported major version" in err and err.count("\n") == 1

    def test_plans_are_the_public_plan_list(self, tmp_path, capsys):
        world = World(builtin_demo_scenario())
        while world.tick < 5:
            world.step()
        path = tmp_path / "mid.state.json"
        path.write_bytes(persistence.snapshot_world(world))
        assert run_cli("inspect", str(path), "plans") == 0
        plans = json.loads(capsys.readouterr().out)
        assert plans == json.loads(canonical_json(world.uss.export_active_plans()))
        assert [p["droneId"] for p in plans] == [0] and "nonce" not in json.dumps(plans)

    def test_single_account_lookup(self, state_path, capsys):
        run_cli("inspect", str(state_path), "accounts")
        accounts = json.loads(capsys.readouterr().out)
        wanted = accounts[0]["id"]
        assert run_cli("inspect", str(state_path), f"account:{wanted}") == 0
        assert json.loads(capsys.readouterr().out)["id"] == wanted

    def test_unknown_query_exits_2(self, state_path, capsys):
        assert run_cli("inspect", str(state_path), "vibes") == 2
        assert "unknown query" in capsys.readouterr().err

    def test_not_a_snapshot_exits_2(self, tmp_path):
        other = tmp_path / "x.json"
        other.write_text("{}")
        assert run_cli("inspect", str(other), "accounts") == 2

    @pytest.mark.parametrize("body", [b'{"schema":[1],"kind":"state"}', b"\xb0{}", None],
                             ids=["schema-list", "not-utf8", "directory"])
    def test_unreadable_snapshot_exits_2_with_one_line(self, tmp_path, capsys, body):
        path = tmp_path
        if body is not None:
            path = tmp_path / "x.state.json"
            path.write_bytes(body)
        assert run_cli("inspect", str(path), "supply") == 2
        assert capsys.readouterr().err.count("\n") == 1

    @pytest.mark.parametrize("query", ["accounts", "account:x", "drones", "plans", "supply", "reputation"])
    def test_header_without_body_exits_2(self, tmp_path, capsys, query):
        bare = tmp_path / "bare.state.json"
        bare.write_text('{"schema":{"major":4,"minor":0},"kind":"state"}')
        assert run_cli("inspect", str(bare), query) == 2
        err = capsys.readouterr().err
        assert err.startswith("malformed state snapshot") and err.count("\n") == 1


class TestDemo:
    @pytest.mark.parametrize("name", ["register", "subscribe", "quote", "plan", "report", "complete"])
    def test_each_step_prints_one_transaction(self, capsys, name):
        assert run_cli("demo", name) == 0
        out = capsys.readouterr().out
        assert out.count("transaction #") == 1
        assert "decoded input" in out and "decoded output" in out

    def test_register_demo_shows_new_drone_id(self, capsys):
        run_cli("demo", "register")
        out = capsys.readouterr().out
        assert '"droneId":0' in out

    def test_report_demo_shows_rewarded_flow(self, capsys):
        run_cli("demo", "report")
        out = capsys.readouterr().out
        assert '"verdict":"reward"' in out
        assert "DroneSighted" in out

    def test_full_demo_walks_all_six_calls(self, capsys):
        assert run_cli("demo", "full") == 0
        out = capsys.readouterr().out
        for op in ("register_drone", "subscribe", "request_quote", "request_plan",
                   "report_drone", "report_completion"):
            assert f"[{op}]" in out
        assert out.count("status          success") == 6

    def test_unknown_demo(self, capsys):
        assert run_cli("demo", "teleport") == 2
        assert "unknown demo" in capsys.readouterr().err
