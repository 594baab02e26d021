import errno
import json
import shutil

import pytest

import refused_inputs
from skyledger import persistence
from skyledger.cli import main
from skyledger.ledger import canonical_json
from skyledger.sim import World


ROWS = {case.id: case for case in refused_inputs.CASES}


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture(scope="session")
def demo_bases(tmp_path_factory):
    """The files each row of the refused-inputs table edits, built once."""
    return refused_inputs.write_bases(tmp_path_factory.mktemp("refused-inputs"))


@pytest.mark.parametrize("case", refused_inputs.CASES, ids=lambda case: case.id)
def test_refused_inputs_table(demo_bases, tmp_path, capsys, case):
    """Each row of tests/refused_inputs.py exits with its code and one stderr line that matches its pattern, and
    prints no stdout; each control, its base as it is, exits 0 and prints no stderr."""
    argv, pattern = refused_inputs.write_case(case, demo_bases, tmp_path)
    code = main(argv)
    out, err = capsys.readouterr()
    assert refused_inputs.fault(case.code, pattern, code, out, err) is None


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

    @pytest.mark.parametrize("case", ["not-utf8", "directory", "negative-seed", "string-seed", "unknown-key"])
    def test_unreadable_input_exits_2_with_one_line(self, demo_bases, tmp_path, capsys, case):
        """A scenario refused before the run starts exits 2 with one stderr line and leaves no --out directory."""
        row = ROWS["run-negative-seed-option" if case == "negative-seed" else f"run-{case}"]
        argv, pattern = refused_inputs.write_case(row, demo_bases, tmp_path)
        code = run_cli(*argv)
        out, err = capsys.readouterr()
        assert refused_inputs.fault(2, pattern, code, out, err) is None
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("case", [case.id for case in refused_inputs.CASES if case.id.startswith("run-name-")])
    def test_a_name_that_is_not_a_plain_file_name_writes_no_file(self, demo_bases, tmp_path, capsys, case):
        """The name prefixes each output file; a refused one leaves --out's parent with the input alone, and no --out."""
        argv, pattern = refused_inputs.write_case(ROWS[case], demo_bases, tmp_path)
        code = run_cli(*argv)
        assert refused_inputs.fault(2, pattern, code, *capsys.readouterr()) is None
        assert [p.name for p in tmp_path.iterdir()] == ["demo.scenario.json"]

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
    def chain_path(self, demo_bases, tmp_path):
        """The demo run's chain log, copied: a test may edit it."""
        return shutil.copyfile(demo_bases / "demo.chain.jsonl", tmp_path / "demo.chain.jsonl")

    def test_untampered_chain_passes(self, chain_path, capsys):
        assert run_cli("verify", str(chain_path)) == 0
        assert "chain OK" in capsys.readouterr().out

    def test_broken_link_then_bad_line_exits_2_and_alone_exits_4(self, chain_path, capsys):
        """verify reads every line even after the chain breaks, so a bad later line still refuses the file."""
        lines = chain_path.read_bytes().split(b"\n")
        lines[2] = refused_inputs.flipped_hash(lines[2])  # block 1's recorded hash
        chain_path.write_bytes(b"\n".join(lines))
        assert run_cli("verify", str(chain_path)) == 4
        assert capsys.readouterr().err == "chain broken at block 1\n"
        lines[4] = lines[4][:-1]  # block 3's line loses its closing brace
        chain_path.write_bytes(b"\n".join(lines))
        assert run_cli("verify", str(chain_path)) == 2
        err = capsys.readouterr().err
        assert err.startswith("cannot parse chain log: bad block line") and err.count("\n") == 1, err


class TestInspect:
    @pytest.fixture
    def state_path(self, demo_bases):
        """The demo run's state file, which these tests only read."""
        return demo_bases / "demo.state.json"

    @pytest.mark.parametrize("query", ["accounts", "drones", "plans", "supply", "reputation"])
    def test_known_queries_emit_json(self, state_path, capsys, query):
        assert run_cli("inspect", str(state_path), query) == 0
        json.loads(capsys.readouterr().out)

    def test_supply_matches_funding(self, state_path, capsys):
        run_cli("inspect", str(state_path), "supply")
        supply = json.loads(capsys.readouterr().out)
        assert supply == {"total": "1400000"}  # treasury + 4 operators funded at genesis

    def test_plans_are_the_public_plan_list(self, demo_bases, demo_scenario_path, capsys):
        world = World(persistence.load_scenario(demo_scenario_path))
        while world.tick < 5:
            world.step()
        assert run_cli("inspect", str(demo_bases / "live.state.json"), "plans") == 0
        plans = json.loads(capsys.readouterr().out)
        assert plans == json.loads(canonical_json(world.uss.export_active_plans()))
        assert [p["droneId"] for p in plans] == [0, 1, 2, 3] and "nonce" not in json.dumps(plans)

    def test_single_account_lookup(self, state_path, capsys):
        run_cli("inspect", str(state_path), "accounts")
        accounts = json.loads(capsys.readouterr().out)
        wanted = accounts[0]["id"]
        assert run_cli("inspect", str(state_path), f"account:{wanted}") == 0
        assert json.loads(capsys.readouterr().out)["id"] == wanted


@pytest.fixture(scope="session")
def demo_records(demo_bases):
    """Each record of the demo run's chain log, with its bytes in the log, in tx order."""
    records, decoder = [], json.JSONDecoder()
    for block in (demo_bases / "demo.chain.jsonl").read_text().splitlines()[1:]:
        at = block.index('"transactions":[') + 15
        while block[at] != "]":  # at the "[" or the "," before a record
            record, end = decoder.raw_decode(block, at + 1)
            records.append((record, block[at + 1:end]))
            at = end
    return records


class TestDemo:
    """The demo scenario's run, one transaction at a time: `inspect <state> tx:<id>` prints record id's bytes."""

    STEPS = {"register": "register_drone", "subscribe": "subscribe", "quote": "request_quote",
             "plan": "request_plan", "report": "report_drone", "complete": "report_completion"}

    @staticmethod
    def show(demo_bases, capsys, record, state="demo.state.json"):
        assert run_cli("inspect", str(demo_bases / state), f"tx:{record['txId']}") == 0
        out, err = capsys.readouterr()
        assert err == "" and out.count("\n") == 1
        return out

    @pytest.mark.parametrize("name", ["register", "subscribe", "quote", "plan", "report", "complete"])
    def test_each_step_prints_one_transaction(self, demo_bases, demo_records, capsys, name):
        record, _ = next(pair for pair in demo_records if pair[0]["op"] == self.STEPS[name])
        shown = json.loads(self.show(demo_bases, capsys, record))
        assert shown == record and {"args", "payload", "events", "status"} <= shown.keys()  # decoded input and output

    def test_register_demo_shows_new_drone_id(self, demo_bases, demo_records, capsys):
        record = next(record for record, _ in demo_records if record["op"] == "register_drone")
        assert '"payload":{"droneId":0}' in self.show(demo_bases, capsys, record)

    def test_report_demo_shows_rewarded_flow(self, demo_bases, demo_records, capsys):
        out = "".join(self.show(demo_bases, capsys, record) for record, _ in demo_records
                      if record["op"] == "report_drone")
        assert out.count('"verdict":"reward"') == out.count('"verdict":"penalty"') == 2
        assert "DroneSighted" in out and '"reason":"Invalid report"' in out

    def test_full_demo_walks_all_six_calls(self, demo_bases, demo_records, capsys):
        """Every record of the demo run, and each of the tick-5 live snapshot's, prints as its bytes in the log."""
        assert [record["txId"] for record, _ in demo_records] == list(range(26))
        for state, shown in (("demo.state.json", demo_records), ("live.state.json", demo_records[:17])):
            for record, raw in shown:
                assert self.show(demo_bases, capsys, record, state) == raw + "\n"
        assert {record["op"] for record, _ in demo_records} == {"genesis", *self.STEPS.values()}
        assert all(record["status"] == "success" for record, _ in demo_records if record["op"] != "report_drone")
        assert [record["reason"] for record, _ in demo_records if record["status"] == "revert"] == ["Invalid report"]
        assert {event["name"] for record, _ in demo_records for event in record["events"]} == {
            "DroneSighted", "missionComplete"}
