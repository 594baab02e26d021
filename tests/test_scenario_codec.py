"""The scenario codec generated from the declaration, against the table-driven walker in oracles.py."""

import copy
import dataclasses
import json
import sys

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from conftest import REPO_ROOT, compliant_scenario, deviating_scenario
from skyledger import sim
from skyledger.economics import FeeParams
from skyledger.ledger import canonical_json
from skyledger.persistence import load_scenario
from skyledger.sim import DroneSpec, ReporterSpec, Scenario, ScenarioError

sys.path.insert(0, str(REPO_ROOT / "perfbench"))
import workloads  # noqa: E402 -- the benchmark's scenario generators, used read-only


def _demo_scenario():
    return load_scenario(REPO_ROOT / "scenarios" / "demo.scenario.json")


SCENARIOS = {
    "demo": _demo_scenario,
    "compliant": compliant_scenario,
    "deviating": deviating_scenario,
    "doas": lambda: workloads.doas_scenario(1, **workloads.DOAS_SIZES),
    "crowd": lambda: workloads.crowd_scenario(1, **workloads.CROWD_SIZES),
    "quote_poll": lambda: workloads.quote_poll_scenario(
        1, workloads.QUOTE_POLL_SIZES["plans"], workloads.QUOTE_POLL_SIZES["bystanders"]),
}

BOUNDED = [(cls, f) for cls in (Scenario, DroneSpec, ReporterSpec, FeeParams) for f in dataclasses.fields(cls)
           if f.metadata.get("min") is not None or f.metadata.get("max") is not None]

_json_values = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.integers(), st.floats(allow_nan=False), st.text(max_size=3),
    st.lists(st.integers(0, 3), max_size=3), st.dictionaries(st.sampled_from("ab"), st.integers(), max_size=1),
)


def _outcome(read, value):
    """What `read(value)` gives: its result, or the message of the ScenarioError it raises."""
    try:
        return read(value)
    except ScenarioError as exc:
        return "ScenarioError: " + str(exc)


def _json_paths(tree, prefix=()):
    items = tree.items() if isinstance(tree, dict) else enumerate(tree) if isinstance(tree, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from _json_paths(value, prefix + (key,))


@pytest.mark.parametrize("name", SCENARIOS)
def test_writer_gives_the_walked_bytes_in_the_walked_order(name):
    scenario = SCENARIOS[name]()
    written, walked = scenario.to_dict(), oracles.walked_scenario_to_dict(scenario)
    assert canonical_json(written) == canonical_json(walked)
    assert json.dumps(written) == json.dumps(walked)
    assert Scenario.from_dict(written) == scenario


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_any_single_edit_reads_as_the_walked_reader_reads_it(data):
    """Drop a key or an item, set a value or add a key anywhere: an equal Scenario, or the same ScenarioError."""
    tree = data.draw(st.sampled_from([compliant_scenario, deviating_scenario, _demo_scenario]))().to_dict()
    *parents, last = data.draw(st.sampled_from(list(_json_paths(tree))))
    node = tree
    for step in parents:
        node = node[step]
    edit = data.draw(st.sampled_from(["drop", "set", "add"]))
    if edit == "drop":
        del node[last]
    elif edit == "add" and isinstance(node[last], dict):
        node[last][data.draw(st.sampled_from(["sensingRange", "kind", "name"]))] = data.draw(_json_values)
    else:
        node[last] = data.draw(_json_values)
    assert _outcome(Scenario.from_dict, tree) == _outcome(oracles.walked_scenario_from_dict, tree)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_bound_check_refuses_as_the_walked_check_refuses(data):
    """A bounded field set at, past or short of either bound, or to None, on an object built past its own check."""
    cls, f = data.draw(st.sampled_from(BOUNDED))
    scenario = compliant_scenario()
    obj = copy.copy({Scenario: scenario, DroneSpec: scenario.drones[0], ReporterSpec: scenario.reporters[0],
                     FeeParams: scenario.fee_params}[cls])
    limits = [limit for limit in (f.metadata["min"], f.metadata["max"]) if limit is not None]
    object.__setattr__(obj, f.name, data.draw(st.one_of(st.none(), *(st.integers(x - 2, x + 2) for x in limits))))
    index = data.draw(st.integers(0, 12))
    at, key = {Scenario: ("", ""), DroneSpec: ("drones", index), ReporterSpec: ("reporters", index),
               FeeParams: ("", "economics")}[cls]
    assert _outcome(lambda o: sim._codec(cls).check(o, at, key), obj) == \
        _outcome(lambda o: oracles.walked_check_bounds(o, oracles._path(at, key)), obj)
