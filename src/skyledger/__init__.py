"""Permissioned-ledger UAV traffic management with crowdsensed enforcement.

The package is organized around the contract state machine:

    ledger       caller-attributed transactions, revert semantics, hash chain
    authority    drone registry
    uss          subscriptions, quotes, plans, crowd reports, settlement
    rid          broadcast codec and the plan-commitment digest
    economics    dynamic fee, Beta reputation, cost-scaling update
    geo          flat-grid DMS coordinates, cells, route interpolation
    sim          deterministic agent-based scenario runner
    persistence  canonical snapshots, chain logs, CSV emitters
    cli          run / verify / inspect front end
"""

from .authority import AuthorityContract, DroneRecord
from .economics import FeeParams, ReputationState, congestion_surcharge, dynamic_fee, reputation, update_k
from .geo import GridConfig, parse_dms, parse_dms_pair
from .ledger import (
    Account,
    Block,
    ContractRevert,
    InsufficientBalance,
    Ledger,
    TransactionRecord,
    verify_blocks,
)
from .rid import MalformedRid, RidFaa, RidMessage, compute_rid_vc, decode_rid, encode_rid, verify_rid_vc
from .sim import DroneSpec, MissionSpec, ReporterSpec, RunMetrics, Scenario, ScenarioError, World, emit_metrics, run
from .uss import MissionPlan, UssContract

__all__ = [
    "Account",
    "AuthorityContract",
    "Block",
    "ContractRevert",
    "DroneRecord",
    "DroneSpec",
    "FeeParams",
    "GridConfig",
    "InsufficientBalance",
    "Ledger",
    "MalformedRid",
    "MissionPlan",
    "MissionSpec",
    "ReporterSpec",
    "ReputationState",
    "RidFaa",
    "RidMessage",
    "RunMetrics",
    "Scenario",
    "ScenarioError",
    "TransactionRecord",
    "UssContract",
    "World",
    "compute_rid_vc",
    "congestion_surcharge",
    "decode_rid",
    "dynamic_fee",
    "emit_metrics",
    "encode_rid",
    "parse_dms",
    "parse_dms_pair",
    "reputation",
    "run",
    "update_k",
    "verify_blocks",
    "verify_rid_vc",
]

__version__ = "0.1.0"
