"""Aviation-authority contract: the drone registry.

The registry is shared with certified service suppliers, which read and
update the per-drone compliance counters through the internal API here.
Identifying strings (manufacturer serial, owner national id) are stored
as SHA-256 hashes at rest; exports never contain the plaintext.
"""

from __future__ import annotations

import hashlib
import weakref
from dataclasses import dataclass
from typing import Any

from .ledger import AccountId, ContractRevert, Ledger

REVERT_ALREADY_REGISTERED = "Drone already registered"
REVERT_TAC_NOT_SIGNED = "Please accept terms and conditions"
REASON_ACCESS_DENIED = "access-denied"
REASON_UNKNOWN_DRONE = "unknown-drone"

_REGISTRY_READER_ROLES = ("uss", "authority")


def _hashed(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass
class DroneRecord:
    drone_id: int
    serial_hash: str
    owner_national_id_hash: str
    owner_account: AccountId
    rewards: int = 0
    penalties: int = 0
    has_active_plan: bool = False
    sign_tac: bool = True

    def to_public_dict(self) -> dict[str, Any]:
        return {  # keys in sorted order, as every logged dict is built: get_drone logs it as its payload
            "droneId": self.drone_id,
            "hasActivePlan": self.has_active_plan,
            "ownerAccount": self.owner_account,
            "ownerNationalIdHash": self.owner_national_id_hash,
            "penalties": self.penalties,
            "rewards": self.rewards,
            "serialHash": self.serial_hash,
            "signTAC": self.sign_tac,
        }


class AuthorityContract:
    """Registration plus role-gated registry reads."""

    def __init__(self, ledger: Ledger):
        self.ledger = weakref.proxy(ledger)  # the ledger holds our ops; a strong reference back would be a cycle
        self.account = ledger.create_account("authority")
        self.records: dict[int, DroneRecord] = {}  # drone id -> record; an id is len(records) at its registration
        self.storage: dict[str, Any] = {"records": self.records, "serial_index": {}}  # serial hash -> drone id
        ledger.attach_storage("authority", self.storage)
        ledger.register_op("register_drone", self.op_register_drone,
                           args={"serial": str, "ownerNationalId": str, "signTAC": bool},
                           fold=lambda tx: self.op_register_drone(tx.caller, tx.args))
        ledger.register_op("get_drone", self.op_get_drone, args={"droneId": int})

    def op_register_drone(self, caller: AccountId, args: dict[str, Any]) -> dict[str, Any]:
        serial_hash = _hashed(args["serial"])
        if serial_hash in self.storage["serial_index"]:
            raise ContractRevert(REVERT_ALREADY_REGISTERED)
        if not args["signTAC"]:
            raise ContractRevert(REVERT_TAC_NOT_SIGNED)
        drone_id = len(self.records)
        self.ledger.touch(self.records, drone_id)
        self.ledger.touch(self.storage["serial_index"], serial_hash)
        self.records[drone_id] = DroneRecord(drone_id, serial_hash, _hashed(args["ownerNationalId"]), caller)
        self.storage["serial_index"][serial_hash] = drone_id
        return {"droneId": drone_id}

    def op_get_drone(self, caller: AccountId, args: dict[str, Any]) -> dict[str, Any]:
        if self.ledger.account(caller).role not in _REGISTRY_READER_ROLES:
            raise ContractRevert(REASON_ACCESS_DENIED)
        return self.record(args["droneId"]).to_public_dict()

    # -- shared-registry API for certified service suppliers ---------------

    def record(self, drone_id: int) -> DroneRecord:
        try:
            return self.records[drone_id]
        except KeyError:
            raise ContractRevert(REASON_UNKNOWN_DRONE) from None

    def _writable(self, drone_id: int) -> DroneRecord:
        rec = self.record(drone_id)
        self.ledger.touch(self.records, drone_id)
        return rec

    def set_active_plan(self, drone_id: int, flag: bool) -> None:
        self._writable(drone_id).has_active_plan = flag

    def add_reward(self, drone_id: int) -> None:
        self._writable(drone_id).rewards += 1

    def add_penalty(self, drone_id: int) -> None:
        self._writable(drone_id).penalties += 1

    def reset_counters(self, drone_id: int) -> None:
        rec = self._writable(drone_id)
        rec.rewards = 0
        rec.penalties = 0

    def export_registry(self) -> list[dict[str, Any]]:
        return [r.to_public_dict() for r in self.records.values()]  # in drone id order, the order of registration
