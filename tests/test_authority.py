import hashlib
import random

from conftest import register


class TestRegistration:
    def test_first_drone_gets_id_zero(self, bench):
        assert register(bench) == 0

    def test_ids_are_dense_indices(self, bench):
        ids = [register(bench, serial=f"SN-{i}") for i in range(8)]
        assert ids == list(range(8))

    def test_duplicate_serial_reverts_verbatim(self, bench):
        register(bench, serial="SN-X")
        rec = bench.ledger.submit(
            bench.second_operator,
            "register_drone",
            {"serial": "SN-X", "ownerNationalId": "NID-2", "signTAC": True},
        )
        assert (rec.status, rec.reason) == ("revert", "Drone already registered")

    def test_unsigned_terms_revert_verbatim(self, bench):
        rec = bench.ledger.submit(
            bench.operator,
            "register_drone",
            {"serial": "SN-Y", "ownerNationalId": "NID-1", "signTAC": False},
        )
        assert (rec.status, rec.reason) == ("revert", "Please accept terms and conditions")
        assert bench.authority.records == {}

    def test_fresh_record_is_clean(self, bench):
        drone_id = register(bench)
        record = bench.authority.record(drone_id)
        assert record.rewards == 0
        assert record.penalties == 0
        assert record.has_active_plan is False
        assert record.owner_account == bench.operator

    def test_one_operator_many_drones(self, bench):
        for i in range(3):
            register(bench, serial=f"SN-multi-{i}")
        owners = {r.owner_account for r in bench.authority.records.values()}
        assert owners == {bench.operator}

    def test_interleaved_duplicates_leave_one_record_per_serial(self, bench):
        rng = random.Random(3)
        serials = [f"SN-{i}" for i in range(6)]
        for _ in range(60):
            serial = rng.choice(serials)
            caller = rng.choice([bench.operator, bench.second_operator])
            bench.ledger.submit(
                caller,
                "register_drone",
                {"serial": serial, "ownerNationalId": "NID", "signTAC": True},
            )
        seen = [r.serial_hash for r in bench.authority.records.values()]
        assert len(seen) == len(set(seen)) == len(serials)
        assert list(bench.authority.records) == list(range(len(serials)))  # dense ids: a reverted registration takes none


class TestRegistryReads:
    def test_uss_role_reads_full_record(self, bench):
        drone_id = register(bench, serial="SN-read")
        rec = bench.ledger.submit(bench.uss_reader, "get_drone", {"droneId": drone_id})
        assert rec.status == "success"
        assert rec.payload["droneId"] == drone_id
        assert rec.payload["ownerAccount"] == bench.operator
        assert (rec.state_writes, rec.balance_deltas) == (0, {})

    def test_reads_never_leak_plaintext_identifiers(self, bench):
        drone_id = register(bench, serial="SN-secret")
        rec = bench.ledger.submit(bench.uss_reader, "get_drone", {"droneId": drone_id})
        payload = str(rec.payload)
        assert "SN-secret" not in payload
        assert rec.payload["serialHash"] == hashlib.sha256(b"SN-secret").hexdigest()

    def test_reporter_role_denied(self, bench):
        drone_id = register(bench)
        rec = bench.ledger.submit(bench.reporter, "get_drone", {"droneId": drone_id})
        assert (rec.status, rec.reason) == ("revert", "access-denied")

    def test_operator_role_denied(self, bench):
        drone_id = register(bench)
        rec = bench.ledger.submit(bench.operator, "get_drone", {"droneId": drone_id})
        assert (rec.status, rec.reason) == ("revert", "access-denied")

    def test_out_of_range_id(self, bench):
        register(bench)
        rec = bench.ledger.submit(bench.uss_reader, "get_drone", {"droneId": 99})
        assert (rec.status, rec.reason) == ("revert", "unknown-drone")

    def test_export_redacts_serials(self, bench):
        register(bench, serial="SN-export")
        dump = str(bench.authority.export_registry())
        assert "SN-export" not in dump

    def test_registration_is_free(self, bench):
        before = bench.ledger.balance(bench.operator)
        register(bench)
        assert bench.ledger.balance(bench.operator) == before
