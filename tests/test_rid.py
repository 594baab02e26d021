import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from skyledger.rid import (
    MalformedRid,
    RID_WIRE_LEN,
    RidFaa,
    RidMessage,
    compute_rid_vc,
    decode_rid,
    encode_rid,
    verify_rid_vc,
)

PLAN_FIELDS = dict(
    owner_account="0x" + "ab" * 20,
    source="+000°00′10″ +000°00′10″",
    destination="+000°00′10″ +000°01′00″",
    departure_date="01012025",
    departure_time="0001",
)


def random_message(rng: random.Random) -> RidMessage:
    return RidMessage(
        RidFaa(
            timestamp_s=rng.randrange(0, 2**64),
            drone_lat_arcsec=rng.randrange(-(2**31), 2**31),
            drone_lon_arcsec=rng.randrange(-(2**31), 2**31),
            cs_lat_arcsec=rng.randrange(-(2**31), 2**31),
            cs_lon_arcsec=rng.randrange(-(2**31), 2**31),
            altitude_cm=rng.randrange(0, 2**32),
            velocity_cm_s=rng.randrange(0, 2**32),
        ),
        rng.randbytes(32),
    )


class TestCodec:
    def test_round_trip_ten_thousand_random_messages(self):
        rng = random.Random(1234)
        for _ in range(10_000):
            msg = random_message(rng)
            wire = encode_rid(msg)
            assert len(wire) == RID_WIRE_LEN
            assert decode_rid(wire) == msg

    @given(st.integers(0, 2**64 - 1), st.integers(-(2**31), 2**31 - 1),
           st.integers(0, 2**32 - 1), st.binary(min_size=32, max_size=32))
    @settings(max_examples=200, derandomize=True)
    def test_round_trip_hypothesis(self, ts, arcsec, alt, vc):
        msg = RidMessage(RidFaa(ts, arcsec, -arcsec - 1, 0, arcsec, alt, alt // 2), vc)
        assert decode_rid(encode_rid(msg)) == msg

    @pytest.mark.parametrize("length", [0, 1, RID_WIRE_LEN - 1, RID_WIRE_LEN + 1, 2 * RID_WIRE_LEN])
    def test_decode_rejects_wrong_length(self, length):
        with pytest.raises(MalformedRid):
            decode_rid(b"\x00" * length)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("altitude_cm", -1),
            ("velocity_cm_s", -5),
            ("timestamp_s", -1),
            ("timestamp_s", 2**64),
            ("drone_lat_arcsec", 2**31),
            ("cs_lon_arcsec", -(2**31) - 1),
            ("altitude_cm", 1.5),
        ],
    )
    def test_encode_rejects_out_of_range(self, field, value):
        faa = RidFaa(0, 0, 0, 0, 0, 0, 0)._replace(**{field: value})
        with pytest.raises(ValueError):
            encode_rid(RidMessage(faa, b"\x00" * 32))

    def test_encode_rejects_short_vc(self):
        with pytest.raises(ValueError):
            encode_rid(RidMessage(RidFaa(0, 0, 0, 0, 0, 0, 0), b"\x01" * 31))

    @pytest.mark.parametrize("field", RidFaa._fields)
    def test_fields_cannot_be_assigned(self, field):
        msg = random_message(random.Random(7))
        with pytest.raises(AttributeError):
            setattr(msg.faa, field, 1)
        with pytest.raises(AttributeError):
            msg.rid_vc = b"\x00" * 32
        assert decode_rid(encode_rid(msg)) == msg

    def test_decode_round_trips_the_wire_bytes(self):
        rng = random.Random(5)
        for _ in range(1_000):
            wire = encode_rid(random_message(rng))
            msg = decode_rid(wire)
            assert isinstance(msg, RidMessage) and isinstance(msg.faa, RidFaa)
            assert encode_rid(msg) == wire

    def test_messages_are_equal_by_value(self):
        a, b = random_message(random.Random(3)), random_message(random.Random(3))
        assert a == b and hash(a) == hash(b) and a is not b
        assert a != a._replace(rid_vc=bytes(32))


class TestVerificationCode:
    def test_deterministic(self):
        nonce = bytes(range(16))
        assert compute_rid_vc(nonce, **PLAN_FIELDS) == compute_rid_vc(nonce, **PLAN_FIELDS)

    def test_single_bit_nonce_flip_changes_digest(self):
        rng = random.Random(99)
        for _ in range(200):
            nonce = rng.randbytes(16)
            bit = rng.randrange(128)
            flipped = bytearray(nonce)
            flipped[bit // 8] ^= 1 << (bit % 8)
            assert compute_rid_vc(nonce, **PLAN_FIELDS) != compute_rid_vc(bytes(flipped), **PLAN_FIELDS)

    def test_known_vector_against_plain_sha256(self):
        # canonical pre-image: nonce, then UTF-8 fields, 0x1f separated
        nonce = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
        fields = (
            PLAN_FIELDS["owner_account"],
            PLAN_FIELDS["source"],
            PLAN_FIELDS["destination"],
            PLAN_FIELDS["departure_date"],
            PLAN_FIELDS["departure_time"],
        )
        preimage = nonce + b"\x1f" + b"\x1f".join(f.encode("utf-8") for f in fields)
        assert compute_rid_vc(nonce, **PLAN_FIELDS) == hashlib.sha256(preimage).digest()

    def test_verify_accepts_genuine(self):
        nonce = b"\x07" * 16
        vc = compute_rid_vc(nonce, **PLAN_FIELDS)
        assert verify_rid_vc(bytes(vc), vc)  # equal by value: a decoded broadcast is another bytes object

    def test_verify_rejects_other_mission(self):
        vc_other = compute_rid_vc(b"\x01" * 16, **{**PLAN_FIELDS, "departure_time": "0900"})
        assert not verify_rid_vc(vc_other, compute_rid_vc(b"\x07" * 16, **PLAN_FIELDS))

    def test_verify_rejects_truncated(self):
        vc = compute_rid_vc(b"\x07" * 16, **PLAN_FIELDS)
        assert not verify_rid_vc(vc[:31], vc)
        assert not verify_rid_vc(b"", vc)
        assert len(vc) == 32  # a plan's code, the one every candidate is compared with, is a full SHA-256 digest

    def test_random_candidates_never_verify(self):
        genuine = compute_rid_vc(b"\x07" * 16, **PLAN_FIELDS)
        rng = random.Random(2024)
        for _ in range(100_000):
            candidate = rng.randbytes(32)
            if candidate == genuine:  # pragma: no cover - 2^-256 territory
                continue
            assert not verify_rid_vc(candidate, genuine)

    def test_flipped_byte_never_verifies(self):
        genuine = compute_rid_vc(b"\x07" * 16, **PLAN_FIELDS)
        for i in range(32):
            flipped = bytearray(genuine)
            flipped[i] ^= 0x01  # what a forger broadcasts, at every position
            assert not verify_rid_vc(bytes(flipped), genuine)
