"""Remote ID broadcast messages and the plan-commitment digest.

A broadcast concatenates the mandated kinematic fields with a 32-byte
verification code. The code is a SHA-256 commitment over the mission
plan fields and a nonce held only by the service supplier, which is
what lets a bystander's forwarded report be checked against the plan.

Wire layout (big-endian, 64 bytes total):

    u64  timestamp, seconds since scenario epoch
    i32  drone latitude, arcseconds
    i32  drone longitude, arcseconds
    i32  control-station latitude, arcseconds
    i32  control-station longitude, arcseconds
    u32  altitude, centimeters
    u32  velocity, cm/s
    32B  verification code
"""

from __future__ import annotations

import hashlib
import hmac
import struct
from typing import NamedTuple

_WIRE = struct.Struct(">QiiiiII32s")
RID_WIRE_LEN = _WIRE.size  # 64
_SEP = b"\x1f"
_I32_MIN, _I32_MAX = -(2**31), 2**31 - 1


class MalformedRid(ValueError):
    """Raised when bytes do not decode to a valid broadcast."""


class RidFaa(NamedTuple):
    """The mandated broadcast fields: when, where, how high, how fast (an immutable tuple, equal by value)."""

    timestamp_s: int
    drone_lat_arcsec: int
    drone_lon_arcsec: int
    cs_lat_arcsec: int
    cs_lon_arcsec: int
    altitude_cm: int
    velocity_cm_s: int


class RidMessage(NamedTuple):
    faa: RidFaa
    rid_vc: bytes


def compute_rid_vc(
    nonce: bytes,
    owner_account: str,
    source: str,
    destination: str,
    departure_date: str,
    departure_time: str,
) -> bytes:
    """SHA-256 over nonce and the plan fields.

    Fields are joined with 0x1F separators (plain concatenation would
    let adjacent fields bleed into each other), nonce first as raw
    bytes.
    """
    parts = [nonce] + [
        s.encode("utf-8")
        for s in (owner_account, source, destination, departure_date, departure_time)
    ]
    return hashlib.sha256(_SEP.join(parts)).digest()


def verify_rid_vc(
    candidate: bytes,
    nonce: bytes,
    owner_account: str,
    source: str,
    destination: str,
    departure_date: str,
    departure_time: str,
) -> bool:
    if len(candidate) != 32:
        return False
    expected = compute_rid_vc(nonce, owner_account, source, destination, departure_date, departure_time)
    return hmac.compare_digest(candidate, expected)


def encode_rid(msg: RidMessage) -> bytes:
    faa, vc = msg
    ts, dlat, dlon, clat, clon, alt, vel = faa
    if not 0 <= ts < 2**64:
        raise ValueError("timestamp out of range")
    for name, v in (("drone_lat_arcsec", dlat), ("drone_lon_arcsec", dlon), ("cs_lat_arcsec", clat), ("cs_lon_arcsec", clon)):
        if not _I32_MIN <= v <= _I32_MAX:
            raise ValueError(f"{name} out of range")
    if not 0 <= alt < 2**32:
        raise ValueError("altitude must be a non-negative u32")
    if not 0 <= vel < 2**32:
        raise ValueError("velocity must be a non-negative u32")
    if len(vc) != 32:
        raise ValueError("verification code must be 32 bytes")
    return _WIRE.pack(ts, dlat, dlon, clat, clon, alt, vel, vc)


def decode_rid(data: bytes) -> RidMessage:
    if len(data) != RID_WIRE_LEN:
        raise MalformedRid(f"expected {RID_WIRE_LEN} bytes, got {len(data)}")
    ts, dlat, dlon, clat, clon, alt, vel, vc = _WIRE.unpack(data)
    return RidMessage(RidFaa(ts, dlat, dlon, clat, clon, alt, vel), vc)
