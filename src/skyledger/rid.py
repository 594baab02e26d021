"""Remote ID broadcast messages and the plan-commitment digest.

A broadcast concatenates the mandated kinematic fields with a 32-byte
verification code. The code is a SHA-256 commitment over the mission
plan fields and a nonce held only by the service supplier, which is
what lets a bystander's forwarded report be checked against the plan.
The supplier hashes it once, when it accepts the plan; a report then
compares the broadcast's code with the plan's stored code, in constant
time (verify_rid_vc).

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


def verify_rid_vc(candidate: bytes, expected: bytes) -> bool:
    """Whether a broadcast's code is the plan's code (compute_rid_vc of its nonce and fields), in constant time."""
    return hmac.compare_digest(candidate, expected)  # False when the lengths differ


def encode_rid(msg: RidMessage) -> bytes:
    faa, vc = msg
    if len(vc) != 32:  # "32s" would pad a short code and cut a long one
        raise ValueError("verification code must be 32 bytes")
    try:
        return _WIRE.pack(*faa, vc)
    except struct.error as e:  # a field out of its range, or not an int
        raise ValueError(f"RID field: {e}") from None


def decode_rid(data: bytes) -> RidMessage:
    if len(data) != RID_WIRE_LEN:
        raise MalformedRid(f"expected {RID_WIRE_LEN} bytes, got {len(data)}")
    ts, dlat, dlon, clat, clon, alt, vel, vc = _WIRE.unpack(data)
    return RidMessage(RidFaa(ts, dlat, dlon, clat, clon, alt, vel), vc)
