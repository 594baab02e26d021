"""Flat-grid geometry: DMS coordinates, grid cells, route interpolation.

Coordinates are integer arcseconds on a flat grid; a configurable
meters-per-arcsecond constant maps them to meters and cells. No real
geodesy, by design: everything stays exact integer arithmetic so that
runs replay bit-identically.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

from .fixedmath import div_round_half_up

DEGREE, MINUTE_MARK, SECOND_MARK = "°", "′", "″"

# +DDD°MM′SS″ with mandatory sign and ASCII digits; ASCII ' and " accepted as fallbacks.
_DMS_RE = re.compile(r"^([+-])(\d{1,3})°(\d{2})[′'](\d{2})[″\"]$", re.ASCII)


class DmsError(ValueError):
    """Raised for text that is not a well-formed DMS coordinate."""


def parse_dms(text: str, max_degrees: int = 180) -> int:
    """Parse a signed DMS coordinate into integer arcseconds."""
    m = _DMS_RE.match(text.strip())
    if m is None:
        raise DmsError(f"not a DMS coordinate: {text!r}")
    sign, deg, minute, sec = m.group(1), int(m.group(2)), int(m.group(3)), int(m.group(4))
    if minute >= 60 or sec >= 60:
        raise DmsError(f"minutes/seconds out of range: {text!r}")
    if deg > max_degrees or (deg == max_degrees and (minute or sec)):
        raise DmsError(f"degrees out of range: {text!r}")
    arcsec = deg * 3600 + minute * 60 + sec
    return -arcsec if sign == "-" else arcsec


def format_dms(arcsec: int) -> str:
    sign = "-" if arcsec < 0 else "+"
    a = abs(arcsec)
    deg, rem = divmod(a, 3600)
    minute, sec = divmod(rem, 60)
    return f"{sign}{deg:03d}{DEGREE}{minute:02d}{MINUTE_MARK}{sec:02d}{SECOND_MARK}"


def parse_dms_pair(text: str) -> tuple[int, int]:
    """Parse "lat lon" (space separated) into (lat, lon) arcseconds."""
    parts = text.split()
    if len(parts) != 2:
        raise DmsError(f"expected 'lat lon': {text!r}")
    return parse_dms(parts[0], max_degrees=90), parse_dms(parts[1], max_degrees=180)


def format_dms_pair(lat_arcsec: int, lon_arcsec: int) -> str:
    return f"{format_dms(lat_arcsec)} {format_dms(lon_arcsec)}"


@dataclass(frozen=True)
class GridConfig:
    """Cell pitch and the flat arcsecond-to-meter scale."""

    cell_size_m: int = 100
    meters_per_arcsec: int = 30

    def cell_index(self, arcsec: int) -> int:
        return (arcsec * self.meters_per_arcsec) // self.cell_size_m

    def cell_of(self, lat_arcsec: int, lon_arcsec: int) -> tuple[int, int]:
        return self.cell_index(lat_arcsec), self.cell_index(lon_arcsec)

    def cell_center_arcsec(self, cell_index: int) -> int:
        return div_round_half_up(cell_index * self.cell_size_m + self.cell_size_m // 2, self.meters_per_arcsec)

    def meters(self, arcsec: int) -> int:
        return arcsec * self.meters_per_arcsec


def within_range(grid: GridConfig, a: tuple[int, int], b: tuple[int, int], range_m: int) -> bool:
    # squared-integer compare, no floats
    dy = grid.meters(a[0] - b[0])
    dx = grid.meters(a[1] - b[1])
    return dy * dy + dx * dx <= range_m * range_m


def interpolate_arcsec(src: int, dst: int, elapsed_s: int, duration_s: int) -> int:
    """Position along src->dst after elapsed_s of duration_s, rounded."""
    if duration_s <= 0:
        return dst
    if elapsed_s <= 0:
        return src
    if elapsed_s >= duration_s:
        return dst
    numer = src * (duration_s - elapsed_s) + dst * elapsed_s
    return div_round_half_up(numer, duration_s)


def interpolate_position(
    src: tuple[int, int], dst: tuple[int, int], elapsed_s: int, duration_s: int
) -> tuple[int, int]:
    return (
        interpolate_arcsec(src[0], dst[0], elapsed_s, duration_s),
        interpolate_arcsec(src[1], dst[1], elapsed_s, duration_s),
    )


def flight_duration_s(grid: GridConfig, src: tuple[int, int], dst: tuple[int, int], speed_mps: int) -> int:
    """Whole-second flight time at the given cruise speed, at least 1 s."""
    if speed_mps <= 0:
        raise ValueError("speed must be positive")
    dy = grid.meters(src[0] - dst[0])
    dx = grid.meters(src[1] - dst[1])
    dist = math.isqrt(dy * dy + dx * dx)
    if dist * dist < dy * dy + dx * dx:
        dist += 1  # ceil of the exact distance
    return max(1, -(-dist // speed_mps))


class CellWindow(NamedTuple):
    """One grid cell and the second-granularity interval spent in it (an immutable tuple, equal by value)."""

    lat_idx: int
    lon_idx: int
    alt_band: int
    enter_s: int
    exit_s: int


def _cell_changes(grid: GridConfig, src: int, dst: int, duration_s: int) -> list[int]:
    """Seconds of flight at which one axis, at (2*src*D + 2*delta*u + D) // (2*D) after u s, enters a new cell."""
    delta, d2, base = dst - src, 2 * duration_s, 2 * src * duration_s + duration_s
    first, last, cs, mpa = grid.cell_index(src), grid.cell_index(dst), grid.cell_size_m, grid.meters_per_arcsec
    if delta > 0:  # cell k starts at arcsecond ceil(k*cs/mpa)
        return [-((base - d2 * -(-k * cs // mpa)) // (2 * delta)) for k in range(first + 1, last + 1)]
    return [(d2 * -(-(k + 1) * cs // mpa) - base) // (2 * delta) + 1 for k in range(first - 1, last - 1, -1)]


def route_occupancy(
    grid: GridConfig,
    src: tuple[int, int],
    dst: tuple[int, int],
    depart_s: int,
    duration_s: int,
    alt_band: int,
) -> list[CellWindow]:
    """Cells crossed by the straight src->dst flight, with time windows.

    A window starts at each second where either axis enters a new cell,
    and its cell is that of the half-up interpolated position there (a
    leg of no duration sits at dst), so the windows are exactly those of
    sampling each second of flight with interpolate_position.
    """
    changes = sorted({*_cell_changes(grid, src[0], dst[0], duration_s),
                      *_cell_changes(grid, src[1], dst[1], duration_s)}) if duration_s > 0 else []
    d, (lat, lon) = (duration_s, src) if duration_s > 0 else (1, dst)
    mpa, cs, d2 = grid.meters_per_arcsec, grid.cell_size_m, 2 * d
    # the position u s after departure is (base + step * u) // d2, rounded half up as in interpolate_arcsec
    lat_base, lat_step, lon_base, lon_step = 2 * lat * d + d, 2 * (dst[0] - lat), 2 * lon * d + d, 2 * (dst[1] - lon)
    windows = [((lat_base + lat_step * start) // d2 * mpa // cs, (lon_base + lon_step * start) // d2 * mpa // cs, alt_band,
                depart_s + start, depart_s + end) for start, end in zip([0, *changes], [*(u - 1 for u in changes), duration_s])]
    return list(map(partial(tuple.__new__, CellWindow), windows))  # retyped in C: no Python-level __new__ per window


def windows_conflict(
    a: CellWindow, b: CellWindow, cell_buffer: int, time_buffer_s: int
) -> bool:
    if a.alt_band != b.alt_band:
        return False
    if abs(a.lat_idx - b.lat_idx) > cell_buffer or abs(a.lon_idx - b.lon_idx) > cell_buffer:
        return False
    return a.enter_s <= b.exit_s + time_buffer_s and b.enter_s <= a.exit_s + time_buffer_s
