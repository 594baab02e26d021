import random

import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from skyledger import geo


class TestDmsParsing:
    def test_round_trip(self):
        rng = random.Random(1)
        for _ in range(500):
            arcsec = rng.randrange(-180 * 3600, 180 * 3600 + 1)
            assert geo.parse_dms(geo.format_dms(arcsec)) == arcsec

    def test_known_value(self):
        assert geo.parse_dms("+001°02′03″") == 3723
        assert geo.parse_dms("-000°00′01″") == -1

    def test_ascii_minute_second_marks_accepted(self):
        assert geo.parse_dms("+010°30'15\"") == 10 * 3600 + 30 * 60 + 15

    @pytest.mark.parametrize(
        "text",
        [
            "010°00′00″",      # missing sign
            "+010 00 00",
            "+010°60′00″",     # minutes == 60
            "+010°00′60″",     # seconds == 60
            "+181°00′00″",     # degrees out of range
            "+010°0′0″",       # single digit fields
            "",
            "nonsense",
            "+٠١٠°٠٠′٠٠″",     # Arabic-Indic digits
            "+０１０°００′００″",  # fullwidth digits
            "+010°00′1٠″",     # one non-ASCII digit
        ],
    )
    def test_rejects_malformed(self, text):
        with pytest.raises(geo.DmsError):
            geo.parse_dms(text)

    def test_pair(self):
        lat, lon = geo.parse_dms_pair("+000°00′10″ +000°01′00″")
        assert (lat, lon) == (10, 60)
        with pytest.raises(geo.DmsError):
            geo.parse_dms_pair("+000°00′10″")
        with pytest.raises(geo.DmsError):
            # latitude bound is 90 degrees
            geo.parse_dms_pair("+091°00′00″ +000°00′00″")
        with pytest.raises(geo.DmsError):
            # one point has one text: ASCII digits only
            geo.parse_dms_pair("+٠٠٠°٠٠′١٠″ +000°00′10″")


class TestGrid:
    def test_cell_floor(self):
        grid = geo.GridConfig(cell_size_m=100, meters_per_arcsec=30)
        assert grid.cell_index(0) == 0
        assert grid.cell_index(3) == 0      # 90 m
        assert grid.cell_index(4) == 1      # 120 m
        assert grid.cell_index(-1) == -1    # floor, not truncation

    def test_cell_center_round_trips_to_same_cell(self):
        grid = geo.GridConfig()
        for idx in range(-5, 50):
            arcsec = grid.cell_center_arcsec(idx)
            assert grid.cell_index(arcsec) == idx

    def test_within_range_matches_float_distance(self):
        grid = geo.GridConfig()
        rng = random.Random(2)
        for _ in range(500):
            a = (rng.randrange(0, 500), rng.randrange(0, 500))
            b = (rng.randrange(0, 500), rng.randrange(0, 500))
            r = rng.randrange(0, 2000)
            assert geo.within_range(grid, a, b, r) == (oracles.float_distance_m(grid, a, b) <= r)


class TestInterpolation:
    def test_endpoints(self):
        assert geo.interpolate_arcsec(10, 60, 0, 150) == 10
        assert geo.interpolate_arcsec(10, 60, 150, 150) == 60
        assert geo.interpolate_arcsec(10, 60, 200, 150) == 60  # clamped

    def test_against_rational_oracle(self):
        rng = random.Random(3)
        grid = geo.GridConfig()
        for _ in range(300):
            src = (rng.randrange(0, 2000), rng.randrange(0, 2000))
            dst = (rng.randrange(0, 2000), rng.randrange(0, 2000))
            depart, duration = rng.randrange(0, 500), rng.randrange(1, 400)
            at = rng.randrange(depart - 50, depart + duration + 50)
            pos = geo.interpolate_position(src, dst, min(max(at - depart, 0), duration), duration)
            assert grid.cell_of(*pos) == oracles.interpolated_cell(
                src, dst, depart, depart + duration, at, grid.cell_size_m, grid.meters_per_arcsec
            )


def test_flight_duration_ceils():
    grid = geo.GridConfig()
    # 50 arcsec of longitude = 1500 m at 10 m/s
    assert geo.flight_duration_s(grid, (10, 10), (10, 60), 10) == 150
    # 1500 m at 7 m/s = 214.28.. -> 215
    assert geo.flight_duration_s(grid, (10, 10), (10, 60), 7) == 215
    assert geo.flight_duration_s(grid, (5, 5), (5, 5), 10) == 1
    with pytest.raises(ValueError):
        geo.flight_duration_s(grid, (0, 0), (1, 1), 0)


@st.composite
def _legs(draw):
    """(grid, src, dst, duration): diagonals, rows, columns, single-cell and zero-length legs of either sign,
    and legs that end on the first arcsecond of a cell."""
    grid = geo.GridConfig(draw(st.integers(1, 333)), draw(st.integers(1, 31)))
    coord = st.integers(-3000, 3000)
    src = (draw(coord), draw(coord))

    def first_arcsec(cell):
        return -(-cell * grid.cell_size_m // grid.meters_per_arcsec)

    def in_cell(a):  # an arcsecond in the cell of a
        cell = grid.cell_index(a)
        return draw(st.integers(first_arcsec(cell), first_arcsec(cell + 1) - 1))

    def on_boundary(a):  # the first arcsecond of a cell near a's
        return first_arcsec(grid.cell_index(a) + draw(st.integers(-20, 20)))

    dst = draw(st.sampled_from([
        lambda: (draw(coord), draw(coord)),
        lambda: (src[0], draw(coord)),
        lambda: (draw(coord), src[1]),
        lambda: (in_cell(src[0]), in_cell(src[1])),
        lambda: (on_boundary(src[0]), on_boundary(src[1])),
        lambda: src,
    ]))()
    return grid, src, dst, draw(st.integers(0, 400))


class TestRouteOccupancy:
    def test_windows_tile_the_flight(self):
        grid = geo.GridConfig()
        route = geo.route_occupancy(grid, (10, 10), (10, 60), depart_s=60, duration_s=150, alt_band=2)
        assert route[0].enter_s == 60
        assert route[-1].exit_s == 210
        for prev, nxt in zip(route, route[1:]):
            assert nxt.enter_s == prev.exit_s + 1

    def test_every_second_matches_interpolation(self):
        grid = geo.GridConfig()
        src, dst, depart, duration = (17, 23), (402, 311), 30, 222
        route = geo.route_occupancy(grid, src, dst, depart, duration, alt_band=1)
        by_second = oracles.expand_route(
            [
                {"latIdx": w.lat_idx, "lonIdx": w.lon_idx, "altBand": w.alt_band,
                 "enterS": w.enter_s, "exitS": w.exit_s}
                for w in route
            ]
        )
        for t in range(depart, depart + duration + 1):
            pos = geo.interpolate_position(src, dst, t - depart, duration)
            assert by_second[t][:2] == grid.cell_of(*pos)

    @settings(max_examples=300, deadline=None)
    @given(leg=_legs())
    @example(leg=(geo.GridConfig(), (10, 10), (10, 60), 0))         # D = 0: one window at dst's cell
    @example(leg=(geo.GridConfig(), (10, 10), (10, 60), 1))         # D = 1: src's cell, then dst's
    @example(leg=(geo.GridConfig(7, 3), (-40, 17), (-40, 17), 90))  # zero-length leg
    @example(leg=(geo.GridConfig(1, 30), (-7, 5), (3, -95), 10))    # 30 lat / 300 lon cells a second, many cells skipped
    def test_equals_per_second_sampling(self, leg):
        grid, src, dst, duration = leg
        route = geo.route_occupancy(grid, src, dst, 500, duration, alt_band=2)
        assert route == oracles.per_second_route_occupancy(grid, src, dst, 500, duration, 2)
        by_second = oracles.expand_route([
            {"latIdx": w.lat_idx, "lonIdx": w.lon_idx, "altBand": w.alt_band, "enterS": w.enter_s, "exitS": w.exit_s}
            for w in route
        ])
        assert sorted(by_second) == list(range(500, 501 + duration))
        if duration == 0:  # a leg of no duration is at its destination (the oracle puts it at its source)
            assert by_second == {500: (*grid.cell_of(*dst), 2)}
            return
        for t, cell in by_second.items():
            expected = oracles.interpolated_cell(
                src, dst, 500, 500 + duration, t, grid.cell_size_m, grid.meters_per_arcsec
            )
            assert cell[:2] == expected

    def test_cell_window_is_an_immutable_tuple(self):
        window = geo.CellWindow(3, 5, 1, 100, 120)
        lat_idx, lon_idx, alt_band, enter_s, exit_s = window
        assert (lat_idx, lon_idx, alt_band, enter_s, exit_s) == (3, 5, 1, 100, 120)
        assert window == geo.CellWindow(3, 5, 1, 100, 120)
        with pytest.raises(AttributeError):
            window.exit_s = 130
        with pytest.raises(AttributeError):
            window.note = "x"
        assert window == (3, 5, 1, 100, 120)

    def test_conflict_buffers(self):
        a = geo.CellWindow(3, 5, 1, 100, 120)
        assert geo.windows_conflict(a, geo.CellWindow(3, 5, 1, 130, 140), 1, 60)
        assert geo.windows_conflict(a, geo.CellWindow(4, 6, 1, 180, 200), 1, 60)
        assert not geo.windows_conflict(a, geo.CellWindow(3, 5, 1, 181, 200), 1, 60)
        assert not geo.windows_conflict(a, geo.CellWindow(5, 5, 1, 100, 120), 1, 60)
        assert not geo.windows_conflict(a, geo.CellWindow(3, 5, 2, 100, 120), 1, 60)  # other band
