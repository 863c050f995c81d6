import random

import pytest

from checkinsim.geo import (
    GeoPoint,
    LocalOffset,
    OutOfProjectionRange,
    fits_square,
    haversine_m,
    offset_point,
    project_local,
    unproject_local,
    validate_point,
)

from oracles import law_of_cosines_m


class TestHaversine:
    def test_identity_is_exactly_zero(self):
        assert haversine_m(GeoPoint(0, 0), GeoPoint(0, 0)) == 0.0
        assert haversine_m(GeoPoint(47.3, 8.5), GeoPoint(47.3, 8.5)) == 0.0

    def test_one_degree_of_longitude_at_equator(self):
        # pi * R / 180 by hand
        d = haversine_m(GeoPoint(0, 0), GeoPoint(0, 1))
        assert d == pytest.approx(111_194.9, abs=0.1)

    def test_agrees_with_law_of_cosines(self):
        a, b = GeoPoint(40.0, -100.0), GeoPoint(40.5, -100.5)
        assert haversine_m(a, b) == pytest.approx(law_of_cosines_m(a, b), abs=0.5)

    def test_symmetric_on_random_pairs(self):
        rng = random.Random(42)
        for _ in range(10_000):
            a = GeoPoint(rng.uniform(-89, 89), rng.uniform(-180, 180))
            b = GeoPoint(rng.uniform(-89, 89), rng.uniform(-180, 180))
            assert haversine_m(a, b) == haversine_m(b, a)
            assert haversine_m(a, b) >= 0.0


class TestProjectLocal:
    def test_origin_projects_to_zero(self):
        assert project_local(GeoPoint(12.5, 77.6), GeoPoint(12.5, 77.6)) == LocalOffset(0.0, 0.0)

    def test_small_north_step(self):
        off = project_local(GeoPoint(0, 0), GeoPoint(0.001, 0))
        assert off.north_m == pytest.approx(111.19, abs=0.01)
        assert off.east_m == pytest.approx(0.0, abs=1e-9)

    def test_east_step_shrinks_with_latitude(self):
        off = project_local(GeoPoint(60, 0), GeoPoint(60, 0.002))
        assert off.east_m == pytest.approx(111.23, abs=0.05)
        # cross-check against the great-circle distance
        assert off.east_m == pytest.approx(
            haversine_m(GeoPoint(60, 0), GeoPoint(60, 0.002)), abs=0.05
        )

    def test_out_of_range_raises(self):
        with pytest.raises(OutOfProjectionRange):
            project_local(GeoPoint(0, 0), GeoPoint(1.0, 0))  # ~111 km

    def test_round_trip_within_1cm_inside_10km(self):
        rng = random.Random(7)
        for _ in range(500):
            origin = GeoPoint(rng.uniform(-70, 70), rng.uniform(-179, 179))
            p = offset_point(origin, rng.uniform(0, 360), rng.uniform(0, 10_000))
            back = unproject_local(origin, project_local(origin, p))
            assert haversine_m(p, back) < 0.01


class TestFitsSquare:
    def test_single_point_always_fits(self):
        assert fits_square([GeoPoint(40, -100)], 180)

    def test_two_points_500m_apart_east_west(self):
        a = GeoPoint(40, -100)
        b = offset_point(a, 90, 500)
        assert not fits_square([a, b], 180)

    def test_four_points_in_100m_cluster(self):
        base = GeoPoint(40, -100)
        pts = [base, offset_point(base, 0, 100), offset_point(base, 90, 100),
               offset_point(base, 45, 70)]
        assert fits_square(pts, 180)

    def test_monotone_in_side(self):
        rng = random.Random(11)
        for _ in range(200):
            base = GeoPoint(rng.uniform(-60, 60), rng.uniform(-179, 179))
            pts = [offset_point(base, rng.uniform(0, 360), rng.uniform(0, 400))
                   for _ in range(rng.randint(1, 6))]
            sides = sorted(rng.uniform(10, 600) for _ in range(4))
            results = [fits_square(pts, s) for s in sides]
            # once true, stays true at every larger side
            assert results == sorted(results)

    def test_rejects_empty_and_oversized(self):
        with pytest.raises(ValueError):
            fits_square([], 180)
        with pytest.raises(ValueError):
            fits_square([GeoPoint(0, 0)] * 1001, 180)

    def test_far_apart_points_raise(self):
        with pytest.raises(OutOfProjectionRange):
            fits_square([GeoPoint(0, 0), GeoPoint(10, 10)], 180)


class TestOffsetPoint:
    def test_zero_distance_returns_origin(self):
        origin = GeoPoint(40, -100)
        assert offset_point(origin, 123.0, 0) == origin

    def test_north_one_degree(self):
        p = offset_point(GeoPoint(0, 0), 0, 111_194.9)
        assert p.lat == pytest.approx(1.0, abs=1e-5)
        assert p.lon == pytest.approx(0.0, abs=1e-5)

    def test_500_yards_west_round_trip(self):
        origin = GeoPoint(40, -100)
        p = offset_point(origin, 270, 457.2)
        assert haversine_m(origin, p) == pytest.approx(457.2, abs=0.5)
        assert p.lon < origin.lon

    def test_round_trip_error_under_1e3_relative(self):
        rng = random.Random(13)
        for _ in range(2_000):
            origin = GeoPoint(rng.uniform(-85, 85), rng.uniform(-180, 180))
            dist = rng.uniform(1, 50_000)
            p = offset_point(origin, rng.uniform(0, 360), dist)
            assert abs(haversine_m(origin, p) - dist) <= 1e-3 * dist

    def test_negative_distance_rejected(self):
        with pytest.raises(ValueError):
            offset_point(GeoPoint(0, 0), 0, -1)


class TestValidatePoint:
    def test_accepts_bounds(self):
        validate_point(GeoPoint(90, 180))
        validate_point(GeoPoint(-90, -180))

    def test_returns_a_point_of_floats(self):
        p = GeoPoint(40.5, -100.0)
        assert validate_point(p) is p
        for given in (GeoPoint(40, -100), (40.0, -100.0), [40, -100.0]):
            point = validate_point(given)
            assert type(point) is GeoPoint and point == (40.0, -100.0)
            assert type(point.lat) is float and type(point.lon) is float

    @pytest.mark.parametrize("lat,lon", [(True, 0.5), (0.5, False), (False, True)])
    def test_rejects_bools(self, lat, lon):
        with pytest.raises(ValueError, match="finite numbers"):
            validate_point(GeoPoint(lat, lon))

    @pytest.mark.parametrize("lat,lon", [(91, 0), (-91, 0), (0, 181), (0, -181),
                                         (float("nan"), 0), (0, float("inf"))])
    def test_rejects_out_of_range(self, lat, lon):
        with pytest.raises(ValueError):
            validate_point(GeoPoint(lat, lon))
