"""``geo.distance_bounds_m`` and the threshold decisions it settles unmeasured.

Each caller that compares a distance with a threshold (the speed and GPS
rules, presence attestation, the travel-speed detector and dispersion) must
decide exactly as measuring with ``haversine_m`` does. The pairs under test
lie within 1e-9 relative of each threshold and just inside the bounds'
slack, at the poles, across the antimeridian, at the antipode, and include
identical points and ``dt <= 0``.
"""

import math
import random

import pytest

from checkinsim.analytics import dispersion, speed_feasibility
from checkinsim.anticheat import RuleConfig, UserRuleState
from checkinsim.geo import MILE_M, GeoPoint, distance_bounds_m, haversine_m, offset_point
from checkinsim.verify import RouterRegistration, attest_checkin
from oracles import measured_attest, measured_infeasible, measured_rules, scan_dispersion

FLOOR_M = 1.0  # the bounds' absolute slack
MILE_PACE = MILE_M / 300.0  # the default speed limit


def random_origin(rng):
    """A point anywhere, at a pole, near one, or beside the antimeridian."""
    kind = rng.randrange(5)
    if kind == 0:
        return GeoPoint(rng.choice([90.0, -90.0]), rng.uniform(-180.0, 180.0))
    if kind == 1:
        return GeoPoint(rng.choice([1, -1]) * rng.uniform(89.9, 90.0), rng.uniform(-180.0, 180.0))
    if kind == 2:
        return GeoPoint(rng.uniform(-60.0, 60.0), rng.choice([1, -1]) * rng.uniform(179.99, 180.0))
    return GeoPoint(rng.uniform(-90.0, 90.0), rng.uniform(-180.0, 180.0))


def near(rng, threshold_m):
    """A distance within 1e-9 relative of the threshold, or just across the
    bounds' floor from it, where a bound barely settles or barely fails to."""
    wobble = threshold_m * rng.uniform(-1e-9, 1e-9)
    return max(0.0, threshold_m + wobble + rng.choice([0.0, 0.0, -FLOOR_M, FLOOR_M,
                                                       -2 * FLOOR_M, -FLOOR_M * 1.000001]))


def point_near(rng, a, threshold_m):
    """A point about ``threshold_m`` from ``a``; a bearing along a meridian
    or a parallel makes a bound tight."""
    bearing = rng.choice([0.0, 90.0, 180.0, 270.0, rng.uniform(0.0, 360.0)])
    return offset_point(a, bearing, near(rng, threshold_m))


def pair_near(rng, threshold_m):
    a = random_origin(rng)
    return a, point_near(rng, a, threshold_m)


class TestDistanceBounds:
    def test_bounds_hold_on_random_and_extreme_pairs(self):
        rng = random.Random(11)
        pairs = []
        for _ in range(20_000):
            a = random_origin(rng)
            pairs.append((a, random_origin(rng)))
            pairs.append((a, offset_point(a, rng.uniform(0, 360), 10 ** rng.uniform(-3, 7.3))))
        for _ in range(20_000):  # near-antipodal, where haversine_m rounds most
            lat, lon = rng.uniform(-90, 90), rng.uniform(-180, 0)
            gap = 10 ** rng.uniform(-12, -2) * rng.choice([1, -1])
            pairs.append((GeoPoint(lat, lon), GeoPoint(-lat, lon + 180 + gap)))
            pairs.append((GeoPoint(0.0, lon), GeoPoint(0.0, lon + 180 - abs(gap))))
            pairs.append((GeoPoint(lat, lon), GeoPoint(max(-90.0, min(90.0, -lat + gap)),
                                                       lon + 180)))
        for a, b in pairs:
            low, high = distance_bounds_m(a, b)
            d = haversine_m(a, b)
            assert low <= d <= high, (a, b, low, d, high)

    def test_identical_points(self):
        for p in (GeoPoint(0.0, 0.0), GeoPoint(90.0, 12.0), GeoPoint(-33.9, 151.2)):
            low, high = distance_bounds_m(p, GeoPoint(*p))
            assert low < 0.0 == haversine_m(p, GeoPoint(*p)) < high <= 1.0 + 1e-9

    @pytest.mark.parametrize("a, b", [
        (GeoPoint(float("nan"), 0.0), GeoPoint(0.0, 0.0)),
        (GeoPoint(0.0, 0.0), GeoPoint(0.0, float("inf"))),
        (GeoPoint(float("inf"), 0.0), GeoPoint(float("inf"), 0.0)),
        (GeoPoint(90.5, 0.0), GeoPoint(89.5, 180.0)),  # outside [-90, 90]: no low bound holds
        (GeoPoint(0.0, 1e308), GeoPoint(0.0, -1e308)),
    ])
    def test_no_bounds_outside_the_domain(self, a, b):
        low, high = distance_bounds_m(a, b)
        assert math.isnan(low) and math.isnan(high)


class TestBoundedDecisionsMatchMeasured:
    def test_speed_and_gps_rules(self):
        rng = random.Random(12)
        fired = set()
        for i in range(6000):
            config = RuleConfig(max_speed_m_per_s=rng.choice([MILE_PACE, 0.5, 300.0]),
                                gps_radius_m=rng.choice([500.0, 20.0, 5e6]))
            dt = rng.choice([1, 7, 300, 86_400, rng.randrange(1, 10**6), 0, -5])
            limit_m = config.max_speed_m_per_s * (1.0 + 1e-9) * max(dt, 1)
            prev, venue = pair_near(rng, min(limit_m, 2e7))
            reported = point_near(rng, venue, config.gps_radius_m)
            case = rng.randrange(4)
            if case == 0:
                venue = prev  # identical: the shortcut for the venue's own point
            elif case == 1:
                venue = GeoPoint(*prev)  # identical but measured
            if rng.random() < 0.2:
                reported = venue
            state = UserRuleState()
            state.record_valid(1, prev, 1000)
            verdict = state.evaluate_next(2, venue, reported, 1000 + dt, config)
            got = {flag.value: value for flag, value in verdict.detail.items()}
            assert got == measured_rules((1000, prev), venue, reported, 1000 + dt, config), \
                (prev, venue, reported, dt)
            fired.update(got)
        assert fired == {"SuperHumanSpeed", "GpsMismatch"}

    def test_attestation(self):
        rng = random.Random(13)
        outcomes = set()
        for _ in range(6000):
            range_m = rng.choice([100.0, 5.0, 1.5, 0.5, 80_000.0])
            venue, device = pair_near(rng, range_m)
            if rng.random() < 0.1:
                device = GeoPoint(*venue)
            router = RouterRegistration(1, venue, range_m=range_m)
            passed = attest_checkin(1, device, {1: router})
            assert passed is measured_attest(router, device), (venue, device, range_m)
            outcomes.add(passed)
        assert outcomes == {True, False}

    def test_travel_speed_detector(self):
        rng = random.Random(14)
        outcomes = set()
        for _ in range(6000):
            v = rng.choice([250.0, 1.0, 0.01])
            dt = rng.choice([1, 60, rng.randrange(1, 10**5), 0, -3])
            a, b = pair_near(rng, min(v * max(dt, 1), 2e7))
            if rng.random() < 0.1:
                b = rng.choice([a, GeoPoint(*a)])
            trace = [(100, a), (100 + dt, b)]
            count = speed_feasibility(trace, v)
            assert count == measured_infeasible(trace, v), (a, b, dt, v)
            outcomes.add(count)
        assert outcomes == {0, 1}

    def test_dispersion(self):
        rng = random.Random(15)
        for _ in range(300):
            radius = rng.choice([50_000.0, 180.0, 2.0, 1e7])
            loc = random_origin(rng)
            trace = [(0, loc)]
            for t in range(1, rng.randrange(2, 30)):
                if rng.random() < 0.3:
                    loc = trace[rng.randrange(len(trace))][1]
                loc = point_near(rng, loc, radius)
                trace.append((rng.choice([t, t - 1]), loc))
            assert dispersion(trace, radius) == scan_dispersion(trace, radius), (trace, radius)
