"""The venue grid index against a full ``haversine_m`` scan.

``VenueGridIndex.within_radius`` scans only the cell rows that the query's
latitude band reaches and skips entries outside that band unmeasured. These
worlds put entries on the band's edge and within 1e-9 of it, at high
latitudes and around queries outside the venue region, and take some radii
as the exact distance to an entry, so a band without its margin or a hit
test that drops an entry at exactly the radius shows.
"""

import math
import random

import pytest

from checkinsim.geo import GeoPoint, METERS_PER_DEG, haversine_m
from checkinsim.spatial import VenueGridIndex
from oracles import scan_within_radius

RADII_M = (1.0, 10.0, 100.0, 1_000.0, 10_000.0, 50_000.0)
REGIONS = {"mid": (40.0, -100.0), "south": (-33.9, 151.2), "arctic": (78.0, 15.0),
           "antarctic": (-84.0, 40.0)}
EDGE_OFFSETS = (0.0, 1e-9, -1e-9, 1e-12, -1e-12)  # relative to the band's half-width


def seeded_world(seed, center):
    """Entries and (query, radius) pairs around ``center``, 0.5 degrees each way."""
    rng = random.Random(seed)
    lat0, lon0 = center

    def around(spread):
        return GeoPoint(lat0 + rng.uniform(-spread, spread), lon0 + rng.uniform(-spread, spread))

    points = [around(0.5) for _ in range(300)]
    queries = []
    for radius in RADII_M:
        queries += [(around(0.5), radius) for _ in range(3)]
        # outside the venue region, north or south of it
        queries.append((GeoPoint(lat0 + rng.choice((-1, 1)) * rng.uniform(0.55, 0.9),
                                 lon0 + rng.uniform(-1.0, 1.0)), radius))
    for q, radius in list(queries):
        half_band = radius / METERS_PER_DEG
        edge = []
        for sign in (1, -1):
            for rel in EDGE_OFFSETS:
                lon = q.lon + rng.choice((0.0, 0.0, rng.uniform(-1e-7, 1e-7)))
                edge.append(GeoPoint(q.lat + sign * half_band * (1.0 + rel), lon))
            edge.append(GeoPoint(q.lat + sign * (half_band + 1e-9), q.lon))
        points += edge
        # the radius that reaches an edge point or a random entry exactly
        for target in (rng.choice(edge), rng.choice(points)):
            queries.append((q, haversine_m(q, target)))
    entries = list(enumerate(points, 1))
    return entries, queries


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("region", REGIONS)
def test_within_radius_matches_a_full_scan(seed, region):
    entries, queries = seeded_world(seed, REGIONS[region])
    index = VenueGridIndex(entries)
    hits = 0
    for q, radius in queries:
        got = index.within_radius(q, radius)
        assert got == scan_within_radius(entries, q, radius), (q, radius)
        hits += len(got)
    assert hits > len(queries)


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("region", REGIONS)
def test_nearest_matches_a_full_scan(seed, region):
    entries, queries = seeded_world(seed, REGIONS[region])
    index = VenueGridIndex(entries)
    for q, _ in queries:
        ranked = scan_within_radius(entries, q, math.inf)
        assert index.nearest(q) == ranked[0]
        exclude = {venue_id for venue_id, _ in ranked[:3]}
        assert index.nearest(q, exclude=exclude) == ranked[3]


def polar_world(seed, sign):
    """400 entries at 88.6-89.9 degrees (north for sign 1, south for -1) and
    queries there: random ones at radii of 5-50 km, the pole itself, and one
    on the antimeridian whose hits lie on both sides of it."""
    rng = random.Random(seed)
    points = [GeoPoint(sign * rng.uniform(88.6, 89.9), rng.uniform(-180.0, 180.0))
              for _ in range(400)]
    points += [GeoPoint(sign * 89.5, 179.9), GeoPoint(sign * 89.5, -179.9),
               GeoPoint(sign * 90.0, 0.0)]
    queries = [(GeoPoint(sign * rng.uniform(88.6, 89.9), rng.uniform(-180.0, 180.0)),
                rng.uniform(5_000.0, 50_000.0)) for _ in range(50)]
    queries += [(GeoPoint(sign * 90.0, lon), radius)
                for lon in (0.0, 123.4) for radius in (5_000.0, 50_000.0)]
    queries.append((GeoPoint(sign * 89.5, 180.0), 2_000.0))
    return list(enumerate(points, 1)), queries


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("sign", [1, -1], ids=["north", "south"])
def test_near_pole_queries_match_a_full_scan(seed, sign):
    entries, queries = polar_world(seed, sign)
    index = VenueGridIndex(entries)
    for q, radius in queries:
        got = index.within_radius(q, radius)
        assert got == scan_within_radius(entries, q, radius), (q, radius)
        assert index.nearest(q) == scan_within_radius(entries, q, math.inf)[0]
    straddle = index.within_radius(*queries[-1])
    assert {entries[-3][0], entries[-2][0]} <= {venue_id for venue_id, _ in straddle}
    pole = index.within_radius(*queries[-2])
    assert len(pole) > 10 and len({round(entries[i - 1][1].lon) for i, _ in pole}) > 10
