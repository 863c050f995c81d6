"""The venue index against a full ``haversine_m`` scan.

``VenueGridIndex.within_radius`` bisects its latitude-sorted entries for the
query's latitude band and measures only those whose wrapped longitude gap is
within the reach of ``geo.reach_deg``; with a hit limit k it must return the
scan's first k hits (``KS``, and every hit). ``nearest`` walks outward in
latitude and stops on ``distance_bounds_m``'s low bound. These worlds put entries on
the band's edge and within 1e-9 of it, at the longitude reach and 1e-9
either side of it, on both sides of the antimeridian, near the poles and
near a query's antipode, where ``haversine_m`` rounds most and gives equal
distances that only the id orders. They take radii down to 1 cm and the
exact distance to an entry, pairs a millimeter apart across the
antimeridian among them, so a bound without its slack or floor, a gap that
is not wrapped, or a hit test that drops an entry at exactly the radius
shows.
"""

import math
import random

import pytest

from checkinsim.attacker import BBox
from checkinsim.geo import GeoPoint, METERS_PER_DEG, haversine_m, reach_deg
from checkinsim.harness import PopulationConfig, generate_population
from checkinsim.spatial import VenueGridIndex
from oracles import scan_within_radius

RADII_M = (1.0, 10.0, 100.0, 1_000.0, 10_000.0, 50_000.0)
REGIONS = {"mid": (40.0, -100.0), "south": (-33.9, 151.2), "arctic": (78.0, 15.0),
           "antarctic": (-84.0, 40.0)}
EDGE_OFFSETS = (0.0, 1e-9, -1e-9, 1e-12, -1e-12)  # relative to the band's half-width
KS = (1, 2, 3, 12)  # hit limits, besides one that keeps every hit


def within_radius_matches_scan(index, entries, q, radius):
    """``within_radius`` with each limit of ``KS``, and with ``len(entries)``,
    against the scan's first k hits; returns the scan's hits."""
    expected = scan_within_radius(entries, q, radius)
    for k in KS + (len(entries),):
        assert index.within_radius(q, radius, k) == expected[:k], (q, radius, k)
    return expected


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
        hits += len(within_radius_matches_scan(index, entries, q, radius))
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
    on the antimeridian whose hits lie on both sides of it or across the
    pole."""
    rng = random.Random(seed)
    points = [GeoPoint(sign * rng.uniform(88.6, 89.9), rng.uniform(-180.0, 180.0))
              for _ in range(400)]
    points += [GeoPoint(sign * 89.8, 0.0), GeoPoint(sign * 89.5, 179.9),
               GeoPoint(sign * 89.5, -179.9), GeoPoint(sign * 90.0, 0.0)]
    queries = [(GeoPoint(sign * rng.uniform(88.6, 89.9), rng.uniform(-180.0, 180.0)),
                rng.uniform(5_000.0, 50_000.0)) for _ in range(50)]
    queries += [(GeoPoint(sign * 90.0, lon), radius)
                for lon in (0.0, 123.4) for radius in (5_000.0, 50_000.0)]
    # across the pole to an entry at a longitude gap of exactly 180 degrees
    queries.append((GeoPoint(sign * 89.5, 180.0), 100_000.0))
    queries.append((GeoPoint(sign * 89.5, 180.0), 2_000.0))
    return list(enumerate(points, 1)), queries


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("sign", [1, -1], ids=["north", "south"])
def test_near_pole_queries_match_a_full_scan(seed, sign):
    entries, queries = polar_world(seed, sign)
    index = VenueGridIndex(entries)
    for q, radius in queries:
        within_radius_matches_scan(index, entries, q, radius)
        assert index.nearest(q) == scan_within_radius(entries, q, math.inf)[0]
    straddle = index.within_radius(*queries[-1], len(entries))
    assert {entries[-3][0], entries[-2][0]} <= {venue_id for venue_id, _ in straddle}
    near_pole = index.within_radius(*queries[-2], len(entries))
    assert entries[-4][0] in {venue_id for venue_id, _ in near_pole}
    pole = index.within_radius(*queries[-3], len(entries))
    assert len(pole) > 10 and len({round(entries[i - 1][1].lon) for i, _ in pole}) > 10


def assert_matches_scan(entries, queries):
    """within_radius with each hit limit, nearest and nearest past the three
    closest entries all equal the full scan's answers."""
    index = VenueGridIndex(entries)
    hits = 0
    for q, radius in queries:
        hits += len(within_radius_matches_scan(index, entries, q, radius))
        ranked = scan_within_radius(entries, q, math.inf)
        assert index.nearest(q) == ranked[0], q
        assert index.nearest(q, exclude={venue_id for venue_id, _ in ranked[:3]}) == ranked[3], q
    assert hits > len(queries)


REACH_LATS = (0.0, 40.0, -34.0, 78.0, -84.0)


def reach_world(seed, lat):
    """Queries at ``lat`` with entries on their parallel at the longitude
    reach of each radius and 1e-9 either side of it (relative), and entries
    within a millimeter across the antimeridian, where the wrapped gap rounds
    by more than the reach's relative slack; with the radii that reach each
    of those entries exactly."""
    rng = random.Random(seed)
    points, queries = [], []
    for radius in (0.01, 1.0, 100.0, 10_000.0):
        reach = reach_deg(lat, radius)[2]
        for _ in range(10):
            q = GeoPoint(lat, rng.uniform(-179.0, 179.0))
            edge = [GeoPoint(lat, q.lon + sign * reach * (1.0 + rel))
                    for sign in (1, -1) for rel in (0.0, 1e-9, -1e-9)]
            points += edge
            queries.append((q, radius))
            queries += [(q, haversine_m(q, e)) for e in edge]
    for _ in range(20):
        q = GeoPoint(lat, 180.0 - rng.uniform(0.0, 1e-8))
        e = GeoPoint(lat, -180.0 + rng.uniform(0.0, 1e-8))
        points.append(e)
        queries.append((q, haversine_m(q, e)))
    return list(enumerate(points, 1)), queries


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("lat", REACH_LATS)
def test_entries_at_the_longitude_reach_match_a_full_scan(seed, lat):
    entries, queries = reach_world(seed, lat)
    assert_matches_scan(entries, queries)


def antimeridian_world(seed):
    """500 entries at |lon| 179-180 and 300 queries there, some on it."""
    rng = random.Random(seed)

    def near():
        return GeoPoint(rng.uniform(10.0, 12.0), rng.choice((1, -1)) * rng.uniform(179.0, 180.0))

    points = [near() for _ in range(500)]
    queries = [(near(), rng.uniform(1_000.0, 100_000.0)) for _ in range(290)]
    queries += [(GeoPoint(rng.uniform(10.0, 12.0), lon), radius)
                for lon in (180.0, -180.0) for radius in (5_000.0, 20_000.0, 50_000.0, 100_000.0,
                                                           200_000.0)]
    return list(enumerate(points, 1)), queries


@pytest.mark.parametrize("seed", [1, 2])
def test_antimeridian_world_matches_a_full_scan(seed):
    entries, queries = antimeridian_world(seed)
    assert_matches_scan(entries, queries)
    east_of_it = {venue_id for venue_id, loc in entries if loc.lon > 0}
    across = [hit for q, radius in queries
              for hit, _ in VenueGridIndex(entries).within_radius(q, radius, len(entries))
              if (hit in east_of_it) != (q.lon > 0)]
    assert len(across) > 100


def test_whole_world_region_matches_a_full_scan():
    """A scenario's venues over region [-60, -180, 60, 180], queried at every
    tenth venue and from both sides of the antimeridian near the venues by it."""
    world = generate_population(PopulationConfig(n_users=0, n_venues=400, venues_per_city=4,
                                                 seed=6, region=BBox(-60.0, -180.0, 60.0, 180.0)))
    entries = [(v.venue_id, v.location) for v in world.venues]
    queries = [(loc, radius) for _, loc in entries[::10]
               for radius in (2_500.0, 50_000.0, 1_000_000.0)]
    by_it = [loc for _, loc in entries if abs(loc.lon) > 179.0]
    across = [(GeoPoint(loc.lat, lon), radius) for loc in by_it
              for lon in (180.0, -180.0, math.copysign(179.9, -loc.lon))
              for radius in (20_000.0, 200_000.0)]
    assert_matches_scan(entries, queries + across)
    index = VenueGridIndex(entries)
    assert any((index.location_of(hit).lon > 0) != (q.lon > 0) for q, radius in across
               if abs(q.lon) < 180.0 for hit, _ in index.within_radius(q, radius, len(entries)))


@pytest.mark.parametrize("seed", [1, 2])
def test_queries_near_their_antipode_match_a_full_scan(seed):
    """A query at or by the north pole and entries within 3e-6 degrees of
    the south pole: haversine_m rounds their distances, up to a pole-to-pole
    one, into ties that fall out of latitude order."""
    rng = random.Random(seed)
    for _ in range(20):
        lon = rng.uniform(-180.0, 180.0)
        q = GeoPoint(90.0 - rng.choice((0.0, rng.uniform(0.0, 1e-6))), lon)
        points = [GeoPoint(-90.0 + rng.uniform(0.0, 3e-6), rng.choice((lon, rng.uniform(-180.0, 180.0))))
                  for _ in range(20)]
        entries = list(enumerate(points, 1))
        ranked = scan_within_radius(entries, q, math.inf)
        assert len({d for _, d in ranked}) < len(ranked)
        assert_matches_scan(entries, [(q, d) for _, d in ranked[::4]])


@pytest.mark.parametrize("seed", [1, 2])
def test_hit_limit_cuts_equal_distances_by_id(seed):
    """Repeated points, and mirror pairs about the prime meridian, lie at
    equal distances from the query; a limit that falls inside such a tie
    keeps the lowest ids, as the scan's (distance, id) order does. Queries
    sit on the equator, at mid latitude, by both poles and on the
    antimeridian."""
    rng = random.Random(seed)
    for lat in (0.0, 45.0, -89.99, 89.99):
        for lon in (0.0, 180.0, -179.9995):
            q = GeoPoint(lat, lon)
            points = []
            for _ in range(12):
                dlat, dlon = rng.uniform(-0.002, 0.002), rng.uniform(0.0, 0.002)
                east = q.lon + dlon
                p = GeoPoint(q.lat + dlat, east - 360.0 * (east > 180.0))
                points += [p] * rng.randint(1, 3)
                if lon == 0.0:
                    points.append(GeoPoint(p.lat, -p.lon))
            entries = list(enumerate(rng.sample(points, len(points)), 1))
            ranked = scan_within_radius(entries, q, math.inf)
            assert len({d for _, d in ranked}) < len(ranked) - 8
            index = VenueGridIndex(entries)
            for radius in (50.0, 150.0, 400.0, 2.1e7):
                expected = within_radius_matches_scan(index, entries, q, radius)
                for k in range(1, len(entries) + 2):
                    assert index.within_radius(q, radius, k) == expected[:k], (q, radius, k)

