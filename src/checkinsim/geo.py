"""Spherical geometry primitives used by the rules, planners and detectors.

All distances are meters on a spherical Earth (R = 6,371,000 m); coordinates
are latitude/longitude in decimal degrees.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

EARTH_RADIUS_M = 6_371_000.0
METERS_PER_DEG = math.pi * EARTH_RADIUS_M / 180.0  # meters per degree of latitude
MILE_M = 1609.344  # international mile
PROJECTION_RANGE_M = 50_000.0


class OutOfProjectionRange(Exception):
    """Point too far from the projection origin for the local flat model."""


class GeoPoint(NamedTuple):
    lat: float
    lon: float


class LocalOffset(NamedTuple):
    """Flat east/north offset in meters about a stated origin."""

    east_m: float
    north_m: float


def validate_point(p: GeoPoint) -> GeoPoint:
    """Check latitude/longitude ranges and finiteness, returning the point."""
    lat, lon = p
    if not (math.isfinite(lat) and math.isfinite(lon)):
        raise ValueError(f"coordinates must be finite, got ({lat}, {lon})")
    if not -90.0 <= lat <= 90.0:
        raise ValueError(f"latitude {lat} outside [-90, 90]")
    if not -180.0 <= lon <= 180.0:
        raise ValueError(f"longitude {lon} outside [-180, 180]")
    return p


def _wrap_lon(lon: float) -> float:
    if -180.0 <= lon <= 180.0:
        return lon
    return (lon + 180.0) % 360.0 - 180.0


def haversine_m(a: GeoPoint, b: GeoPoint) -> float:
    """Great-circle distance in meters between two lat/lon points."""
    lat1 = math.radians(a[0])
    lat2 = math.radians(b[0])
    dlat = lat2 - lat1
    dlon = math.radians(b[1] - a[1])
    h = (
        math.sin(dlat * 0.5) ** 2
        + math.cos(lat1) * math.cos(lat2) * math.sin(dlon * 0.5) ** 2
    )
    if h > 1.0:  # guard rounding at antipodes
        h = 1.0
    return 2.0 * EARTH_RADIUS_M * math.asin(math.sqrt(h))


# Slack of distance_bounds_m: relative (1e-9, folded into the scales) plus
# an absolute floor. haversine_m rounds by a few parts in 1e16 of its result,
# except within a few meters of the antipode, where asin near 1 turns the
# rounding of its argument into up to about 0.15 m; the floor covers that.
_BOUND_FLOOR_M = 1.0
_LOW_SCALE = METERS_PER_DEG * (1.0 - 1e-9)
_HIGH_SCALE = METERS_PER_DEG * (1.0 + 1e-9)
_INF = math.inf
_NAN = math.nan


def distance_bounds_m(a: GeoPoint, b: GeoPoint) -> tuple[float, float]:
    """``(low, high)`` with ``low <= haversine_m(a, b) <= high``.

    For a caller that only compares a distance with a threshold: it measures
    with ``haversine_m`` only when the threshold lies between the bounds.

    Proof, with R the sphere's radius (``METERS_PER_DEG`` meters per degree)
    and h = sin^2(dlat/2) + cos(lat_a) cos(lat_b) sin^2(dlon/2), so that
    d = 2R asin(sqrt(h)). Let x = |dlat|/2 and y = |dlon|/2, dlon unwrapped.
    High: h <= sin^2 x + sin^2 y. When x + y <= pi/2,
    sin^2(x + y) - sin^2 x - sin^2 y = 2 sin x sin y cos(x + y) >= 0, so
    d <= 2R (x + y) = R (|dlat| + |dlon|); otherwise that bound is at least
    pi R, which no distance exceeds. Low: with both latitudes in [-90, 90]
    the cosines are >= 0, so h >= sin^2 x and d >= 2R x = R |dlat|. Both
    bounds get a relative and an absolute slack far above the rounding of
    either side.

    For a latitude outside [-90, 90], a non-finite coordinate or an
    overflowing difference, both bounds are NaN: a comparison written
    ``high <= limit`` or ``low > limit`` then settles nothing, and the caller
    measures, as it did without bounds.
    """
    lat_a = a[0]
    lat_b = b[0]
    dlat = lat_a - lat_b
    if dlat < 0.0:
        dlat = -dlat
    dlon = a[1] - b[1]
    if dlon < 0.0:
        dlon = -dlon
    if dlat + dlon < _INF and -90.0 <= lat_a <= 90.0 and -90.0 <= lat_b <= 90.0:
        return (_LOW_SCALE * dlat - _BOUND_FLOOR_M, _HIGH_SCALE * (dlat + dlon) + _BOUND_FLOOR_M)
    return (_NAN, _NAN)


def reach_deg(lat: float, radius_m: float) -> tuple[float, float, float]:
    """``(lat_lo, lat_hi, lon_reach)``: a point within ``radius_m`` of one at
    latitude ``lat`` lies in the band [lat_lo, lat_hi], and its longitude gap
    to that one, wrapped to [0, 180], is at most ``lon_reach`` degrees.

    Proof, with R, h and d as for ``distance_bounds_m``. The band holds every
    point whose low bound there, slack and floor included, is <= radius_m.
    With L the band's largest |latitude| and g the wrapped gap (sin^2(dlon/2)
    has period 360 and is even), h >= cos^2 L sin^2(g/2). For radius_m <
    pi R, d <= radius_m gives sqrt(h) <= sin(radius_m / 2R), so sin(g/2),
    which increases in g, is at most sin(radius_m / 2R) / cos L; when that is
    1 or more, or radius_m is within meters of pi R (where haversine_m rounds
    most) and puts a pole in the band, any g can hold a hit. The reach gets a
    relative slack of 1e-9 inside the asin, where its argument nears 1, and
    a floor of 1e-9 degrees, far above the rounding of either side.
    """
    half = (radius_m + _BOUND_FLOOR_M) / _LOW_SCALE
    lat_lo = lat - half
    lat_hi = lat + half
    far = max(-lat_lo, lat_hi)
    s = math.sin(radius_m / (2.0 * EARTH_RADIUS_M)) * (1.0 + 1e-9)
    if far < 90.0 and s < math.cos(math.radians(far)):
        lon_reach = math.degrees(2.0 * math.asin(s / math.cos(math.radians(far))))
        return (lat_lo, lat_hi, lon_reach + 1e-9)
    return (lat_lo, lat_hi, 180.0)


def project_local(origin: GeoPoint, p: GeoPoint) -> LocalOffset:
    """Equirectangular projection of ``p`` about ``origin``.

    Only valid near the origin; raises OutOfProjectionRange beyond 50 km.
    """
    if haversine_m(origin, p) > PROJECTION_RANGE_M:
        raise OutOfProjectionRange(
            f"{p} is farther than {PROJECTION_RANGE_M} m from origin {origin}"
        )
    dlon = _wrap_lon(p[1] - origin[1])
    east = dlon * math.cos(math.radians(origin[0])) * METERS_PER_DEG
    north = (p[0] - origin[0]) * METERS_PER_DEG
    return LocalOffset(east, north)


def unproject_local(origin: GeoPoint, offset: LocalOffset) -> GeoPoint:
    """Inverse of project_local for the same origin."""
    lat = origin[0] + offset.north_m / METERS_PER_DEG
    lon = origin[1] + offset.east_m / (math.cos(math.radians(origin[0])) * METERS_PER_DEG)
    return GeoPoint(lat, _wrap_lon(lon))


def fits_square(points: Sequence[GeoPoint], side_m: float) -> bool:
    """True iff the bounding box of the points fits in a side_m x side_m square.

    The box is axis-aligned in a local projection anchored at the points
    themselves (their own bounding box, not a fixed grid).
    """
    if not 1 <= len(points) <= 1000:
        raise ValueError(f"fits_square expects 1..1000 points, got {len(points)}")
    origin = points[0]
    min_e = max_e = 0.0
    min_n = max_n = 0.0
    for p in points[1:]:
        east, north = project_local(origin, p)
        if east < min_e:
            min_e = east
        elif east > max_e:
            max_e = east
        if north < min_n:
            min_n = north
        elif north > max_n:
            max_n = north
    return (max_e - min_e) <= side_m and (max_n - min_n) <= side_m


_MAX_OFFSET_M = math.pi * EARTH_RADIUS_M  # antipode


def offset_point(origin: GeoPoint, bearing_deg: float, dist_m: float) -> GeoPoint:
    """Destination point at dist_m along a compass bearing from origin.

    Exact on the sphere, so a haversine back-check reproduces dist_m to well
    under the 0.1% contract.
    """
    if not math.isfinite(bearing_deg):
        raise ValueError(f"bearing must be finite, got {bearing_deg}")
    if not math.isfinite(dist_m) or dist_m < 0:
        raise ValueError(f"distance must be finite and non-negative, got {dist_m}")
    if dist_m > _MAX_OFFSET_M:
        raise OutOfProjectionRange(f"step of {dist_m} m exceeds the antipodal distance")
    if dist_m == 0:
        return origin
    delta = dist_m / EARTH_RADIUS_M
    theta = math.radians(bearing_deg)
    lat1 = math.radians(origin[0])
    lon1 = math.radians(origin[1])
    sin_lat2 = math.sin(lat1) * math.cos(delta) + math.cos(lat1) * math.sin(delta) * math.cos(theta)
    lat2 = math.asin(max(-1.0, min(1.0, sin_lat2)))
    lon2 = lon1 + math.atan2(
        math.sin(theta) * math.sin(delta) * math.cos(lat1),
        math.cos(delta) - math.sin(lat1) * sin_lat2,
    )
    return GeoPoint(math.degrees(lat2), _wrap_lon(math.degrees(lon2)))
