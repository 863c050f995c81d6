"""Venue index for nearest-venue and radius queries.

Entries are kept in one list sorted by (latitude, id). A radius query
bisects for its latitude band and measures only entries whose longitude
gap, wrapped across the antimeridian, is within the reach that
``geo.reach_deg`` proves; it sorts the hits and keeps the first k. A
nearest query walks outward from the query's latitude and stops once the
latitude low bound of ``geo.distance_bounds_m`` exceeds the best distance
found. Both are exact at the poles and across the
antimeridian, for coordinates within [-90, 90] and [-180, 180].
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Iterable, Optional

from .geo import GeoPoint, distance_bounds_m, haversine_m, reach_deg


class VenueGridIndex:
    """Named for the grid it once was; ``perfbench/spans.py`` wraps it by name."""

    def __init__(self, entries: Iterable[tuple[int, GeoPoint]]) -> None:
        self._entries: list[tuple[int, GeoPoint]] = sorted(entries, key=lambda e: (e[1][0], e[0]))
        self._lats = [loc[0] for _, loc in self._entries]
        self._locations: Optional[dict[int, GeoPoint]] = None

    def location_of(self, venue_id: int) -> GeoPoint:
        if self._locations is None:
            self._locations = dict(self._entries)
        return self._locations[venue_id]

    def nearest(self, p: GeoPoint, exclude: frozenset[int] | set[int] = frozenset()) -> Optional[tuple[int, float]]:
        """Closest entry to p as (venue_id, distance_m); ties take the lowest id.

        Returns None when every entry is excluded or the index is empty.
        """
        lats, entries = self._lats, self._entries
        lat = p[0]
        above = bisect_left(lats, lat)
        below = above - 1
        best: Optional[tuple[float, int]] = None
        while below >= 0 or above < len(lats):
            if below < 0 or (above < len(lats) and lats[above] - lat <= lat - lats[below]):
                venue_id, loc = entries[above]
                above += 1
            else:
                venue_id, loc = entries[below]
                below -= 1
            # every entry not yet visited is at least as far in latitude
            if best is not None and distance_bounds_m(p, loc)[0] > best[0]:
                break
            if venue_id not in exclude:
                found = (haversine_m(p, loc), venue_id)
                if best is None or found < best:
                    best = found
        return None if best is None else (best[1], best[0])

    def within_radius(self, p: GeoPoint, radius_m: float, k: int) -> list[tuple[int, float]]:
        """The first k entries within radius_m of p, sorted by (distance, id);
        entries outside p's latitude band or longitude reach are skipped
        unmeasured."""
        lat_lo, lat_hi, reach = reach_deg(p[0], radius_m)
        lon = p[1]
        hits: list[tuple[float, int]] = []
        for venue_id, loc in self._entries[bisect_left(self._lats, lat_lo):
                                           bisect_right(self._lats, lat_hi)]:
            gap = abs(loc[1] - lon)
            if gap > 180.0:
                gap = 360.0 - gap
            if gap <= reach:
                d = haversine_m(p, loc)
                if d <= radius_m:
                    hits.append((d, venue_id))
        hits.sort()
        return [(venue_id, d) for d, venue_id in hits[:k]]
