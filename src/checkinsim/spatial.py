"""Uniform-grid spatial index for nearest-venue and radius queries.

Cells are fixed-size lat/lon squares. A radius query scans the cell rows
of its latitude band, in the columns that a conservative meters-per-degree
bound says can hold a hit. Once the band reaches 89 degrees north or south
that bound fails, because near a pole a hit can lie at any longitude, and
the query measures every entry of its band instead. A nearest query
doubles a radius query until it finds an entry not excluded, and scans
every entry once the square of cells it reaches would hold as many cells
as there are entries.
Regions crossing the antimeridian are not supported below 89 degrees.
"""

from __future__ import annotations

import math
from typing import Iterable, Optional

from .geo import GeoPoint, METERS_PER_DEG, haversine_m

# A great-circle distance is at least R * |dlat|, so a hit lies within
# radius / METERS_PER_DEG degrees of latitude of the query; the band adds a
# relative and an absolute slack far above the rounding of either side.
_BAND_SLACK = 1e-9
_BAND_FLOOR_DEG = 1e-9
# Latitude at which the meters-per-degree bound of the column reach stops.
_POLAR_DEG = 89.0


class VenueGridIndex:
    def __init__(self, entries: Iterable[tuple[int, GeoPoint]], cell_size_deg: float = 0.02) -> None:
        if cell_size_deg <= 0:
            raise ValueError("cell size must be positive")
        self.cell_size_deg = cell_size_deg
        self._entries: list[tuple[int, GeoPoint]] = sorted(entries)
        self._locations: Optional[dict[int, GeoPoint]] = None
        self._cells: dict[tuple[int, int], list[tuple[int, GeoPoint]]] = {}
        max_abs_lat = 0.0
        for entry in self._entries:
            _, loc = entry
            self._cells.setdefault(self._cell_of(loc), []).append(entry)
            max_abs_lat = max(max_abs_lat, abs(loc.lat))
        # Meters-per-degree lower bound across the occupied band, with margin
        # for queries slightly outside it; keeps the square of cells that
        # _reach gives large enough to hold every hit.
        band = min(_POLAR_DEG, max_abs_lat + 1.0)
        self._min_m_per_deg = METERS_PER_DEG * math.cos(math.radians(band)) * 0.99

    def __len__(self) -> int:
        return len(self._entries)

    def location_of(self, venue_id: int) -> GeoPoint:
        if self._locations is None:
            self._locations = {vid: loc for vid, loc in self._entries}
        return self._locations[venue_id]

    def _cell_of(self, p: GeoPoint) -> tuple[int, int]:
        return (int(math.floor(p.lat / self.cell_size_deg)),
                int(math.floor(p.lon / self.cell_size_deg)))

    def _reach(self, p: GeoPoint, radius_m: float) -> int:
        """Cells on each side of p's cell that can hold a point within radius_m."""
        # account for queries at higher latitude than the venue band
        q_band = min(_POLAR_DEG, abs(p.lat) + 1.0)
        m_per_deg = min(self._min_m_per_deg, METERS_PER_DEG * math.cos(math.radians(q_band)) * 0.99)
        return int(math.ceil(radius_m / (self.cell_size_deg * m_per_deg))) + 1

    def nearest(self, p: GeoPoint, exclude: frozenset[int] | set[int] = frozenset()) -> Optional[tuple[int, float]]:
        """Closest entry to p as (venue_id, distance_m); ties take the lowest id.

        Returns None when every entry is excluded or the index is empty.
        """
        radius_m = self.cell_size_deg * METERS_PER_DEG
        while (2 * self._reach(p, radius_m) + 1) ** 2 < len(self._entries):
            for venue_id, d in self.within_radius(p, radius_m):
                if venue_id not in exclude:
                    return venue_id, d
            radius_m *= 2.0
        best = min(((haversine_m(p, loc), venue_id) for venue_id, loc in self._entries
                    if venue_id not in exclude), default=None)
        if best is None:
            return None
        return best[1], best[0]

    def within_radius(self, p: GeoPoint, radius_m: float) -> list[tuple[int, float]]:
        """Entries within radius_m of p, sorted by (distance, id); entries
        outside p's latitude band are skipped unmeasured."""
        half_band = radius_m / METERS_PER_DEG * (1.0 + _BAND_SLACK) + _BAND_FLOOR_DEG
        lat_lo, lat_hi = p.lat - half_band, p.lat + half_band
        if max(-lat_lo, lat_hi) >= _POLAR_DEG:
            buckets = [self._entries]  # every column of the band's rows
        else:
            reach = self._reach(p, radius_m)
            size = self.cell_size_deg
            ccol = int(math.floor(p.lon / size))
            cells = self._cells
            buckets = [bucket
                       for row in range(int(math.floor(lat_lo / size)),
                                        int(math.floor(lat_hi / size)) + 1)
                       for col in range(ccol - reach, ccol + reach + 1)
                       if (bucket := cells.get((row, col)))]
        hits: list[tuple[float, int]] = []
        for bucket in buckets:
            for venue_id, loc in bucket:
                if lat_lo <= loc[0] <= lat_hi:
                    d = haversine_m(p, loc)
                    if d <= radius_m:
                        hits.append((d, venue_id))
        hits.sort()
        return [(venue_id, d) for d, venue_id in hits]
