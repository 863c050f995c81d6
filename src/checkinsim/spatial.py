"""Uniform-grid spatial index for nearest-venue and radius queries.

Cells are fixed-size lat/lon squares; nearest lookups expand in rings with a
conservative distance bound and fall back to a linear scan when the grid
cannot help. Regions crossing the antimeridian are not supported.
"""

from __future__ import annotations

import math
from typing import Iterable, Optional

from .geo import GeoPoint, METERS_PER_DEG, haversine_m


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
        if self._cells:
            rows = [row for row, _ in self._cells]
            cols = [col for _, col in self._cells]
            self._bounds = (min(rows), max(rows), min(cols), max(cols))
        else:
            self._bounds = (0, 0, 0, 0)
        # Meters-per-degree lower bound across the occupied band, with margin
        # for queries slightly outside it; keeps the ring cutoff conservative.
        band = min(89.0, max_abs_lat + 1.0)
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

    def _min_m_per_deg_at(self, lat: float) -> float:
        # account for queries at higher latitude than the venue band
        q_band = min(89.0, abs(lat) + 1.0)
        q_bound = METERS_PER_DEG * math.cos(math.radians(q_band)) * 0.99
        return min(self._min_m_per_deg, q_bound)

    def nearest(self, p: GeoPoint, exclude: frozenset[int] | set[int] = frozenset()) -> Optional[tuple[int, float]]:
        """Closest entry to p as (venue_id, distance_m); ties take the lowest id.

        Returns None when every entry is excluded or the index is empty.
        """
        if not self._entries:
            return None
        best: Optional[tuple[float, int]] = None
        crow, ccol = self._cell_of(p)
        rmin, rmax, cmin, cmax = self._bounds
        max_rings = max(abs(crow - rmin), abs(crow - rmax), abs(ccol - cmin), abs(ccol - cmax))
        min_m_per_deg = self._min_m_per_deg_at(p.lat)
        for ring in range(0, max_rings + 1):
            if best is not None and ring > 1:
                # Everything in this ring is at least (ring-1) cells away.
                if (ring - 1) * self.cell_size_deg * min_m_per_deg > best[0]:
                    break
            for row, col in self._ring_cells(crow, ccol, ring):
                bucket = self._cells.get((row, col))
                if bucket is None:
                    continue
                for venue_id, loc in bucket:
                    if venue_id in exclude:
                        continue
                    cand = (haversine_m(p, loc), venue_id)
                    if best is None or cand < best:
                        best = cand
        if best is None:
            return None
        return best[1], best[0]

    @staticmethod
    def _ring_cells(crow: int, ccol: int, ring: int):
        if ring == 0:
            yield crow, ccol
            return
        for col in range(ccol - ring, ccol + ring + 1):
            yield crow - ring, col
            yield crow + ring, col
        for row in range(crow - ring + 1, crow + ring):
            yield row, ccol - ring
            yield row, ccol + ring

    def within_radius(self, p: GeoPoint, radius_m: float) -> list[tuple[int, float]]:
        """Entries within radius_m of p, sorted by (distance, id)."""
        reach = int(math.ceil(radius_m / (self.cell_size_deg * self._min_m_per_deg_at(p.lat)))) + 1
        crow, ccol = self._cell_of(p)
        hits: list[tuple[float, int]] = []
        for row in range(crow - reach, crow + reach + 1):
            for col in range(ccol - reach, ccol + reach + 1):
                bucket = self._cells.get((row, col))
                if not bucket:
                    continue
                for venue_id, loc in bucket:
                    d = haversine_m(p, loc)
                    if d <= radius_m:
                        hits.append((d, venue_id))
        hits.sort()
        return [(venue_id, d) for d, venue_id in hits]

