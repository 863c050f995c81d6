"""Independent brute-force reference implementations used only by tests.

These deliberately re-derive results from first principles (different
formulas, full rescans) so they can serve as oracles for the production
paths without sharing code with them. The one exception is
``nearest_linear``, which measures with ``haversine_m`` so its distances can
be compared with the grid index's exactly.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

from checkinsim.geo import GeoPoint, haversine_m

EARTH_R = 6_371_000.0


def law_of_cosines_m(a, b) -> float:
    """Great-circle distance via the spherical law of cosines."""
    lat1, lon1 = math.radians(a[0]), math.radians(a[1])
    lat2, lon2 = math.radians(b[0]), math.radians(b[1])
    c = math.sin(lat1) * math.sin(lat2) + math.cos(lat1) * math.cos(lat2) * math.cos(lon2 - lon1)
    return EARTH_R * math.acos(max(-1.0, min(1.0, c)))


def bbox_fits(points, side_m: float) -> bool:
    """Independent 180m-square check: equirectangular about the first point."""
    scale = math.pi * EARTH_R / 180.0
    cos0 = math.cos(math.radians(points[0][0]))
    xs = [(p[1] - points[0][1]) * cos0 * scale for p in points]
    ys = [(p[0] - points[0][0]) * scale for p in points]
    return (max(xs) - min(xs)) <= side_m and (max(ys) - min(ys)) <= side_m


def brute_verdicts(trace, config, prior_valid=None):
    """Recompute (valid, flag-name set) for every submission by full rescan.

    ``trace`` rows are (t, venue_id, venue_location, reported_gps), time
    ordered. Validity chains: only previously valid rows feed later rules.
    With ``prior_valid``, row i feeds later rules exactly when
    ``prior_valid[i]`` is true, whatever its own verdict.
    """
    out = []
    valid_so_far = []  # (t, venue_id, venue_location) of accepted rows
    for i, (t, venue_id, venue_loc, reported) in enumerate(trace):
        flags = set()

        if any(vj == venue_id and t - tj < config.frequent_window_s
               for tj, vj, _ in valid_so_far):
            flags.add("FrequentCheckin")

        if valid_so_far:
            tj, _, locj = valid_so_far[-1]
            dist = law_of_cosines_m(locj, venue_loc)
            dt = t - tj
            if dt <= 0:
                if dist > 0.5:  # law-of-cosines noise floor near zero
                    flags.add("SuperHumanSpeed")
            elif dist / dt > config.max_speed_m_per_s * (1 + 1e-9):
                flags.add("SuperHumanSpeed")

        window = [(tj, locj) for tj, _, locj in valid_so_far
                  if t - tj < config.rapidfire_window_s]
        if len(window) >= config.rapidfire_count - 1:
            pts = [locj for _, locj in window] + [venue_loc]
            if bbox_fits(pts, config.rapidfire_side_m):
                flags.add("RapidFire")

        if law_of_cosines_m(reported, venue_loc) > config.gps_radius_m:
            flags.add("GpsMismatch")

        valid = not flags
        out.append((valid, flags))
        if valid if prior_valid is None else prior_valid[i]:
            valid_so_far.append((t, venue_id, venue_loc))
    return out


def nearest_linear(
    entries: Sequence[tuple[int, GeoPoint]],
    p: GeoPoint,
    exclude: frozenset[int] | set[int] = frozenset(),
) -> Optional[tuple[int, float]]:
    """Brute-force nearest scan; the reference the grid index must agree with."""
    best: Optional[tuple[float, int]] = None
    for venue_id, loc in entries:
        if venue_id in exclude:
            continue
        cand = (haversine_m(p, loc), venue_id)
        if best is None or cand < best:
            best = cand
    if best is None:
        return None
    return best[1], best[0]
