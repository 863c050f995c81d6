"""Independent brute-force reference implementations used only by tests.

These deliberately re-derive results from first principles (different
formulas, full rescans) so they can serve as oracles for the production
paths without sharing code with them. The exceptions are
``nearest_linear``, ``scan_within_radius`` and ``scan_dispersion``, which
measure with ``haversine_m`` so their answers can be compared with the fast
paths' exactly, ``encode_event_line``, which is the JSON encoder events.jsonl
must stay byte-equal to, and ``json_load_events``, the one-``json.loads``-
per-line reader whose rows and messages the streaming reader keeps.
"""

from __future__ import annotations

import json
import math
from collections import deque
from pathlib import Path
from typing import Optional, Sequence

from checkinsim.attacker import MIN_INTERVAL_S, SAME_VENUE_GAP_S
from checkinsim.geo import GeoPoint, MILE_M, haversine_m
from checkinsim.rewards import DAY_S, MAYOR_WINDOW_DAYS, BadgeKind
from checkinsim.tables import EventRow, MissingTables

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


def scan_within_radius(
    entries: Sequence[tuple[int, GeoPoint]],
    p: GeoPoint,
    radius_m: float,
) -> list[tuple[int, float]]:
    """Every entry within radius_m of p, by measuring all of them; sorted by (distance, id)."""
    measured = sorted((haversine_m(p, loc), venue_id) for venue_id, loc in entries)
    return [(venue_id, d) for d, venue_id in measured if d <= radius_m]


def validate_schedule(schedule, location_of) -> None:
    """Check a schedule's timing invariants against venue positions."""
    prev = None
    last_fire: dict[int, int] = {}
    for entry in schedule.entries:
        if prev is not None:
            if entry.fire_time <= prev.fire_time:
                raise ValueError("fire times must be strictly increasing")
            d_miles = haversine_m(location_of(prev.venue_id), location_of(entry.venue_id)) / MILE_M
            required = MIN_INTERVAL_S if d_miles <= 1.0 else d_miles * MIN_INTERVAL_S
            if entry.fire_time - prev.fire_time + 1e-6 < required:
                raise ValueError(
                    f"interval {entry.fire_time - prev.fire_time}s under "
                    f"{required:.0f}s required for {d_miles:.2f} miles"
                )
        seen = last_fire.get(entry.venue_id)
        if seen is not None and entry.fire_time - seen < SAME_VENUE_GAP_S:
            raise ValueError(f"venue {entry.venue_id} revisited within the cooldown window")
        last_fire[entry.venue_id] = entry.fire_time
        prev = entry


class ScanningMayor:
    """Mayorship of one venue by full rescan: the reference for ``MayorState``.

    ``days`` maps user id to a deque of (day, latest check-in timestamp that
    day). Every ``recompute`` prunes each user's deque and scans every
    remaining user for the most distinct days; the incumbent keeps the title
    on a tie or when no user has a day in the window, otherwise the lowest
    user id wins.
    """

    def __init__(self) -> None:
        self.mayor_id: Optional[int] = None
        self.days: dict[int, deque] = {}

    def note_checkin(self, user_id: int, t: int) -> None:
        day = t // DAY_S
        dq = self.days.setdefault(user_id, deque())
        if dq and dq[-1][0] == day:
            dq[-1] = (day, t)
        else:
            dq.append((day, t))

    def recompute(self, t: int) -> Optional[int]:
        window_start = t - MAYOR_WINDOW_DAYS * DAY_S
        for user_id in list(self.days):
            dq = self.days[user_id]
            while dq and dq[0][1] <= window_start:
                dq.popleft()
            if not dq:
                del self.days[user_id]
        best_user: Optional[int] = None
        best_count = 0
        for user_id, dq in self.days.items():
            count = len(dq)
            if count > best_count or (count == best_count and (best_user is None or user_id < best_user)):
                best_user = user_id
                best_count = count
        if best_count == 0:
            return self.mayor_id
        incumbent = self.days.get(self.mayor_id)
        if incumbent is not None and len(incumbent) == best_count:
            return self.mayor_id
        self.mayor_id = best_user
        return best_user


def scan_badges(catalog, stream) -> list[frozenset[str]]:
    """Badges each check-in's user holds after it, by full rescan: the
    reference for ``RewardsEngine``'s badges.

    ``stream`` rows are (user_id, venue_id, t) valid check-ins in time order.
    After every check-in the user's whole history is scanned again: a
    distinct-venues badge holds once the history spans ``threshold`` venues,
    a window badge once ``threshold`` of its check-ins lie in
    (t - window_days, t]. A badge once held is held for good.
    """
    history: dict[int, list[tuple[int, int]]] = {}
    held: dict[int, set[str]] = {}
    out = []
    for user_id, venue_id, t in stream:
        past = history.setdefault(user_id, [])
        past.append((venue_id, t))
        badges = held.setdefault(user_id, set())
        for spec in catalog:
            if spec.kind == BadgeKind.DISTINCT_VENUES:
                count = len({v for v, _ in past})
            else:
                start = t - spec.window_days * DAY_S
                count = sum(1 for _, tj in past if start < tj <= t)
            if count >= spec.threshold:
                badges.add(spec.badge_id)
        out.append(frozenset(badges))
    return out


def scan_dispersion(trace, cluster_radius_m: float = 50_000.0) -> int:
    """Leader clustering by full scan: the reference for ``analytics.dispersion``.

    Orders by (time, lat, lon) and compares each point with every leader so
    far, in order, until one lies within the radius.
    """
    ordered = sorted(trace, key=lambda row: (row[0], row[1][0], row[1][1]))
    leaders: list[GeoPoint] = []
    for _, loc in ordered:
        for leader in leaders:
            if haversine_m(leader, loc) <= cluster_radius_m:
                break
        else:
            leaders.append(loc)
    return len(leaders)


def event_row(record) -> EventRow:
    """The events.jsonl row of a check-in record, as ``load_events`` reads it."""
    gps = record.reported_gps
    return EventRow(record.t, record.user_id, record.venue_id, gps.lat, gps.lon,
                    record.accepted, tuple(record.export_flags()))


_ENCODER = json.JSONEncoder(separators=(",", ":"))


def encode_event_line(record) -> str:
    """A record's events.jsonl line, encoded by the JSON encoder."""
    return _ENCODER.encode(event_row(record)._asdict()) + "\n"


def json_load_events(path: str | Path) -> list[EventRow]:
    """Read an events.jsonl log with one ``json.loads`` per line: the reference
    for ``tables.load_events``.

    A line that is not a JSON object with every ``EventRow`` key and a list
    of flags raises ``ValueError`` naming the file, the line and the key or
    reason.
    """
    path = Path(path)
    if not path.is_file():
        raise MissingTables(f"event log not found: {path}")
    events: list[EventRow] = []
    lineno, obj = 0, None
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                if not line.strip():
                    continue
                obj = json.loads(line)
                events.append(EventRow(obj["t"], obj["user_id"], obj["venue_id"],
                                       obj["reported_lat"], obj["reported_lon"],
                                       obj["valid"], tuple(obj["flags"])))
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path.name}: not UTF-8 text ({exc.reason})") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path.name}:{lineno}: not JSON ({exc.msg} at column {exc.colno})") \
            from exc
    except KeyError as exc:
        raise ValueError(f"{path.name}:{lineno}: missing key {exc.args[0]!r}") from exc
    except TypeError as exc:
        reason = "flags must be a list" if isinstance(obj, dict) else "not a JSON object"
        raise ValueError(f"{path.name}:{lineno}: {reason}") from exc
    return events
