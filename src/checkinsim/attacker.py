"""Location-cheating attacker: target selection from crawled profiles,
virtual-path planning over the venue map, and rule-evading schedules.

The attacker spoofs reported coordinates (reported GPS = venue location)
while its true position never moves; schedules space check-ins so that no
anticheat rule can fire.
"""

from __future__ import annotations

import json
import math
from collections.abc import Container
from pathlib import Path
from typing import Iterable, NamedTuple, Optional, Sequence

from .geo import GeoPoint, MILE_M, haversine_m, offset_point
from .spatial import VenueGridIndex
from .tables import T_END, PublicTables, UnknownUser, json_object

MIN_INTERVAL_S = 300  # five minutes between check-ins up to one mile apart
SAME_VENUE_GAP_S = 3600  # cooldown safety gap for repeat visits
TOUR_STEP_DEG = 0.005
START_DELAY_S = 600  # wait between the world's clock and an attack's first check-in


class NoVenuesAvailable(Exception):
    pass


class BBox(NamedTuple):
    min_lat: float
    min_lon: float
    max_lat: float
    max_lon: float

    def contains(self, p: GeoPoint) -> bool:
        return self.min_lat <= p.lat <= self.max_lat and self.min_lon <= p.lon <= self.max_lon


class TargetCriteria(NamedTuple):
    require_mayor_special: bool = False
    require_vacant_mayor: bool = False
    region: Optional[BBox] = None
    name_filter: Optional[str] = None


class ScheduleEntry(NamedTuple):
    venue_id: int
    fire_time: int


class AttackSchedule(NamedTuple):
    """Ordered (venue, fire time) plan; reported GPS is the venue location."""

    entries: list[ScheduleEntry]


def select_targets(venues: Iterable, criteria: TargetCriteria) -> list[int]:
    """Venue ids satisfying every set criterion, in id order.

    Works over live venues or rows loaded from a VenueInfo export.
    """
    needle = criteria.name_filter.lower() if criteria.name_filter else None
    out = []
    for v in venues:
        if criteria.require_mayor_special and not v.has_mayor_special:
            continue
        if criteria.require_vacant_mayor and v.mayor_id is not None:
            continue
        if criteria.region is not None and not criteria.region.contains(v.location):
            continue
        if needle is not None and needle not in v.name.lower():
            continue
        out.append(v.venue_id)
    out.sort()
    return out


def plan_step(
    current: GeoPoint,
    bearing_deg: float,
    step_m: float,
    index: VenueGridIndex,
) -> int:
    """Venue closest to the point step_m along bearing_deg from current."""
    target = offset_point(current, bearing_deg, step_m)
    hit = index.nearest(target)
    if hit is None:
        raise NoVenuesAvailable("no venue available for the planned step")
    return hit[0]


def plan_tour(
    index: VenueGridIndex,
    start: GeoPoint,
    steps: int,
    step_deg: float = TOUR_STEP_DEG,
) -> list[int]:
    """Virtual walking tour: snap to the nearest venue, then advance in
    axis-aligned degree steps, turning right in an outward spiral.

    Each move targets a point step_deg away in latitude or longitude from the
    previously chosen venue and checks into the nearest venue not yet visited.
    """
    if steps < 1:
        raise ValueError("tour needs at least one step")
    hit = index.nearest(start)
    if hit is None:
        raise NoVenuesAvailable("no venues to tour")
    tour = [hit[0]]
    visited = {hit[0]}
    current = index.location_of(hit[0])
    # Headings cycle N -> E -> S -> W with spiral leg lengths 1,1,2,2,3,3,...
    moves = _spiral_moves()
    while len(tour) < steps:
        dlat, dlon = next(moves)
        target = GeoPoint(current.lat + dlat * step_deg, current.lon + dlon * step_deg)
        hit = index.nearest(target, exclude=visited)
        if hit is None:
            raise NoVenuesAvailable("ran out of venues during the tour")
        tour.append(hit[0])
        visited.add(hit[0])
        current = index.location_of(hit[0])
    return tour


def _spiral_moves():
    headings = [(1, 0), (0, 1), (-1, 0), (0, -1)]  # N, E, S, W (right turns)
    leg = 1
    i = 0
    while True:
        for _ in range(2):
            for _ in range(leg):
                yield headings[i % 4]
            i += 1
        leg += 1


def build_schedule(
    venues: Sequence[tuple[int, GeoPoint]],
    start_time: int,
) -> AttackSchedule:
    """Turn an ordered venue sequence into a rule-safe firing schedule.

    Consecutive waits are five minutes up to one mile, then five minutes per
    mile (rounded up); repeat visits additionally wait out the same-venue
    cooldown.
    """
    if not venues:
        raise ValueError("cannot schedule an empty venue list")
    entries: list[ScheduleEntry] = []
    last_fire: dict[int, int] = {}
    t = int(start_time)
    prev_loc: Optional[GeoPoint] = None
    for venue_id, loc in venues:
        if prev_loc is not None:
            d_miles = haversine_m(prev_loc, loc) / MILE_M
            t += MIN_INTERVAL_S if d_miles <= 1.0 else int(math.ceil(d_miles * MIN_INTERVAL_S))
        seen = last_fire.get(venue_id)
        if seen is not None and t - seen < SAME_VENUE_GAP_S:
            t = seen + SAME_VENUE_GAP_S
        entries.append(ScheduleEntry(venue_id, t))
        last_fire[venue_id] = t
        prev_loc = loc
    return AttackSchedule(entries)


def execute(
    world,
    user_id: int,
    schedule: AttackSchedule,
    true_location: GeoPoint,
) -> list:
    """Fire the schedule: report each venue's own coordinates while the
    attacker's true position stays fixed. Returns the produced records."""
    records = []
    for venue_id, fire_time in schedule.entries:
        venue = world.venue(venue_id)
        records.append(
            world.submit_checkin(user_id, venue_id, venue.location, fire_time, true_gps=true_location)
        )
    return records


def plan_mayor_denial(victim_user_id: int, tables: PublicTables) -> list[int]:
    """Venues where the victim is visible: recent visitor lists or mayorships."""
    if victim_user_id not in tables.users:
        raise UnknownUser(f"user {victim_user_id} not present in UserInfo")
    venue_ids = {vid for vid, uid in tables.recent if uid == victim_user_id}
    venue_ids.update(v.venue_id for v in tables.venues.values() if v.mayor_id == victim_user_id)
    return sorted(venue_ids)


def save_schedule(schedule: AttackSchedule, path: str | Path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for venue_id, fire_time in schedule.entries:
            fh.write(json.dumps({"venue_id": venue_id, "fire_time": fire_time}))
            fh.write("\n")
    return path


def load_schedule(path: str | Path, venue_ids: Container[int], not_before: int) -> AttackSchedule:
    """Read a schedule written by ``save_schedule``. Refuses, naming
    ``<file>:<line>`` and the field, a line that is not a JSON object of
    integer ``venue_id`` and ``fire_time``, a venue not in ``venue_ids``, and
    a fire time before ``not_before`` (the world's clock), before the line
    above it or from 2**63 on, so that a caller can check a whole schedule
    before it runs."""
    path = Path(path)
    entries: list[ScheduleEntry] = []
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                if not line.strip():
                    continue
                where = f"{path.name}:{lineno}"
                obj = json_object(where, line, ScheduleEntry._fields)
                for key in ScheduleEntry._fields:
                    if type(obj[key]) is not int:
                        raise ValueError(f"{where}: {key} {obj[key]!r} is not an integer")
                entry = ScheduleEntry(obj["venue_id"], obj["fire_time"])
                if entry.venue_id not in venue_ids:
                    raise ValueError(f"{where}: venue_id {entry.venue_id} is not a venue of "
                                     f"the world")
                if entries and entry.fire_time < entries[-1].fire_time:
                    raise ValueError(f"{where}: fire_time {entry.fire_time} is before the line "
                                     f"above it ({entries[-1].fire_time})")
                if entry.fire_time < not_before:
                    raise ValueError(f"{where}: fire_time {entry.fire_time} is before the "
                                     f"world's clock ({not_before})")
                if entry.fire_time >= T_END:
                    raise ValueError(f"{where}: fire_time {entry.fire_time} is not below 2**63")
                entries.append(entry)
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path.name}: not UTF-8 text ({exc.reason})") from exc
    return AttackSchedule(entries)
