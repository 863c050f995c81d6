"""Public-profile table model: the crawlable projection of a world.

Owns the CSV export format (UserInfo, VenueInfo, RecentCheckin) and the
events.jsonl log format: writes them and reads them back, for consumption by
the attacker planner and the offline detectors.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, NamedTuple, Optional, Protocol, Sequence

from .geo import GeoPoint


class MissingTables(Exception):
    """An expected export file is absent."""


class UserRow(NamedTuple):
    user_id: int
    total_checkins: int
    total_badges: int
    total_mayorships: int
    recent_checkins: int


class VenueRow(NamedTuple):
    venue_id: int
    name: str
    lat: float
    lon: float
    total_checkins: int
    unique_visitors: int
    mayor_id: Optional[int]
    has_mayor_special: bool

    @property
    def location(self) -> GeoPoint:
        return GeoPoint(self.lat, self.lon)


class CheckIn(Protocol):
    """What detection reads of a check-in: an ``EventRow`` read back from
    events.jsonl, or a live world's ``CheckInRecord``."""

    @property
    def t(self) -> int: ...

    @property
    def user_id(self) -> int: ...

    @property
    def venue_id(self) -> int: ...


class EventRow(NamedTuple):
    t: int
    user_id: int
    venue_id: int
    reported_lat: float
    reported_lon: float
    valid: bool
    flags: tuple[str, ...]


@dataclass
class PublicTables:
    users: dict[int, UserRow]
    venues: dict[int, VenueRow]
    recent: list[tuple[int, int]]  # (venue_id, user_id)

    def event_location(self, event: CheckIn) -> GeoPoint:
        """Location of a check-in's venue, which VenueInfo must list."""
        venue = self.venues.get(event.venue_id)
        if venue is None:
            raise ValueError(f"events.jsonl row for user {event.user_id} at t={event.t}: "
                             f"venue {event.venue_id} is not in VenueInfo.csv")
        return GeoPoint(venue.lat, venue.lon)


def write_csv(path: Path, header: Sequence[str], rows: Iterable[Sequence]) -> Path:
    """Write one CSV file in the dialect of every export (``\\n`` line ends)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)
    return path


def write_tables(tables: PublicTables, destination: str | Path) -> dict[str, Path]:
    """Write the three public CSV exports that ``load_tables`` reads."""
    dest = Path(destination)
    venue_rows = ([v.venue_id, v.name, repr(v.lat), repr(v.lon), v.total_checkins,
                   v.unique_visitors, "" if v.mayor_id is None else v.mayor_id,
                   1 if v.has_mayor_special else 0]
                  for v in tables.venues.values())
    return {
        "UserInfo": write_csv(dest / "UserInfo.csv", UserRow._fields, tables.users.values()),
        "VenueInfo": write_csv(dest / "VenueInfo.csv", VenueRow._fields, venue_rows),
        "RecentCheckin": write_csv(dest / "RecentCheckin.csv", ("venue_id", "user_id"),
                                   tables.recent),
    }


def load_tables(directory: str | Path) -> PublicTables:
    """Read the three public CSV exports from a directory."""
    directory = Path(directory)
    for name in ("UserInfo.csv", "VenueInfo.csv", "RecentCheckin.csv"):
        if not (directory / name).is_file():
            raise MissingTables(f"{name} not found in {directory}")

    users: dict[int, UserRow] = {}
    with open(directory / "UserInfo.csv", newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            u = UserRow(int(row["user_id"]), int(row["total_checkins"]), int(row["total_badges"]),
                        int(row["total_mayorships"]), int(row["recent_checkins"]))
            users[u.user_id] = u

    venues: dict[int, VenueRow] = {}
    with open(directory / "VenueInfo.csv", newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            v = VenueRow(int(row["venue_id"]), row["name"], float(row["lat"]), float(row["lon"]),
                         int(row["total_checkins"]), int(row["unique_visitors"]),
                         int(row["mayor_id"]) if row["mayor_id"] else None,
                         row["has_mayor_special"] == "1")
            for name, value, limit in (("lat", v.lat, 90.0), ("lon", v.lon, 180.0)):
                if not -limit <= value <= limit:  # NaN fails every comparison
                    raise ValueError(f"VenueInfo.csv:{reader.line_num}: {name} {value!r} "
                                     f"is not a finite value in [-{limit:g}, {limit:g}]")
            venues[v.venue_id] = v

    recent: list[tuple[int, int]] = []
    with open(directory / "RecentCheckin.csv", newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            recent.append((int(row["venue_id"]), int(row["user_id"])))

    return PublicTables(users, venues, recent)


def tables_from_world(world) -> PublicTables:
    """Build the same projection directly from a live world (no file round trip)."""
    recent_counts: dict[int, int] = {}
    recent: list[tuple[int, int]] = []
    for v in world.venues:
        for uid in v.recent_visitors:
            recent.append((v.venue_id, uid))
            recent_counts[uid] = recent_counts.get(uid, 0) + 1
    users = {
        u.user_id: UserRow(u.user_id, u.total_checkins, len(u.badges), u.total_mayorships,
                           recent_counts.get(u.user_id, 0))
        for u in world.users
    }
    venues = {
        v.venue_id: VenueRow(v.venue_id, v.name, v.location.lat, v.location.lon,
                             v.total_checkins, len(v.visitor_ids), v.mayor_id, v.has_mayor_special)
        for v in world.venues
    }
    return PublicTables(users, venues, recent)


# One events.jsonl line: what json.dumps(row._asdict(), separators=(",", ":"))
# writes for the record's EventRow. ``%r`` writes an int as json does and a
# float as float.__repr__, which is json's float format too.
_EVENT_LINE = ('{"t":%r,"user_id":%r,"venue_id":%r,"reported_lat":%r,"reported_lon":%r,'
               '"valid":%s,"flags":%s}\n')
_encode_json = json.JSONEncoder(separators=(",", ":")).encode


def write_events(records: Iterable, path: str | Path) -> Path:
    """Write check-in records as the events.jsonl log that ``load_events`` reads.

    A record's row is (t, user_id, venue_id, reported lat, reported lon,
    ``accepted``, ``export_flags()``). Each line is formatted once and must
    stay byte-equal to the compact JSON encoding of that row.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(
            _EVENT_LINE % (r.t, r.user_id, r.venue_id, *r.reported_gps,
                           "true" if r.accepted else "false",
                           _encode_json(flags) if (flags := r.export_flags()) else "[]")
            for r in records)
    return path


def load_events(path: str | Path) -> list[EventRow]:
    """Read an events.jsonl log.

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
