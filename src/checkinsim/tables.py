"""Public-profile table model: the crawlable projection of a world.

Owns the CSV export format (UserInfo, VenueInfo, RecentCheckin) and the
events.jsonl log format: writes them and reads them back, for consumption by
the attacker planner and the offline detectors. The readers check every
cell's type and range and name ``<file>:<line>`` and the field of the first
bad one, so a damaged export fails loudly instead of skewing a report.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import islice
from json.scanner import make_scanner
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Optional, Protocol, Sequence

from .geo import GeoPoint


class MissingTables(Exception):
    """An expected export file is absent."""


class UnknownVenue(ValueError):
    """A check-in's venue is not listed in VenueInfo.csv."""

    def __init__(self, event: CheckIn) -> None:
        super().__init__(f"events.jsonl row for user {event.user_id} at t={event.t}: "
                         f"venue {event.venue_id} is not in VenueInfo.csv")
        self.event = event


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

    @cached_property
    def _venue_points(self) -> dict[int, GeoPoint]:
        return {venue_id: v.location for venue_id, v in self.venues.items()}

    def event_location(self, event: CheckIn) -> GeoPoint:
        """Location of a check-in's venue, which VenueInfo must list.

        Every check-in at a venue gets the same ``GeoPoint``, built once from
        ``venues`` on the first lookup; an unlisted venue raises
        ``UnknownVenue``.
        """
        try:
            return self._venue_points[event.venue_id]
        except KeyError:
            raise UnknownVenue(event) from None


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


def _optional_int(cell: str) -> Optional[int]:
    return int(cell) if cell else None


def _coordinate(limit: float):
    def parse(cell: str) -> float:
        value = float(cell)
        if not -limit <= value <= limit:  # NaN fails every comparison
            raise ValueError(cell)
        return value
    return parse


_FLAG = {"0": False, "1": True}
_LAT, _LON = _coordinate(90.0), _coordinate(180.0)
_INT = (int, "an integer")
# Each export's fields in read order: (field, parser, what a good cell is).
_USER_CELLS = tuple((field, *_INT) for field in UserRow._fields)
_VENUE_CELLS = (("venue_id", *_INT), ("name", str, "text"),
                ("lat", _LAT, "a finite number in [-90, 90]"),
                ("lon", _LON, "a finite number in [-180, 180]"),
                ("total_checkins", *_INT), ("unique_visitors", *_INT),
                ("mayor_id", _optional_int, "an integer or empty"),
                ("has_mayor_special", _FLAG.__getitem__, "0 or 1"))
_RECENT_CELLS = (("venue_id", *_INT), ("user_id", *_INT))


def _venue_row(venue_id, name, lat, lon, total, unique, mayor, special) -> VenueRow:
    return VenueRow(int(venue_id), name, _LAT(lat), _LON(lon), int(total), int(unique),
                    int(mayor) if mayor else None, _FLAG[special])


def _csv_rows(path: Path, cells, convert) -> Iterator:
    """Yield ``convert(*cells)`` for each data row of a CSV export, its cells
    taken in ``cells`` order by the header's columns; blank lines are skipped.

    A header without one of the fields, or a row that ``convert`` refuses,
    raises ``ValueError`` naming ``<file>:<line>: <field>`` and the first bad
    cell, as its parser in ``cells`` finds it.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        for field, _, _ in cells:
            if field not in header:
                raise ValueError(f"{path.name}:1: missing column {field!r}")
        columns = [header.index(field) for field, _, _ in cells]
        take = itemgetter(*columns)
        for row in reader:
            try:
                yield convert(*take(row))
            except (ValueError, LookupError):
                if row:
                    raise _cell_error(f"{path.name}:{reader.line_num}", row, cells,
                                      columns) from None


def _cell_error(where: str, row: list[str], cells, columns: list[int]) -> ValueError:
    for (field, parse, what), i in zip(cells, columns):
        if i >= len(row):
            return ValueError(f"{where}: {field} is missing (the row has {len(row)} cells)")
        try:
            parse(row[i])
        except (ValueError, KeyError):
            return ValueError(f"{where}: {field} {row[i]!r} is not {what}")
    return ValueError(f"{where}: unreadable row {row!r}")


def _by_id(path: Path, cells, convert) -> dict:
    """The rows of a CSV export keyed by their first field, which must not repeat."""
    rows = list(_csv_rows(path, cells, convert))
    by_id = {row[0]: row for row in rows}
    if len(by_id) < len(rows):
        raise _repeat_error(path, cells[0][0])
    return by_id


def _repeat_error(path: Path, field: str) -> ValueError:
    """Name the first row of a CSV export whose integer ``field`` an earlier row holds."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        column = next(reader).index(field)
        first_line: dict[int, int] = {}
        for row in reader:
            if row:
                key = int(row[column])
                if key in first_line:
                    return ValueError(f"{path.name}:{reader.line_num}: {field} {key} "
                                      f"repeats line {first_line[key]}")
                first_line[key] = reader.line_num
    return ValueError(f"{path.name}: a {field} repeats")


def load_tables(directory: str | Path) -> PublicTables:
    """Read the three public CSV exports from a directory.

    Blank lines are skipped. A header without a field, a row too short to
    hold a field, or a cell that is not a number where one belongs (empty
    cells included, except an empty ``mayor_id``, which means no mayor)
    raises ``ValueError`` naming ``<file>:<line>: <field>`` and the cell. So
    does a venue ``lat``/``lon`` that is not finite or out of range, a
    ``has_mayor_special`` that is not ``0`` or ``1``, and a ``user_id`` or
    ``venue_id`` that an earlier row of its file holds (naming both lines).
    """
    directory = Path(directory)
    for name in ("UserInfo.csv", "VenueInfo.csv", "RecentCheckin.csv"):
        if not (directory / name).is_file():
            raise MissingTables(f"{name} not found in {directory}")
    users = _by_id(directory / "UserInfo.csv", _USER_CELLS,
                   lambda *cells: UserRow(*map(int, cells)))
    venues = _by_id(directory / "VenueInfo.csv", _VENUE_CELLS, _venue_row)
    recent = list(_csv_rows(directory / "RecentCheckin.csv", _RECENT_CELLS,
                            lambda venue_id, user_id: (int(venue_id), int(user_id))))
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


_scan_json = make_scanner(json.JSONDecoder())  # (value, end) of the JSON value at an index
_event_fields = itemgetter(*EventRow._fields)
_new_event_row = partial(tuple.__new__, EventRow)  # skips EventRow's Python-level __new__


def load_events(path: str | Path) -> list[EventRow]:
    """Read an events.jsonl log, streaming it one line at a time.

    Every non-blank line must be one JSON value, as ``json.loads`` accepts
    it: an object holding every ``EventRow`` key, with integers (not bools)
    for ``t``, ``user_id`` and ``venue_id``, finite numbers in range for
    ``reported_lat`` (+-90) and ``reported_lon`` (+-180), a bool for
    ``valid`` and a list of strings for ``flags``. Anything else raises
    ``ValueError`` naming the file, the line and the key or reason.

    A line as ``write_events`` writes it costs one C-level JSON scan, one
    key lookup and one type test, and shares its flag tuple with earlier
    rows. Every other line, blank or bad ones included, and the first line
    of each flag combination are read by ``_event_row``, which says what the
    log accepts.
    """
    path = Path(path)
    if not path.is_file():
        raise MissingTables(f"event log not found: {path}")
    events: list[EventRow] = []
    append = events.append
    known_flags: dict[tuple, tuple[str, ...]] = {(): ()}  # flag tuples already checked
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                try:
                    obj, end = _scan_json(line, 0)
                    t, user_id, venue_id, lat, lon, valid, flags = _event_fields(obj)
                    flag_tuple = known_flags[tuple(flags)]
                except (StopIteration, ValueError, LookupError, TypeError, RecursionError):
                    pass
                else:
                    if (line[end:] == "\n" and type(t) is int and type(user_id) is int
                            and type(venue_id) is int and type(lat) is float
                            and type(lon) is float and -90.0 <= lat <= 90.0
                            and -180.0 <= lon <= 180.0 and type(valid) is bool
                            and type(flags) is list):
                        append(_new_event_row((t, user_id, venue_id, lat, lon, valid,
                                               flag_tuple)))
                        continue
                row = _event_row(path.name, lineno, line)
                if row is not None:
                    append(row)
                    known_flags.setdefault(row.flags, row.flags)
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path.name}: not UTF-8 text ({exc.reason})") from exc
    return events


def _event_row(name: str, lineno: int, line: str) -> Optional[EventRow]:
    """One events.jsonl line read in full: its row, or None for a blank line.

    The errors for a line the ``json.loads`` reader refused keep its
    messages; the type and range checks name the key.
    """
    if not line.strip():
        return None
    where = f"{name}:{lineno}"
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{where}: not JSON ({exc.msg} at column {exc.colno})") from exc
    except (ValueError, RecursionError) as exc:  # an int past the digit limit, deep nesting
        raise ValueError(f"{where}: {exc}") from exc
    if not isinstance(obj, dict):
        raise ValueError(f"{where}: not a JSON object")
    for key in EventRow._fields:
        if key not in obj:
            raise ValueError(f"{where}: missing key {key!r}")
    t, user_id, venue_id, lat, lon, valid, flags = _event_fields(obj)
    if type(flags) is not list:
        raise ValueError(f"{where}: flags must be a list")
    for key, value in (("t", t), ("user_id", user_id), ("venue_id", venue_id)):
        if type(value) is not int:
            raise ValueError(f"{where}: {key} {value!r} is not an integer")
    for key, value, limit in (("reported_lat", lat, 90.0), ("reported_lon", lon, 180.0)):
        if type(value) not in (int, float) or not -limit <= value <= limit:
            raise ValueError(f"{where}: {key} {value!r} is not a finite number "
                             f"in [-{limit:g}, {limit:g}]")
    if type(valid) is not bool:
        raise ValueError(f"{where}: valid {valid!r} is not true or false")
    if not all(type(f) is str for f in flags):
        raise ValueError(f"{where}: flags must be a list of strings, got {flags!r}")
    return EventRow(t, user_id, venue_id, lat, lon, valid, tuple(flags))


def event_line(path: str | Path, index: int) -> int:
    """Number of the line that holds row ``index`` (from 0) of what
    ``load_events`` read from ``path``: every line but a blank one holds a row."""
    with open(path, encoding="utf-8") as fh:
        lines = (lineno for lineno, line in enumerate(fh, 1) if line.strip())
        return next(islice(lines, index, None))
