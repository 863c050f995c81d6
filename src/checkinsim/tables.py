"""Public-profile table model: the crawlable projection of a world.

Owns the CSV export format (UserInfo, VenueInfo, RecentCheckin) and the
events.jsonl log format: writes them and reads them back, for consumption by
the attacker planner and the offline detectors. The readers check every
cell's type and range and name ``<file>:<line>`` and the field of the first
bad one, so a damaged export fails loudly instead of skewing a report.
"""

from __future__ import annotations

import csv
import io
import json
import re
from functools import cached_property, partial
from itertools import islice
from operator import itemgetter
from pathlib import Path
from typing import Iterable, NamedTuple, Optional, Sequence

from .geo import GeoPoint


T_END = 1 << 63  # the log's t column is a signed 64-bit integer


class MissingTables(Exception):
    """An expected export file is absent."""


class _UnknownId(ValueError):
    """An id that names nothing. ``in_row`` makes one for a log row, which
    starts with its ``t``, ``user_id`` and ``venue_id`` as an ``EventRow``
    does: its message is the subclass's ``_IN_ROW`` formatted with those,
    and it keeps the row as ``event``; any other has ``event`` None."""

    event: Optional[Sequence] = None

    @classmethod
    def in_row(cls, event: Sequence) -> "_UnknownId":
        t, user_id, venue_id = event[:3]
        exc = cls(cls._IN_ROW.format(t=t, user_id=user_id, venue_id=venue_id))
        exc.event = event
        return exc


class UnknownVenue(_UnknownId):
    """A venue the world has not registered, or a log row's venue VenueInfo.csv lacks."""

    _IN_ROW = "venue {venue_id} of user {user_id} at t={t} is not in VenueInfo.csv"


class UnknownUser(_UnknownId):
    """A user the world has not registered, a victim the tables lack, or a log
    row's user UserInfo.csv lacks."""

    _IN_ROW = "user {user_id} at t={t} is not in UserInfo.csv"


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


class EventRow(NamedTuple):
    t: int
    user_id: int
    venue_id: int
    reported_lat: float
    reported_lon: float
    valid: bool
    flags: tuple[str, ...]


class PublicTables:
    def __init__(self, users: dict[int, UserRow], venues: dict[int, VenueRow],
                 recent: list[tuple[int, int]]) -> None:  # recent: (venue_id, user_id)
        self.users, self.venues, self.recent = users, venues, recent

    def __eq__(self, other) -> bool:
        return isinstance(other, PublicTables) and \
            (self.users, self.venues, self.recent) == (other.users, other.venues, other.recent)

    @cached_property
    def venue_points(self) -> dict[int, GeoPoint]:
        """Each venue's ``GeoPoint``, built once: every check-in at a venue shares it."""
        return {venue_id: v.location for venue_id, v in self.venues.items()}


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


def _csv_rows(path: Path, cells, make, keyed: bool = False):
    """The data rows of a CSV export, each ``make([value, ...])`` of its cells
    parsed in ``cells`` order from the header's columns, in one pass; blank
    lines are skipped. ``keyed`` gives a dict by the first field, which must
    not repeat, and a list otherwise.

    The first problem in file order raises ``ValueError`` naming
    ``<file>:<line>``: a header without one of the fields, a row too short
    to hold a field, a cell its parser refuses (the first of the row in
    ``cells`` order, with the cell), a repeated key (with the line that first
    held it), or a line the csv module refuses. Bytes that are not UTF-8 name
    ``<file>``.
    """
    rows: list = []
    first_line: dict = {}
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, [])
            for field, _, _ in cells:
                if field not in header:
                    raise ValueError(f"{path.name}:1: missing column {field!r}")
            parsers = [(parse, header.index(field)) for field, parse, _ in cells]
            for row in reader:
                if not row:
                    continue
                values: list = []
                try:
                    for parse, column in parsers:
                        values.append(parse(row[column]))
                except (IndexError, ValueError, KeyError) as exc:  # at cell len(values)
                    (field, _, what), (_, column) = cells[len(values)], parsers[len(values)]
                    problem = (f"is missing (the row has {len(row)} cells)"
                               if isinstance(exc, IndexError) else f"{row[column]!r} is not {what}")
                    raise ValueError(f"{path.name}:{reader.line_num}: {field} {problem}") from None
                if keyed:
                    key = values[0]
                    if key in first_line:
                        raise ValueError(f"{path.name}:{reader.line_num}: {cells[0][0]} {key} "
                                         f"repeats line {first_line[key]}")
                    first_line[key] = reader.line_num
                rows.append(make(values))
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path.name}: not UTF-8 text ({exc.reason})") from exc
    except csv.Error as exc:
        raise ValueError(f"{path.name}:{reader.line_num}: {exc}") from exc
    return dict(zip(first_line, rows)) if keyed else rows


def load_tables(directory: str | Path) -> PublicTables:
    """Read the three public CSV exports from a directory, each in one pass
    that stops at its first problem in file order (see ``_csv_rows``).

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
    return PublicTables(_csv_rows(directory / "UserInfo.csv", _USER_CELLS, UserRow._make, True),
                        _csv_rows(directory / "VenueInfo.csv", _VENUE_CELLS, VenueRow._make, True),
                        _csv_rows(directory / "RecentCheckin.csv", _RECENT_CELLS, tuple))


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
                             v.total_checkins, v.unique_visitors, v.mayor_id, v.has_mayor_special)
        for v in world.venues
    }
    return PublicTables(users, venues, recent)


# The start of an events.jsonl line as json.dumps(row._asdict(),
# separators=(",", ":")) writes it; ``%r`` writes a float as json does.
_EVENT_HEAD = '{"t":%d,"user_id":%d,"venue_id":%d,"reported_lat":%r,"reported_lon":%r,"valid":'
_encode_json = json.JSONEncoder(separators=(",", ":")).encode


def write_events(log, path: str | Path) -> Path:
    """Write a world's check-in log (``world.CheckInLog``) as the events.jsonl
    that ``load_events`` reads: per row (t, user_id, venue_id, reported lat
    and lon, and its outcome's accepted and flags), byte-equal to the compact
    JSON encoding of that row. The lines are formatted from the columns, by
    one format per outcome."""
    formats = [_EVENT_HEAD + _encode_json(accepted) + ',"flags":'
               + _encode_json(flags).replace("%", "%%") + "}\n"
               for _, accepted, flags in log.outcomes]
    line_formats = map(formats.__getitem__, log.outcome)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(map(str.__mod__, line_formats, zip(
            log.t, log.user_id, log.venue_id, log.reported_lat, log.reported_lon)))
    return path


# Block reader for events.jsonl. One row as write_events writes it: an int
# is at most 18 ASCII digits, and a coordinate has a fraction or an exponent
# (a JSON-int coordinate stays an int, which only _event_row reads). The
# pattern matches only at a line start and never crosses a "\n", so a block
# whose match count equals its line count has every line taken.
_BLOCK_CHARS = 64 * 1024
_INT_TOKEN = r"(-?(?:0|[1-9][0-9]{0,17}))"
_FLOAT_TOKEN = r"(-?(?:0|[1-9][0-9]*)(?:\.[0-9]+(?:[eE][-+]?[0-9]+)?|[eE][-+]?[0-9]+))"
_ROW_PATTERN = re.compile(
    r'^\{"t":%s,"user_id":%s,"venue_id":%s,"reported_lat":%s,"reported_lon":%s,'
    r'"valid":(true|false),"flags":(\[[^\n]*\])\}\n'
    % (_INT_TOKEN, _INT_TOKEN, _INT_TOKEN, _FLOAT_TOKEN, _FLOAT_TOKEN), re.MULTILINE)
_new_event_row = partial(tuple.__new__, EventRow)  # skips EventRow's Python-level __new__
_event_fields = itemgetter(*EventRow._fields)


def load_events(path: str | Path) -> list[EventRow]:
    """Read an events.jsonl log in blocks of 64 Ki characters, each completed
    to its line end.

    Every non-blank line must be one JSON value, as ``json.loads`` accepts
    it: an object holding every ``EventRow`` key, with integers (not bools)
    for ``t``, ``user_id`` and ``venue_id``, finite numbers in range for
    ``reported_lat`` (+-90) and ``reported_lon`` (+-180), a bool for
    ``valid`` and a list of strings for ``flags``. Anything else raises
    ``ValueError`` naming the file, the line and the key or reason.

    Lines end at ``"\\n"``, as file iteration splits them. The lines of a
    block are taken by one compiled pattern of the line that
    ``write_events`` writes; their columns are converted with ``int`` and
    ``float``, the coordinates range-checked by the block's minimum and
    maximum, and each flags text maps to a tuple that is shared by every row
    holding it. A block with a line the pattern does not take, a coordinate
    out of range or a flags text that is not a list of strings is read line
    by line by ``_event_row``, which says what the log accepts, and so is the
    block ending in a last line without ``"\\n"``.
    """
    path = Path(path)
    if not path.is_file():
        raise MissingTables(f"event log not found: {path}")
    events: list[EventRow] = []
    flag_tuples: dict[str, tuple[str, ...]] = {"[]": ()}  # flags texts already checked
    lineno = 0  # lines before the block
    try:
        with open(path, encoding="utf-8") as fh:
            while block := fh.read(_BLOCK_CHARS):
                block += fh.readline()  # the rest of the line the read cut
                lines = block.count("\n") + (block[-1] != "\n")
                if not _take_block(block, lines, flag_tuples, events):
                    for n, line in enumerate(io.StringIO(block), lineno + 1):
                        if (row := _event_row(path.name, n, line)) is not None:
                            events.append(row)
                lineno += lines
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path.name}: not UTF-8 text ({exc.reason})") from exc
    return events


def _take_block(block: str, lines: int, flag_tuples: dict, events: list) -> bool:
    """Append the rows of a block of ``lines`` lines that all match
    ``_ROW_PATTERN``, with coordinates in range and flags texts that are lists
    of strings; False, appending nothing, when one does not."""
    rows = _ROW_PATTERN.findall(block)
    if len(rows) != lines:
        return False
    t, user_id, venue_id, lat, lon, valid, flags = zip(*rows)
    lat = list(map(float, lat))
    lon = list(map(float, lon))
    if not (-90.0 <= min(lat) and max(lat) <= 90.0
            and -180.0 <= min(lon) and max(lon) <= 180.0):
        return False
    try:
        flags = list(map(flag_tuples.__getitem__, flags))
    except KeyError:
        for text in set(flags).difference(flag_tuples):
            try:
                value = json.loads(text)
            except (ValueError, RecursionError):
                return False
            if not (type(value) is list and all(type(f) is str for f in value)):
                return False
            flag_tuples[text] = tuple(value)
        flags = list(map(flag_tuples.__getitem__, flags))
    events.extend(map(_new_event_row, zip(map(int, t), map(int, user_id), map(int, venue_id),
                                          lat, lon, map("true".__eq__, valid), flags)))
    return True


def json_object(where: str, line: str, keys: Sequence[str] = ()) -> dict:
    """The JSON object one line holds, with every key of ``keys``. Anything
    else raises ``ValueError`` starting ``<where>: ``: ``not JSON (...)``,
    ``not a JSON object`` or ``missing key '<key>'``."""
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{where}: not JSON ({exc.msg} at column {exc.colno})") from exc
    except (ValueError, RecursionError) as exc:  # an int past the digit limit, deep nesting
        raise ValueError(f"{where}: {exc}") from exc
    if not isinstance(obj, dict):
        raise ValueError(f"{where}: not a JSON object")
    for key in keys:
        if key not in obj:
            raise ValueError(f"{where}: missing key {key!r}")
    return obj


def _event_row(name: str, lineno: int, line: str) -> Optional[EventRow]:
    """One events.jsonl line read in full: its row, or None for a blank line.

    The errors for a line the ``json.loads`` reader refused keep its
    messages; the type and range checks name the key. A ``t`` must fit the
    log's int64 column.
    """
    if not line.strip():
        return None
    where = f"{name}:{lineno}"
    t, user_id, venue_id, lat, lon, valid, flags = _event_fields(
        json_object(where, line, EventRow._fields))
    if type(flags) is not list:
        raise ValueError(f"{where}: flags must be a list")
    if type(t) is not int or not -T_END <= t < T_END:
        raise ValueError(f"{where}: t {t!r} is not an integer in [-2**63, 2**63)")
    for key, value in (("user_id", user_id), ("venue_id", venue_id)):
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
