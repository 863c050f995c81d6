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
from array import array
from collections.abc import Sequence
from functools import cached_property
from itertools import islice
from operator import itemgetter
from pathlib import Path
from typing import Iterable, NamedTuple, Optional

from .geo import GeoPoint


T_END = 1 << 63  # the log's t column is a signed 64-bit integer
ID_END = 1 << 32  # its user_id and venue_id columns are unsigned 32-bit integers


class MissingTables(Exception):
    """An expected export file is absent."""


class _UnknownId(ValueError):
    """An id that names nothing. ``in_row`` makes one for a log row starting
    with its ``t``, ``user_id`` and ``venue_id``, worded by the subclass's
    ``_IN_ROW``, and ``id`` is the id it names: its row is the first whose
    ``column`` (of a ``CheckInLog``) holds ``id``. Any other has ``id`` None."""

    id: Optional[int] = None

    @classmethod
    def in_row(cls, row: Sequence) -> "_UnknownId":
        t, user_id, venue_id = row[:3]
        exc = cls(cls._IN_ROW.format(t=t, user_id=user_id, venue_id=venue_id))
        exc.id = venue_id if cls.column == "venue_id" else user_id
        return exc


class UnknownVenue(_UnknownId):
    """A venue the world has not registered, or a log row's venue VenueInfo.csv lacks."""

    column = "venue_id"
    _IN_ROW = "venue {venue_id} of user {user_id} at t={t} is not in VenueInfo.csv"


class UnknownUser(_UnknownId):
    """A user the world has not registered, a victim the tables lack, or a log
    row's user UserInfo.csv lacks."""

    column = "user_id"
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


def _user_row(values: list) -> UserRow:
    _, total, _, _, recent = values
    if recent > total:
        raise ValueError(f"recent_checkins {recent} exceeds total_checkins {total}")
    return UserRow._make(values)


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
    held it), a row ``make`` refuses (with its reason), or a line the csv
    module refuses. Bytes that are not UTF-8 name ``<file>``.
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
                try:
                    rows.append(make(values))
                except ValueError as exc:  # a row whose cells disagree with each other
                    raise ValueError(f"{path.name}:{reader.line_num}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path.name}: not UTF-8 text ({exc.reason})") from exc
    except csv.Error as exc:
        raise ValueError(f"{path.name}:{reader.line_num}: {exc}") from exc
    return dict(zip(first_line, rows)) if keyed else rows


def load_tables(directory: str | Path) -> PublicTables:
    """Read the three public CSV exports from a directory, each in one pass
    that raises ``ValueError`` for its first problem in file order (see
    ``_csv_rows``). Every cell is a number but a venue's ``name``; an empty
    ``mayor_id`` means no mayor; a venue ``lat``/``lon`` is finite and in
    range, and ``has_mayor_special`` ``0`` or ``1``; a ``user_id`` or
    ``venue_id`` holds one row of its file; and a UserInfo row's
    ``recent_checkins`` does not exceed its ``total_checkins``.
    """
    directory = Path(directory)
    for name in ("UserInfo.csv", "VenueInfo.csv", "RecentCheckin.csv"):
        if not (directory / name).is_file():
            raise MissingTables(f"{name} not found in {directory}")
    return PublicTables(_csv_rows(directory / "UserInfo.csv", _USER_CELLS, _user_row, True),
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


class CheckInLog(Sequence):
    """The check-in log as events.jsonl holds it, ``World.events`` and what
    ``load_events`` returns: one value per row in each of six ``array``
    columns, ``t`` (int64), ``user_id`` and ``venue_id`` (uint32),
    ``reported_lat`` and ``reported_lon`` (floats) and ``outcome`` (uint32),
    an index into ``outcomes``, the rows' ``(valid, flags)`` pairs in order
    of first use (outcome 0 is ``(True, ())``). As a read-only sequence,
    item ``i`` is row ``i``'s ``EventRow``, built when asked for."""

    def __init__(self) -> None:
        self.columns = tuple(map(array, "qIIddI"))
        (self.t, self.user_id, self.venue_id, self.reported_lat, self.reported_lon,
         self.outcome) = self.columns
        self.outcomes: list[tuple[bool, tuple[str, ...]]] = [(True, ())]
        self._outcome_of: dict[tuple, int] = {(True, ()): 0}

    def outcome_of(self, valid: bool, flags: tuple[str, ...]) -> int:
        """The index of the outcome ``(valid, flags)``, added to ``outcomes`` if new."""
        outcome = self._outcome_of.get((valid, flags))
        if outcome is None:
            outcome = self._outcome_of[valid, flags] = len(self.outcomes)
            self.outcomes.append((valid, flags))
        return outcome

    def append(self, t: int, user_id: int, venue_id: int, lat: float, lon: float,
               outcome: int) -> None:
        """Add one row; a value no column holds raises and adds nothing."""
        try:
            self.t.append(t)
            self.user_id.append(user_id)
            self.venue_id.append(venue_id)
            self.reported_lat.append(lat)
            self.reported_lon.append(lon)
            self.outcome.append(outcome)
        except (TypeError, OverflowError):
            for column in self.columns:  # the last column holds the rows before this one
                del column[len(self.outcome):]
            raise

    def __len__(self) -> int:
        return len(self.t)

    def __getitem__(self, i: int) -> EventRow:
        return EventRow(self.t[i], self.user_id[i], self.venue_id[i], self.reported_lat[i],
                        self.reported_lon[i], *self.outcomes[self.outcome[i]])


# The start of an events.jsonl line as json.dumps(row._asdict(),
# separators=(",", ":")) writes it; ``%r`` writes a float as json does.
_EVENT_HEAD = '{"t":%d,"user_id":%d,"venue_id":%d,"reported_lat":%r,"reported_lon":%r,"valid":'
_encode_json = json.JSONEncoder(separators=(",", ":")).encode


def write_events(log: CheckInLog, path: str | Path) -> Path:
    """Write a check-in log as the events.jsonl that ``load_events`` reads:
    per row, byte-equal to the compact JSON encoding of its ``EventRow``."""
    with _open_events(path) as fh:
        _write_event_lines(log, fh)
    return Path(path)


def _open_events(path: str | Path):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    return open(path, "w", encoding="utf-8")


def _write_event_lines(log: CheckInLog, fh) -> None:
    """Write the log's lines to ``fh``, formatted from the columns by one
    format per outcome."""
    formats = [_EVENT_HEAD + _encode_json(valid) + ',"flags":'
               + _encode_json(flags).replace("%", "%%") + "}\n"
               for valid, flags in log.outcomes]
    line_formats = map(formats.__getitem__, log.outcome)
    fh.writelines(map(str.__mod__, line_formats, zip(
        log.t, log.user_id, log.venue_id, log.reported_lat, log.reported_lon)))


# A log of at least this many rows is written by a forked child while its
# caller goes on; below it the fork and the wait cost more than they save.
_FORK_ROWS = 4096


def fork_event_writer(log: CheckInLog, path: str | Path) -> Optional[int]:
    """Open ``path`` for the events.jsonl of ``log`` and, when the log has
    ``_FORK_ROWS`` rows or more and ``_may_fork``, fork a child that writes
    it as ``write_events`` does and exits; return the child's pid, which the
    caller must wait for (``exit_code``). Return None, having written
    nothing, below the gate, without fork, or when ``os.fork`` fails. A path
    that cannot be opened raises here, as ``write_events`` would."""
    import os
    if len(log) < _FORK_ROWS or not _may_fork():
        return None
    with _open_events(path) as fh:
        try:
            pid = os.fork()
        except OSError:
            return None
        if pid == 0:  # the child: never returns
            try:
                _write_event_lines(log, fh)
                fh.close()
                os._exit(0)
            finally:  # reached on an error only
                os._exit(1)
    return pid


def exit_code(pid: int) -> int:
    """Wait for the child ``pid``: its exit code, or minus the signal that ended it."""
    import os
    return os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])


# Block reader for events.jsonl. One row as write_events writes it: an int
# is at most 18 ASCII digits, and a coordinate has a fraction or an exponent
# (a JSON-int coordinate is left to _event_row). The pattern matches only at
# a line start and never crosses a "\n", so a block whose match count
# equals its line count has every line taken.
_BLOCK_CHARS = 64 * 1024
_INT_TOKEN = r"(-?(?:0|[1-9][0-9]{0,17}))"
_FLOAT_TOKEN = r"(-?(?:0|[1-9][0-9]*)(?:\.[0-9]+(?:[eE][-+]?[0-9]+)?|[eE][-+]?[0-9]+))"
_ROW_PATTERN = re.compile(
    r'^\{"t":%s,"user_id":%s,"venue_id":%s,"reported_lat":%s,"reported_lon":%s,'
    r'("valid":(?:true|false),"flags":\[[^\n]*\])\}\n'
    % (_INT_TOKEN, _INT_TOKEN, _INT_TOKEN, _FLOAT_TOKEN, _FLOAT_TOKEN), re.MULTILINE)
_event_fields = itemgetter(*EventRow._fields)


# A log of at least this many bytes is read in two parts, the later one by a
# forked child; below it the fork costs more than the second CPU saves.
_SPLIT_BYTES = 512 * 1024


def load_events(path: str | Path) -> CheckInLog:
    """Read an events.jsonl log into a ``CheckInLog``, in blocks of 64 Ki
    characters, each completed to its line end.

    Every non-blank line must be one JSON value, as ``json.loads`` accepts
    it: an object holding every ``EventRow`` key, with integers (not bools)
    that fit their columns for ``t``, ``user_id`` and ``venue_id``, finite
    numbers in range for ``reported_lat`` (+-90) and ``reported_lon``
    (+-180), a bool for ``valid`` and a list of strings for ``flags``.
    Anything else raises ``ValueError`` naming the file, the line and the
    key or reason.

    Lines end at ``"\\n"``, as file iteration splits them. ``_take_block``
    takes a block's lines by one pattern; a block it refuses, and the block
    ending in a last line without ``"\\n"``, is read line by line by
    ``_event_row``, which says what the log accepts.

    A log of ``_SPLIT_BYTES`` or more is read in two processes when
    ``_may_fork`` (see ``_read_in_two``), with the rows, the outcomes and
    every error message of a read in one.
    """
    path = Path(path)
    if not path.is_file():
        raise MissingTables(f"event log not found: {path}")
    log, size = CheckInLog(), path.stat().st_size
    try:
        with open(path, "rb") as fh:
            fd = fh.fileno()
            split = _split_offset(fd, size) if size >= _SPLIT_BYTES and _may_fork() else size
            if split < size:
                _read_in_two(log, path.name, fd, split, size)
            else:
                _read_part(log, path.name, fd, 0, size, 0)
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path.name}: not UTF-8 text ({exc.reason})") from exc
    return log


def _may_fork() -> bool:
    """Whether ``os.fork`` exists, no other thread runs and two CPUs are usable."""
    import os
    import threading
    cpus = getattr(os, "sched_getaffinity", lambda pid: range(os.cpu_count() or 1))(0)
    return hasattr(os, "fork") and threading.active_count() == 1 and len(cpus) > 1


def _split_offset(fd: int, size: int) -> int:
    """The offset after the first ``"\\n"`` of the block at the file's middle, or ``size``."""
    import os
    end = os.pread(fd, _BLOCK_CHARS, size // 2).find(b"\n")
    return size if end < 0 else size // 2 + end + 1


class _Window(io.RawIOBase):
    """Bytes ``[start, stop)`` of the file open at ``fd``, read by ``os.pread``."""

    def __init__(self, fd: int, start: int, stop: int) -> None:
        from os import pread
        self._pread, self._fd, self._at, self._stop = pread, fd, start, stop

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        data = self._pread(self._fd, min(len(buffer), self._stop - self._at), self._at)
        buffer[:len(data)] = data
        self._at += len(data)
        return len(data)


def _read_part(log: CheckInLog, name: str, fd: int, start: int, stop: int, lineno: int) -> int:
    """Append to ``log`` the rows of bytes ``[start, stop)`` of the log ``name``
    open at ``fd``, from line ``lineno + 1``; return its last line's number."""
    outcome_of = {'"valid":true,"flags":[]': 0}  # outcome texts already read
    with io.TextIOWrapper(_Window(fd, start, stop), encoding="utf-8") as fh:
        while block := fh.read(_BLOCK_CHARS):
            block += fh.readline()  # the rest of the line the read cut
            lines = block.count("\n") + (block[-1] != "\n")
            if not _take_block(block, lines, log, outcome_of):
                for n, line in enumerate(io.StringIO(block), lineno + 1):
                    _event_row(log, name, n, line)
            lineno += lines
    return lineno


def _read_in_two(log: CheckInLog, name: str, fd: int, split: int, size: int) -> None:
    """Read bytes ``[0, split)`` into ``log`` while a forked child reads
    ``[split, size)`` and sends its row count, outcomes and columns; append
    its rows, outcomes renumbered by ``log.outcome_of``. A child refusing its
    part sends nothing, and the part is read again here for the error. An
    error here kills the child, which is always waited for."""
    import os
    receive, send = os.pipe()
    with open(receive, "rb") as pipe, open(send, "wb") as out:
        if (pid := os.fork()) == 0:  # the child: never returns
            try:
                pipe.close()  # so a write fails, not blocks, once the parent is gone
                part = CheckInLog()
                _read_part(part, name, fd, split, size, 0)
                out.write(json.dumps([len(part), part.outcomes]).encode() + b"\n")
                for column in part.columns:
                    column.tofile(out)
                out.flush()
                os._exit(0)
            finally:  # reached on an error only
                os._exit(1)
        out.close()
        outcome = array("I")
        try:
            lines = _read_part(log, name, fd, 0, split, 0)
            if sent := pipe.readline():
                rows, outcomes = json.loads(sent)
                for column in (*log.columns[:5], outcome):
                    column.fromfile(pipe, rows)
        except EOFError:
            raise ValueError(f"{name}: the process reading its later part stopped sending") from None
        except BaseException:
            os.kill(pid, 9)  # SIGKILL
            raise
        finally:
            code = exit_code(pid)
    if code < 0:
        raise ValueError(f"{name}: the process reading its later part ended by signal {-code}")
    if not sent:
        _read_part(log, name, fd, split, size, lines)
        return
    number = [log.outcome_of(valid, tuple(flags)) for valid, flags in outcomes]
    log.outcome.extend(outcome if number == list(range(len(number)))
                       else array("I", map(number.__getitem__, outcome)))


def _take_block(block: str, lines: int, log: CheckInLog, outcome_of: dict) -> bool:
    """Append to ``log`` the rows of a block of ``lines`` lines that all match
    ``_ROW_PATTERN``, with values their columns hold and flags texts that are
    lists of strings; False, adding no row, when one does not (the outcomes
    registered by then are the block's first new ones, as the line reader's)."""
    rows = _ROW_PATTERN.findall(block)
    if len(rows) != lines:
        return False
    t, user_id, venue_id, lat, lon, outcome = zip(*rows)
    lat = array("d", map(float, lat))
    lon = array("d", map(float, lon))
    if not (-90.0 <= min(lat) and max(lat) <= 90.0
            and -180.0 <= min(lon) and max(lon) <= 180.0):
        return False
    try:
        user_id = array("I", map(int, user_id))
        venue_id = array("I", map(int, venue_id))
    except OverflowError:  # an id below 0 or from ID_END on
        return False
    for text in dict.fromkeys(outcome):  # in order of first use
        if text not in outcome_of:
            valid, _, flags = text.partition(',"flags":')
            try:
                flags = json.loads(flags)
            except (ValueError, RecursionError):
                return False
            if type(flags) is not list or not all(type(f) is str for f in flags):
                return False
            outcome_of[text] = log.outcome_of(valid == '"valid":true', tuple(flags))
    outcome = array("I", map(outcome_of.__getitem__, outcome))
    for column, values in zip(log.columns, (map(int, t), user_id, venue_id, lat, lon, outcome)):
        column.extend(values)
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


def _event_row(log: CheckInLog, name: str, lineno: int, line: str) -> None:
    """Append the row of one events.jsonl line, read in full, to ``log``; a
    blank line adds none.

    The errors for a line the ``json.loads`` reader refused keep its
    messages; the type and range checks name the key. A ``t``, ``user_id``
    and ``venue_id`` must fit its column.
    """
    if not line.strip():
        return
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
        if not 0 <= value < ID_END:
            raise ValueError(f"{where}: {key} {value} is not in [0, 2**32)")
    for key, value, limit in (("reported_lat", lat, 90.0), ("reported_lon", lon, 180.0)):
        if type(value) not in (int, float) or not -limit <= value <= limit:
            raise ValueError(f"{where}: {key} {value!r} is not a finite number "
                             f"in [-{limit:g}, {limit:g}]")
    if type(valid) is not bool:
        raise ValueError(f"{where}: valid {valid!r} is not true or false")
    if not all(type(f) is str for f in flags):
        raise ValueError(f"{where}: flags must be a list of strings, got {flags!r}")
    log.append(t, user_id, venue_id, lat, lon, log.outcome_of(valid, tuple(flags)))


def event_line(path: str | Path, index: int) -> int:
    """Number of the line that holds row ``index`` (from 0) of what
    ``load_events`` read from ``path``: every line but a blank one holds a row."""
    with open(path, encoding="utf-8") as fh:
        lines = (lineno for lineno, line in enumerate(fh, 1) if line.strip())
        return next(islice(lines, index, None))
