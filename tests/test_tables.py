"""The events.jsonl writer, the readers, and their errors for malformed exports."""

import itertools
from array import array
import json
import math
import random
import shutil
import struct
from pathlib import Path

import pytest

from checkinsim import UnknownUser, UnknownVenue, World, plan_mayor_denial
from checkinsim.analytics import build_report
from checkinsim.anticheat import Flag, RuleConfig, RuleVerdict, offline_verdicts
from checkinsim.cli import main
from checkinsim.geo import GeoPoint
from checkinsim.tables import (CheckInLog, EventRow, load_events, load_tables, tables_from_world,
                               write_events)
from checkinsim.world import CheckInRecord
from oracles import encode_event_line, event_row, json_load_events, log_of_rows

GOLDEN = Path(__file__).parent / "data" / "golden"
HOME = GeoPoint(40.0, -100.0)


def record(t=100, lat=40.0, lon=-100.0, flags=(), accepted=None, user_id=7, venue_id=3):
    verdict = RuleVerdict(not flags, tuple(flags))
    if accepted is None:
        accepted = verdict.valid
    return CheckInRecord(t, user_id, venue_id, GeoPoint(lat, lon), HOME, verdict,
                         None, accepted)


def log_of(records):
    return log_of_rows(map(event_row, records))


def random_float(rng):
    """A finite float from random bits: any exponent, sign and mantissa."""
    while True:
        x = struct.unpack("<d", rng.getrandbits(64).to_bytes(8, "little"))[0]
        if math.isfinite(x):
            return x


def records_under_test():
    rules = list(Flag)
    out = []
    # every combination of rule flags; a rule-valid row accepted or refused
    # for presence; and a flagged row marked accepted, which no world makes
    for n in range(len(rules) + 1):
        for flags in itertools.permutations(rules, n):
            out.append(record(flags=flags))
    out.append(record(accepted=False))
    out.append(record(flags=(Flag.GPS_MISMATCH,), accepted=True))
    for lat, lon in [(-33.8688, 151.2093), (-0.0, -0.0), (0.0, 0.0), (1e-05, -1e-05),
                     (40, -100), (-90, 180), (90.0, -180.0), (5e-324, -2.5e-310),
                     (12.345678901234567, -98.76543210987654), (1e16, 1.5e300)]:
        out.append(record(lat=lat, lon=lon))
        out.append(record(lat=lat, lon=lon, accepted=False))
    # the log's t column holds any signed 64-bit integer
    for t in (0, 1, -4, 2**53 + 1, 2**63 - 1, -2**63):
        out.append(record(t=t))
    rng = random.Random(6)
    for _ in range(3000):
        out.append(record(t=rng.choice([rng.randrange(10**9), rng.randrange(-2**63, 2**63)]),
                          lat=random_float(rng), lon=rng.uniform(-180.0, 180.0),
                          flags=rng.sample(rules, rng.randrange(3)),
                          accepted=rng.choice([True, False, None]),
                          user_id=rng.randrange(1, 10**6), venue_id=rng.randrange(1, 10**5)))
    return out


class TestWriteEvents:
    def test_lines_match_json_encoder(self, tmp_path):
        records = records_under_test()
        path = write_events(log_of(records), tmp_path / "events.jsonl")
        # the log holds float coordinates, so an int 40 is written as 40.0
        expected = "".join(encode_event_line(r._replace(reported_gps=GeoPoint(*map(
            float, r.reported_gps)))) for r in records)
        assert path.read_text(encoding="utf-8") == expected
        assert "-0.0," in expected and "1e-05," in expected
        assert '"reported_lat":40.0,"reported_lon":-100.0,' in expected
        assert '"reported_lat":-90.0,"reported_lon":180.0,' in expected
        assert '"t":9223372036854775807,' in expected and '"t":-9223372036854775808,' in expected
        assert '"PresenceUnverified"' in expected

    def test_empty_log(self, tmp_path):
        assert write_events(CheckInLog(), tmp_path / "events.jsonl").read_bytes() == b""


def write_log(tmp_path, lines):
    path = tmp_path / "events.jsonl"
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return path


GOOD_ROW = ('{"t":1,"user_id":2,"venue_id":3,"reported_lat":40.0,"reported_lon":-100.0,'
            '"valid":true,"flags":[]}')


class TestLoadEventsErrors:
    BAD_LINES = [
        ("garbage", "events.jsonl:3: not JSON (Expecting value at column 1)"),
        ('{"t": 1', "events.jsonl:3: not JSON"),
        ('{"t": 1}', "events.jsonl:3: missing key 'user_id'"),
        (GOOD_ROW.replace('"valid":true,', ""), "events.jsonl:3: missing key 'valid'"),
        (GOOD_ROW.replace('"flags":[]', '"flags":7'), "events.jsonl:3: flags must be a list"),
        (GOOD_ROW.replace('"flags":[]', '"flags":null'), "events.jsonl:3: flags must be a list"),
        ("[1, 2, 3]", "events.jsonl:3: not a JSON object"),
        ("17", "events.jsonl:3: not a JSON object"),
        ('"row"', "events.jsonl:3: not a JSON object"),
        ("null", "events.jsonl:3: not a JSON object"),
        (GOOD_ROW + " x", "events.jsonl:3: not JSON (Extra data at column 100)"),
        (GOOD_ROW.replace('"user_id":2', '"user_id":"2"'), "events.jsonl:3: user_id '2' "),
        (GOOD_ROW.replace('"t":1', '"t":1.0'), "events.jsonl:3: t 1.0 "),
        (GOOD_ROW.replace('"venue_id":3', '"venue_id":true'), "events.jsonl:3: venue_id True "),
        (GOOD_ROW.replace("40.0", "NaN"), "events.jsonl:3: reported_lat nan "),
        (GOOD_ROW.replace("-100.0", "-Infinity"), "events.jsonl:3: reported_lon -inf "),
        (GOOD_ROW.replace("-100.0", "-180.5"), "events.jsonl:3: reported_lon -180.5 "),
        (GOOD_ROW.replace("40.0", '"40.0"'), "events.jsonl:3: reported_lat '40.0' "),
        (GOOD_ROW.replace('"valid":true', '"valid":1'), "events.jsonl:3: valid 1 "),
        (GOOD_ROW.replace('"flags":[]', '"flags":"GpsMismatch"'),
         "events.jsonl:3: flags must be a list"),
        (GOOD_ROW.replace('"flags":[]', '"flags":[7]'),
         "events.jsonl:3: flags must be a list of strings"),
    ]

    @pytest.mark.parametrize("bad, reason", BAD_LINES)
    def test_bad_line_names_file_and_line(self, tmp_path, bad, reason):
        # line 2 is blank: line numbers count every line of the file
        path = write_log(tmp_path, [GOOD_ROW, "", bad, GOOD_ROW])
        with pytest.raises(ValueError) as err:
            load_events(path)
        assert str(err.value).startswith(reason)

    def test_undecodable_bytes(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_bytes(GOOD_ROW.encode() + b"\n\xff\xfe\n")
        with pytest.raises(ValueError, match="events.jsonl: not UTF-8 text"):
            load_events(path)

    def test_good_rows_load(self, tmp_path):
        rows = load_events(write_log(tmp_path, [GOOD_ROW, "", GOOD_ROW]))
        assert len(rows) == 2 and rows[0].flags == () and rows[0].valid is True
        assert type(rows[0]) is EventRow

    def test_last_line_without_newline(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text(GOOD_ROW + "\n" + GOOD_ROW + " \t", encoding="utf-8")
        assert list(load_events(path)) == json_load_events(path) != []


def well_typed(obj):
    """Whether a decoded events.jsonl object holds the types the log promises."""
    t, user_id, venue_id, lat, lon, valid, flags = (obj[key] for key in EventRow._fields)
    return (all(type(v) is int for v in (t, user_id, venue_id))
            and all(type(v) in (int, float) for v in (lat, lon))
            and -90 <= lat <= 90 and -180 <= lon <= 180 and type(valid) is bool
            and type(flags) in (list, tuple) and all(type(f) is str for f in flags))


WRONG_VALUES = {
    "t": ["31", 31.0, True, None, [31], 1e400],
    "user_id": ["204", 2.5, False, None, {}],
    "venue_id": ["33", 33.0, True, None],
    "reported_lat": ["38.5", True, None, float("nan"), float("inf"), -90.000001, 1e300, 7],
    "reported_lon": ["-109", False, None, float("-inf"), 180.5, -1e16, 0],
    "valid": [1, 0, "true", None, []],
    "flags": ["GpsMismatch", "", {}, ["GpsMismatch", 3], [None], {"a": 1}, 7, None, [[]]],
}


def lines_under_test():
    """Seeded events.jsonl lines: the golden rows as written and rewritten,
    every bad-line case above, and wrong-typed and non-finite values."""
    rng = random.Random(7)
    golden = (GOLDEN / "events.jsonl").read_text(encoding="utf-8").splitlines()
    lines = list(golden[:200])
    lines += [bad for bad, _ in TestLoadEventsErrors.BAD_LINES]
    lines += ["", " ", "\t", "\x0c", "\ufeff" + GOOD_ROW, " " + GOOD_ROW, GOOD_ROW + "  ",
              GOOD_ROW + "\r", GOOD_ROW[:-1], GOOD_ROW + "}", GOOD_ROW + GOOD_ROW, "{}",
              GOOD_ROW.replace('"t":1', '"t":1,"t":"x"'), GOOD_ROW.replace("}", ',"extra":1}')]
    for line in rng.sample(golden, 300):
        obj = json.loads(line)
        items = list(obj.items())
        rng.shuffle(items)  # reordered keys, with and without spaces
        lines.append(json.dumps(dict(items), separators=rng.choice([(",", ":"), (", ", ": ")])))
        key = rng.choice(list(WRONG_VALUES))
        obj[key] = rng.choice(WRONG_VALUES[key])
        lines.append(json.dumps(obj))
        dropped = dict(obj)
        del dropped[rng.choice(list(dropped))]
        lines.append(json.dumps(dropped))
        cut = rng.randrange(len(line))
        lines.append(line[:cut])
        lines.append("\t " + line.replace(",", rng.choice([", ", " ,\t", ",\n"]), 1))
    return lines


class TestLoadEventsMatchesOracle:
    """The streaming reader against the json.loads reader in tests/oracles.py."""

    def test_golden_log(self):
        rows = list(load_events(GOLDEN / "events.jsonl"))
        assert rows == json_load_events(GOLDEN / "events.jsonl")
        assert all(type(row) is EventRow and well_typed(row._asdict()) for row in rows)

    def test_seeded_lines(self, tmp_path):
        path = tmp_path / "events.jsonl"
        outcomes = set()
        for line in lines_under_test():
            # the line under test is line 2, after a good row
            path.write_text(GOOD_ROW + "\n" + line + "\n", encoding="utf-8")
            try:
                expected = json_load_events(path)
            except ValueError as exc:
                with pytest.raises(ValueError) as err:
                    load_events(path)
                assert str(err.value) == str(exc), line
                outcomes.add("both refuse")
                continue
            if not line.strip() or well_typed(json.loads(line)):
                assert list(load_events(path)) == expected, line
                outcomes.add("both accept")
            else:
                with pytest.raises(ValueError, match=r"^events\.jsonl:2: (\w+) ") as err:
                    load_events(path)
                key = err.value.args[0].split()[1]
                assert key in EventRow._fields, err.value
                outcomes.add("type refused")
        assert outcomes == {"both refuse", "both accept", "type refused"}


BLOCK = 64 * 1024  # characters load_events reads at a time


def sized_row(length, t=1):
    """A good events.jsonl line (without its line end) of ``length`` characters,
    padded in the digits of its latitude."""
    head = '{"t":%d,"user_id":2,"venue_id":3,"reported_lat":40.' % t
    tail = ',"reported_lon":-100.0,"valid":true,"flags":[]}'
    assert length > len(head) + len(tail)
    return head + "1" * (length - len(head) - len(tail)) + tail


# Lines the block reader must read as json.loads does: JSON-int and exponent
# coordinates, ints past 18 digits, the largest id the log holds, U+2028 and
# U+0085 inside a flag (line ends to str.splitlines, not to file iteration),
# also in a block read line by line for its JSON-int coordinate, a flags
# text first seen late, a blank line, and a line longer than a block.
SEPARATOR_FLAGS = GOOD_ROW.replace('"flags":[]', '"flags":["Gps\u2028Mis\x85match"]')
SPECIAL_LINES = [
    GOOD_ROW,
    GOOD_ROW.replace("40.0", "40"),
    GOOD_ROW.replace("40.0", "4e1").replace("-100.0", "-1.00E+2"),
    GOOD_ROW.replace('"t":1', '"t":1234567890123456789'),
    GOOD_ROW.replace('"user_id":2', '"user_id":4294967295'),
    GOOD_ROW.replace('"t":1', '"t":-123456789012345678'),
    SEPARATOR_FLAGS,
    SEPARATOR_FLAGS + "\n" + GOOD_ROW.replace("-100.0", "-100"),
    GOOD_ROW.replace('"flags":[]', '"flags":["RapidFire","SuperHumanSpeed"]'),
    "",
    GOOD_ROW.replace('"flags":[]', '"flags":["%s"]' % ("x" * (BLOCK + 100))),
]


def block_log(specials, where, rng):
    """Good rows of 110-160 characters with special line i placed against
    block boundary 2 (i + 1): ``where`` is the special line's start minus the
    boundary, as a function of the line's length (its line end included)."""
    lines, size = [], 0
    for i, line in enumerate(specials):
        start = 2 * (i + 1) * BLOCK + where(len(line) + 1)
        while start - size > 400:
            lines.append(sized_row(rng.randrange(110, 160), t=len(lines)))
            size += len(lines[-1]) + 1
        assert 200 <= start - size
        half = (start - size) // 2
        lines += [sized_row(half - 1), sized_row(start - size - half - 1)]
        lines.append(line)
        size = start + len(line) + 1
    return lines + [sized_row(rng.randrange(110, 160), t=n) for n in range(50)]


def row_types(rows):
    return [tuple(map(type, row)) for row in rows]


class TestBlockReaderMatchesOracle:
    """load_events against the json.loads reader in tests/oracles.py on logs
    whose special lines lie at, across and just past the reader's blocks."""

    PLACES = {
        "last line of a block": lambda n: -n,
        "newline past the block": lambda n: 1 - n,
        "straddling": lambda n: -(n // 2),
        "first line of a block": lambda n: 0,
        "second line of a block": lambda n: 101,
    }

    @pytest.mark.parametrize("line_end", ["\n", "\r\n"])
    @pytest.mark.parametrize("place", PLACES)
    def test_special_lines(self, tmp_path, place, line_end):
        lines = block_log(SPECIAL_LINES, self.PLACES[place], random.Random(8))
        path = tmp_path / "events.jsonl"
        # the last line has no line end
        path.write_bytes(line_end.join(lines).encode("utf-8"))
        rows = list(load_events(path))
        expected = json_load_events(path)
        assert rows == expected
        assert len(rows) == sum(1 for line in "\n".join(lines).split("\n") if line)
        # the log's columns hold a JSON-int coordinate as a float
        assert {type(row.reported_lat) for row in expected} == {int, float}
        assert row_types(rows) == [(int, int, int, float, float, bool, tuple)] * len(rows)

    @pytest.mark.parametrize("place", PLACES)
    @pytest.mark.parametrize("bad, reason", [
        ("garbage", "not JSON (Expecting value at column 1)"),
        (GOOD_ROW[:-1], "not JSON (Expecting ',' delimiter"),
        (GOOD_ROW.replace('"user_id":2', '"user_id":"2"'), "user_id '2' is not an integer"),
        (GOOD_ROW.replace("-100.0", "-180.5"), "reported_lon -180.5 is not a finite number"),
        (GOOD_ROW.replace("40.0", "4e400"), "reported_lat inf is not a finite number"),
        (GOOD_ROW.replace('"flags":[]', '"flags":["a",1]'), "flags must be a list of strings"),
        (GOOD_ROW.replace('"flags":[]', '"flags":[[]]'), "flags must be a list of strings"),
    ])
    def test_bad_line_in_a_late_block(self, tmp_path, place, bad, reason):
        lines = block_log([GOOD_ROW, bad], self.PLACES[place], random.Random(9))
        path = write_log(tmp_path, lines)
        with pytest.raises(ValueError) as err:
            load_events(path)
        assert str(err.value).startswith(f"events.jsonl:{lines.index(bad) + 1}: {reason}")
        try:
            json_load_events(path)
        except ValueError as exc:  # a line that is not JSON: the same message
            assert str(err.value) == str(exc)

    @pytest.mark.parametrize("bad, reason", [
        # a line end after it would move the error to column 1 of the next line
        (GOOD_ROW[:-1], f"not JSON (Expecting ',' delimiter at column {len(GOOD_ROW)})"),
        (GOOD_ROW.replace('"user_id":2', '"user_id":"2"'), "user_id '2' is not an integer"),
    ])
    def test_bad_last_line_without_line_end(self, tmp_path, bad, reason):
        lines = block_log([GOOD_ROW], self.PLACES["straddling"], random.Random(10)) + [bad]
        path = tmp_path / "events.jsonl"
        path.write_text("\n".join(lines), encoding="utf-8")
        assert path.stat().st_size > 2 * BLOCK
        with pytest.raises(ValueError) as err:
            load_events(path)
        assert str(err.value) == f"events.jsonl:{len(lines)}: {reason}"
        try:
            json_load_events(path)
        except ValueError as exc:  # a line that is not JSON: the same message
            assert str(err.value) == str(exc)

    @pytest.mark.parametrize("place", PLACES)
    def test_bad_line_longer_than_a_block(self, tmp_path, place):
        bad = GOOD_ROW.replace('"flags":[]', '"flags":["%s" 1]' % ("x" * (BLOCK + 100)))
        lines = block_log([bad], self.PLACES[place], random.Random(11))
        path = write_log(tmp_path, lines)
        with pytest.raises(ValueError) as err:
            load_events(path)
        with pytest.raises(ValueError) as expected:
            json_load_events(path)
        column = bad.index(" 1]") + 2
        assert str(err.value) == str(expected.value) == (
            f"events.jsonl:{lines.index(bad) + 1}: not JSON (Expecting ',' delimiter at "
            f"column {column})")

    def test_log_shorter_than_a_block_and_empty_log(self, tmp_path):
        path = write_log(tmp_path, [GOOD_ROW] * 3)
        assert list(load_events(path)) == json_load_events(path) != []
        path.write_text("", encoding="utf-8")
        assert len(load_events(path)) == 0


class TestLoadTablesVenueCoordinates:
    @pytest.mark.parametrize("field, value", [
        ("lat", "nan"), ("lat", "inf"), ("lat", "-inf"), ("lat", "90.5"), ("lat", "-91"),
        ("lon", "nan"), ("lon", "180.01"), ("lon", "-1e300"),
    ])
    def test_bad_coordinate_names_file_line_and_field(self, tmp_path, field, value):
        exports = tmp_path / "exports"
        shutil.copytree(GOLDEN, exports)
        venues = exports / "VenueInfo.csv"
        lines = venues.read_text().splitlines()
        header = lines[0].split(",")
        row = lines[3].split(",")
        row[header.index(field)] = value
        lines[3] = ",".join(row)
        venues.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=rf"^VenueInfo\.csv:4: {field} "):
            load_tables(exports)

    def test_poles_and_antimeridian_load(self, tmp_path):
        exports = tmp_path / "exports"
        shutil.copytree(GOLDEN, exports)
        venues = exports / "VenueInfo.csv"
        lines = venues.read_text().splitlines()
        header = lines[0].split(",")
        for i, (lat, lon) in enumerate([("90.0", "180.0"), ("-90", "-180")], start=1):
            row = lines[i].split(",")
            row[header.index("lat")], row[header.index("lon")] = lat, lon
            lines[i] = ",".join(row)
        venues.write_text("\n".join(lines) + "\n")
        loaded = list(load_tables(exports).venues.values())
        assert (loaded[0].lat, loaded[0].lon, loaded[1].lat, loaded[1].lon) == \
            (90.0, 180.0, -90.0, -180.0)


CSV_FIELDS = {
    "UserInfo.csv": ["user_id", "total_checkins", "total_badges", "total_mayorships",
                     "recent_checkins"],
    "VenueInfo.csv": ["venue_id", "name", "lat", "lon", "total_checkins", "unique_visitors",
                      "mayor_id", "has_mayor_special"],
    "RecentCheckin.csv": ["venue_id", "user_id"],
}
# (file, field, bad cell) for every field that must hold a number or a flag;
# an empty mayor_id means no mayor, and a name may hold any text
BAD_CELLS = [(name, field, cell) for name, fields in CSV_FIELDS.items() for field in fields
             if field != "name" for cell in ("x", "", "1.5", "2x")
             if not (field == "mayor_id" and cell == "")
             if not (field in ("lat", "lon") and cell == "1.5")]


def golden_copy(tmp_path):
    exports = tmp_path / "exports"
    shutil.copytree(GOLDEN, exports)
    return exports


def edit_csv(path, edit):
    """Rewrite a CSV export's lines with ``edit(lines)`` (split on commas)."""
    lines = [line.split(",") for line in path.read_text().splitlines()]
    edit(lines)
    path.write_text("".join(",".join(line) + "\n" for line in lines))


class TestLoadTablesCells:
    @pytest.mark.parametrize("name, field, cell", BAD_CELLS)
    def test_bad_cell_names_file_line_field_and_value(self, tmp_path, name, field, cell):
        exports = golden_copy(tmp_path)
        column = CSV_FIELDS[name].index(field)

        def put(lines):
            lines[5][column] = cell

        edit_csv(exports / name, put)
        with pytest.raises(ValueError) as err:
            load_tables(exports)
        assert str(err.value).startswith(f"{name}:6: {field} {cell!r} is not ")

    # a row cut before its first cell is a blank line, which is skipped
    @pytest.mark.parametrize("name, field", [(name, field) for name, fields in CSV_FIELDS.items()
                                             for field in fields[1:]])
    def test_short_row_names_the_first_missing_field(self, tmp_path, name, field):
        exports = golden_copy(tmp_path)
        column = CSV_FIELDS[name].index(field)

        def cut(lines):
            del lines[3][column:]

        edit_csv(exports / name, cut)
        with pytest.raises(ValueError, match=rf"^{name}:4: {field} is missing "):
            load_tables(exports)

    @pytest.mark.parametrize("name, field", [(name, field) for name, fields in CSV_FIELDS.items()
                                             for field in fields])
    def test_missing_column_names_the_header(self, tmp_path, name, field):
        exports = golden_copy(tmp_path)
        column = CSV_FIELDS[name].index(field)

        def drop(lines):
            for line in lines:
                del line[column]

        edit_csv(exports / name, drop)
        with pytest.raises(ValueError, match=rf"^{name}:1: missing column '{field}'$"):
            load_tables(exports)

    def test_empty_file_has_no_header(self, tmp_path):
        exports = golden_copy(tmp_path)
        (exports / "RecentCheckin.csv").write_text("")
        with pytest.raises(ValueError, match=r"^RecentCheckin\.csv:1: missing column 'venue_id'"):
            load_tables(exports)

    def test_columns_in_any_order_and_blank_lines_load(self, tmp_path):
        exports = golden_copy(tmp_path)
        expected = load_tables(GOLDEN)
        for name in CSV_FIELDS:
            def reverse(lines):
                for line in lines:
                    line.reverse()
                lines.insert(2, [""])

            edit_csv(exports / name, reverse)
        assert load_tables(exports) == expected


def test_golden_log_is_rewritten_byte_for_byte(tmp_path):
    path = write_events(load_events(GOLDEN / "events.jsonl"), tmp_path / "events.jsonl")
    assert path.read_bytes() == (GOLDEN / "events.jsonl").read_bytes()


def one_user_world():
    world = World()
    world.register_venue("V", HOME)
    world.register_user(HOME)
    return world


def submit_one_planned(user_id, venue_id):
    one_user_world().submit_planned(array("q", [0]), array("I", [user_id]),
                                    array("I", [venue_id]), array("d", [math.nan]),
                                    array("d", [math.nan]))


def report(tables, log):
    build_report(tables, zip(log.t, log.user_id, log.venue_id))


def replay(tables, log):
    offline_verdicts(log, range(len(log)), tables.venue_points, tables.users, RuleConfig())


@pytest.mark.parametrize("error, key, refuse", [
    (UnknownUser, None, lambda: one_user_world().submit_checkin(2, 1, HOME, 0)),
    (UnknownVenue, None, lambda: one_user_world().submit_checkin(1, 2, HOME, 0)),
    (UnknownUser, None, lambda: submit_one_planned(2, 1)),
    (UnknownVenue, None, lambda: submit_one_planned(1, 2)),
    (UnknownUser, None, lambda: plan_mayor_denial(2, tables_from_world(one_user_world()))),
    (UnknownUser, "user_id", report),
    (UnknownVenue, "venue_id", report),
    (UnknownUser, "user_id", replay),
    (UnknownVenue, "venue_id", replay),
], ids=["submit_checkin-user", "submit_checkin-venue", "submit_planned-user",
        "submit_planned-venue", "plan_mayor_denial", "build_report-user",
        "build_report-venue", "offline_verdicts-user", "offline_verdicts-venue"])
def test_the_public_classes_catch_every_unknown_id(tmp_path, capsys, error, key, refuse):
    """Whatever refuses an id raises ``checkinsim.UnknownUser`` or
    ``UnknownVenue``; a log row's error names the id its row is the first to
    hold, and its text is the CLI's line for it after the
    ``events.jsonl:<line>: `` prefix."""
    if key is None:
        with pytest.raises(error) as caught:
            refuse()
        assert caught.value.id is None
        return
    exports = golden_copy(tmp_path)
    tables, log = load_tables(exports), exports / "events.jsonl"
    lines = log.read_text().splitlines(keepends=True)
    row = json.loads(lines[0])
    row[key] = max(tables.users if key == "user_id" else tables.venues) + 1
    lines[0] = json.dumps(row, separators=(",", ":")) + "\n"
    log.write_text("".join(lines))
    events = load_events(log)
    with pytest.raises(error) as caught:
        refuse(tables, events)
    assert caught.value.column == key and caught.value.id == row[key]
    assert getattr(events, key).index(caught.value.id) == 0
    args = (["detect", "--out", str(tmp_path / "report.csv")] if refuse is report
            else ["verify-replay"])
    assert main(args + ["--in", str(exports)]) == 2
    assert capsys.readouterr().err == f"checkinsim: error: events.jsonl:1: {caught.value}\n"
