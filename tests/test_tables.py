"""The events.jsonl writer and the readers' errors for malformed exports."""

import itertools
import math
import random
import shutil
import struct
from pathlib import Path

import pytest

from checkinsim.anticheat import Flag, RuleVerdict
from checkinsim.geo import GeoPoint
from checkinsim.tables import load_events, load_tables, write_events
from checkinsim.world import PRESENCE_UNVERIFIED, CheckInRecord
from oracles import encode_event_line

GOLDEN = Path(__file__).parent / "data" / "golden"
HOME = GeoPoint(40.0, -100.0)


def record(t=100, lat=40.0, lon=-100.0, flags=(), accepted=None, user_id=7, venue_id=3):
    verdict = RuleVerdict(not flags, tuple(flags))
    if accepted is None:
        accepted = verdict.valid
    return CheckInRecord(t, user_id, venue_id, GeoPoint(lat, lon), HOME, verdict,
                         None, accepted)


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
    for t in (0, 12.5, 1e-05, 3e20, 2**70, -4):
        out.append(record(t=t))
    rng = random.Random(6)
    for _ in range(3000):
        out.append(record(t=rng.choice([rng.randrange(10**9), random_float(rng)]),
                          lat=random_float(rng), lon=rng.uniform(-180.0, 180.0),
                          flags=rng.sample(rules, rng.randrange(3)),
                          accepted=rng.choice([True, False, None]),
                          user_id=rng.randrange(1, 10**6), venue_id=rng.randrange(1, 10**5)))
    return out


class TestWriteEvents:
    def test_lines_match_json_encoder(self, tmp_path):
        records = records_under_test()
        path = write_events(records, tmp_path / "events.jsonl")
        expected = "".join(encode_event_line(r) for r in records)
        assert path.read_text(encoding="utf-8") == expected
        assert "-0.0," in expected and "1e-05," in expected and '"t":12.5,' in expected
        assert '"PresenceUnverified"' in expected

    def test_empty_log(self, tmp_path):
        assert write_events([], tmp_path / "events.jsonl").read_bytes() == b""


def write_log(tmp_path, lines):
    path = tmp_path / "events.jsonl"
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return path


GOOD_ROW = ('{"t":1,"user_id":2,"venue_id":3,"reported_lat":40.0,"reported_lon":-100.0,'
            '"valid":true,"flags":[]}')


class TestLoadEventsErrors:
    @pytest.mark.parametrize("bad, reason", [
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
    ])
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


def test_golden_log_is_rewritten_byte_for_byte(tmp_path):
    records = []
    for e in load_events(GOLDEN / "events.jsonl"):
        rule_flags = tuple(Flag(f) for f in e.flags if f != PRESENCE_UNVERIFIED)
        records.append(CheckInRecord(e.t, e.user_id, e.venue_id,
                                     GeoPoint(e.reported_lat, e.reported_lon), HOME,
                                     RuleVerdict(not rule_flags, rule_flags), None, e.valid))
    path = write_events(records, tmp_path / "events.jsonl")
    assert path.read_bytes() == (GOLDEN / "events.jsonl").read_bytes()
