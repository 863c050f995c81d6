import hashlib
import json
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest

from checkinsim.anticheat import Flag, RuleVerdict
from checkinsim.cli import main
from checkinsim.geo import GeoPoint, offset_point
from checkinsim.tables import tables_from_world
from checkinsim.world import (
    RECENT_LIST_LEN,
    ClockRegression,
    CorruptSnapshot,
    UnknownUser,
    UnknownVenue,
    World,
)

CITY = GeoPoint(40.0, -100.0)


def small_world(seed=0, **kwargs):
    world = World(seed=seed, **kwargs)
    for i in range(8):
        world.register_venue(f"Venue {i + 1}", offset_point(CITY, 45 * i, 150 * (i + 1)))
    for i in range(4):
        world.register_user(offset_point(CITY, 90, 50 * i))
    return world


class TestRegistration:
    def test_sequential_venue_ids(self):
        world = World()
        assert world.register_venue("A", CITY) == 1
        assert world.register_venue("B", CITY) == 2
        assert [v.venue_id for v in world.venues] == [1, 2]

    def test_sequential_user_ids(self):
        world = World()
        assert world.register_user(CITY) == 1
        assert world.register_user(CITY) == 2

    def test_unknown_ids_raise(self):
        world = small_world()
        with pytest.raises(UnknownVenue):
            world.submit_checkin(1, 99, CITY, 10)
        with pytest.raises(UnknownUser):
            world.submit_checkin(99, 1, CITY, 10)

    def test_invalid_coordinates_rejected(self):
        world = World()
        with pytest.raises(ValueError):
            world.register_venue("bad", GeoPoint(95, 0))


class TestSubmitPipeline:
    def test_fresh_user_at_venue_is_valid(self):
        world = small_world()
        record = world.submit_checkin(1, 1, world.venue(1).location, 100)
        assert record.accepted and record.verdict.valid
        assert world.user(1).total_checkins == 1
        assert world.user(1).points == 1
        assert world.venue(1).total_checkins == 1
        assert world.venue(1).recent_visitors == [1]

    def test_invalid_checkin_counts_but_earns_nothing(self):
        world = small_world()
        far = offset_point(CITY, 0, 25_000)
        record = world.submit_checkin(1, 1, far, 100)
        assert not record.accepted
        assert Flag.GPS_MISMATCH in record.verdict.flags
        assert world.user(1).total_checkins == 1
        assert world.user(1).points == 0
        assert world.venue(1).total_checkins == 0
        assert world.venue(1).recent_visitors == []

    def test_clock_regression_rejected(self):
        world = small_world()
        world.submit_checkin(1, 1, world.venue(1).location, 1000)
        with pytest.raises(ClockRegression):
            world.submit_checkin(2, 1, world.venue(1).location, 999)

    def test_recent_visitors_bounded_dedup_front(self):
        world = World()
        world.register_venue("V", CITY)
        n = RECENT_LIST_LEN + 3
        for _ in range(n):
            world.register_user(CITY)
        t = 100
        for uid in (*range(1, n + 1), n - 1):  # a repeat visitor moves to the front
            world.submit_checkin(uid, 1, CITY, t)
            t += 4000
        recent = world.venue(1).recent_visitors
        assert recent == [n - 1, n, *range(n - 2, 3, -1)]
        assert len(recent) == RECENT_LIST_LEN

    def test_total_checkins_is_valid_plus_invalid(self):
        world = small_world()
        rng = random.Random(1)
        t = 0
        for _ in range(60):
            t += rng.randint(1, 4000)
            venue = world.venue(rng.randint(1, 8))
            offset = rng.choice([0, 0, 0, 900])
            reported = offset_point(venue.location, 90, offset) if offset else venue.location
            world.submit_checkin(rng.randint(1, 4), venue.venue_id, reported, t)
        for user in world.users:
            valid = sum(1 for r in world.events if r.user_id == user.user_id and r.accepted)
            invalid = sum(1 for r in world.events if r.user_id == user.user_id and not r.accepted)
            assert user.total_checkins == valid + invalid
            assert user.points == valid

    def test_mayorship_counter_matches_titles(self):
        world = small_world()
        rng = random.Random(2)
        t = 0
        for _ in range(150):
            t += rng.randint(3700, 90_000)
            venue = world.venue(rng.randint(1, 8))
            world.submit_checkin(rng.randint(1, 4), venue.venue_id, venue.location, t)
            for user in world.users:
                held = sum(1 for v in world.venues if v.mayor_id == user.user_id)
                assert user.total_mayorships == held

    def test_rules_never_see_true_gps(self):
        submissions = []
        rng = random.Random(3)
        t = 0
        for _ in range(40):
            t += rng.randint(1, 5000)
            submissions.append((rng.randint(1, 4), rng.randint(1, 8), t))

        def run(true_gps_fn):
            world = small_world()
            verdicts = []
            for uid, vid, ts in submissions:
                record = world.submit_checkin(uid, vid, world.venue(vid).location, ts,
                                              true_gps=true_gps_fn(ts))
                verdicts.append((record.verdict.valid, record.verdict.flags))
            return verdicts

        honest = run(lambda ts: None)
        scrambled = run(lambda ts: GeoPoint(-33.0, 151.0))
        assert honest == scrambled


class TestExports:
    def test_empty_world_exports_headers_only(self, tmp_path):
        world = World()
        paths = world.export_public_profiles(tmp_path, tables_from_world(world))
        assert paths["UserInfo"].read_text() == \
            "user_id,total_checkins,total_badges,total_mayorships,recent_checkins\n"
        assert paths["VenueInfo"].read_text().startswith("venue_id,name,lat,lon,")
        assert paths["RecentCheckin"].read_text() == "venue_id,user_id\n"

    def test_single_valid_checkin_row(self, tmp_path):
        world = small_world()
        world.submit_checkin(2, 3, world.venue(3).location, 50)
        paths = world.export_public_profiles(tmp_path, tables_from_world(world))
        lines = paths["RecentCheckin"].read_text().splitlines()
        assert lines == ["venue_id,user_id", "3,2"]

    def test_recent_checkin_has_no_timestamp_column(self, tmp_path):
        world = small_world()
        world.submit_checkin(1, 1, world.venue(1).location, 50)
        paths = world.export_public_profiles(tmp_path, tables_from_world(world))
        header = paths["RecentCheckin"].read_text().splitlines()[0]
        assert "t" not in header.split(",")
        assert header == "venue_id,user_id"

    def test_events_jsonl_schema(self, tmp_path):
        world = small_world()
        world.submit_checkin(1, 1, world.venue(1).location, 50)
        world.submit_checkin(1, 1, world.venue(1).location, 60)  # frequent -> invalid
        path = world.export_events(tmp_path / "events.jsonl")
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert list(rows[0]) == ["t", "user_id", "venue_id", "reported_lat",
                                 "reported_lon", "valid", "flags"]
        assert rows[0]["valid"] is True and rows[0]["flags"] == []
        assert rows[1]["valid"] is False and rows[1]["flags"] == ["FrequentCheckin"]

    def test_ground_truth_never_exported(self, tmp_path):
        world = small_world()
        world.users[0].is_cheater_ground_truth = True
        world.submit_checkin(1, 1, world.venue(1).location, 50,
                             true_gps=GeoPoint(10.0, 10.0))
        world.export_public_profiles(tmp_path, tables_from_world(world))
        world.export_events(tmp_path / "events.jsonl")
        for name in ("UserInfo.csv", "VenueInfo.csv", "RecentCheckin.csv", "events.jsonl"):
            text = (tmp_path / name).read_text()
            assert "cheater" not in text.lower()
            assert "10.0" not in text  # the true position leaks nowhere


class TestSnapshots:
    def test_round_trip_empty_world(self, tmp_path):
        world = World(seed=11)
        path = world.save_state(tmp_path / "w.snap")
        loaded = World.load_state(path)
        assert loaded.fingerprint() == world.fingerprint()

    def test_round_trip_mid_scenario_and_continue(self, tmp_path):
        rng = random.Random(4)
        submissions = []
        t = 0
        for _ in range(80):
            t += rng.randint(1, 6000)
            submissions.append((rng.randint(1, 4), rng.randint(1, 8), t))

        world = small_world(seed=5)
        for uid, vid, ts in submissions[:40]:
            world.submit_checkin(uid, vid, world.venue(vid).location, ts)
        path = world.save_state(tmp_path / "w.snap")
        loaded = World.load_state(path)
        assert loaded.fingerprint() == world.fingerprint()

        for target in (world, loaded):
            for uid, vid, ts in submissions[40:]:
                target.submit_checkin(uid, vid, target.venue(vid).location, ts)
        assert loaded.fingerprint() == world.fingerprint()

    def test_truncated_snapshot_detected(self, tmp_path):
        world = small_world()
        path = world.save_state(tmp_path / "w.snap")
        data = path.read_bytes()
        path.write_bytes(data[:-20])
        with pytest.raises(CorruptSnapshot):
            World.load_state(path)

    def test_bitflip_detected(self, tmp_path):
        world = small_world()
        path = world.save_state(tmp_path / "w.snap")
        data = bytearray(path.read_bytes())
        data[-1] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(CorruptSnapshot):
            World.load_state(path)

    def test_garbage_file_detected(self, tmp_path):
        path = tmp_path / "junk.snap"
        path.write_bytes(b"not a snapshot at all\n\x00\x01")
        with pytest.raises(CorruptSnapshot):
            World.load_state(path)

    def test_version_5_snapshot_refused(self, tmp_path):
        # Format 5 held no run document; its payload is intact here and must
        # still be refused by its version.
        path = small_world().save_state(tmp_path / "w.snap")
        header_line, payload = path.read_bytes().split(b"\n", 1)
        header = json.loads(header_line)
        assert header["version"] == 6
        header["version"] = 5
        path.write_bytes(json.dumps(header, sort_keys=True).encode() + b"\n" + payload)
        with pytest.raises(CorruptSnapshot, match="unsupported snapshot header"):
            World.load_state(path)

    def test_payload_calling_outside_the_world_never_runs(self, tmp_path, capsys):
        # The header's checksum is whatever the writer put there, so a payload
        # behind a valid header must not reach builtins.open.
        target = tmp_path / "written-by-the-payload"
        payload = f"cbuiltins\nopen\n(V{target}\nVw\ntR.".encode()
        header = {"format": "checkinsim-snapshot", "version": 6, "payload_bytes": len(payload),
                  "sha256": hashlib.sha256(payload).hexdigest()}
        path = tmp_path / "w.snap"
        path.write_bytes(json.dumps(header).encode() + b"\n" + payload)
        with pytest.raises(CorruptSnapshot, match="references builtins.open"):
            World.load_state(path)
        assert main(["export", "--snapshot", str(path), "--out", str(tmp_path / "o")]) == 2
        assert "references builtins.open" in capsys.readouterr().err
        assert not target.exists()

    def test_rejected_verdict_round_trip(self):
        verdict = RuleVerdict(False, (Flag.RAPID_FIRE,), {Flag.RAPID_FIRE: 4.0})
        assert not hasattr(verdict, "__dict__")
        assert pickle.loads(pickle.dumps(verdict, protocol=pickle.HIGHEST_PROTOCOL)) == verdict

    def test_earned_window_badge_survives_a_round_trip(self, tmp_path):
        world = small_world()
        for i in range(40):
            world.submit_checkin(1, 1 + i % 8, world.venue(1 + i % 8).location, 4_000 * i)
        assert "marathon-month" in world.user(1).badges
        loaded = World.load_state(world.save_state(tmp_path / "w.snap"))
        for target in (world, loaded):
            target.submit_checkin(2, 3, target.venue(3).location, 200_000)
        assert loaded.fingerprint() == world.fingerprint()
        assert loaded.rewards._progress[1].windows == {}


def test_importing_the_package_loads_no_snapshot_codec():
    # hashlib (with OpenSSL) and pickle are imported by snapshots and
    # fingerprint() only, so a run, detect or replay process never pays for them.
    code = ("import sys; import checkinsim, checkinsim.cli, checkinsim.harness; "
            "print(sorted({'hashlib', '_hashlib', 'pickle'} & set(sys.modules)))")
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(src)}, check=True)
    assert out.stdout.strip() == "[]"


class TestMayorReads:
    def test_lazy_read_applies_expiry_and_syncs_counters(self):
        world = small_world()
        world.submit_checkin(1, 1, world.venue(1).location, 100)       # user 1 mayor
        world.submit_checkin(2, 1, world.venue(1).location, 30 * 86_400)
        assert world.venue(1).mayor_id == 1  # tie, incumbent retains
        # 70 days on, user 1's day has expired; a read must hand over the title
        assert world.mayor_of(1, t=70 * 86_400) == 2
        assert world.venue(1).mayor_id == 2
        assert world.user(1).total_mayorships == 0
        assert world.user(2).total_mayorships == 1


class TestReplayDeterminism:
    def test_replaying_the_event_log_reproduces_every_verdict(self):
        world = small_world(seed=8)
        rng = random.Random(15)
        t = 0
        for _ in range(200):
            t += rng.randint(1, 3000)
            venue = world.venue(rng.randint(1, 8))
            off = rng.choice([0, 0, 0, 800])
            reported = offset_point(venue.location, 270, off) if off else venue.location
            world.submit_checkin(rng.randint(1, 4), venue.venue_id, reported, t)

        replay = small_world(seed=8)
        for r in world.events:
            replay.submit_checkin(r.user_id, r.venue_id, r.reported_gps, r.t, r.true_gps)
        assert replay.fingerprint() == world.fingerprint()
        for a, b in zip(world.events, replay.events):
            assert (a.verdict.valid, a.verdict.flags) == (b.verdict.valid, b.verdict.flags)

    def test_identical_submission_sequences_reproduce_state(self):
        rng = random.Random(6)
        submissions = []
        t = 0
        for _ in range(120):
            t += rng.randint(1, 4000)
            submissions.append((rng.randint(1, 4), rng.randint(1, 8), t,
                                rng.choice([0, 0, 700])))

        def run():
            world = small_world(seed=9)
            for uid, vid, ts, off in submissions:
                venue = world.venue(vid)
                reported = offset_point(venue.location, 180, off) if off else venue.location
                world.submit_checkin(uid, vid, reported, ts)
            return world

        w1, w2 = run(), run()
        assert w1.fingerprint() == w2.fingerprint()
        assert [r.verdict.flags for r in w1.events] == [r.verdict.flags for r in w2.events]
