import copyreg
import hashlib
import json
import os
import pickle
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from checkinsim.anticheat import Flag, RuleConfig, RuleVerdict
from checkinsim.cli import main
from checkinsim.geo import GeoPoint, offset_point
from checkinsim.harness import ScenarioConfig, build_world
from checkinsim.rewards import DAY_S, MAYOR_WINDOW_DAYS
from checkinsim.tables import load_tables, tables_from_world
from checkinsim.verify import RouterRegistration
from checkinsim.world import (
    RECENT_LIST_LEN,
    ClockRegression,
    CorruptSnapshot,
    UnknownUser,
    UnknownVenue,
    World,
)
from oracles import scan_badges, scan_visits

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

    @pytest.mark.parametrize("bad", [True, False, 1.0, 2.5, "1", None])
    @pytest.mark.parametrize("call, error, what", [
        (lambda w, bad: w.submit_checkin(bad, 1, CITY, 10), UnknownUser, "user"),
        (lambda w, bad: w.submit_checkin(1, bad, CITY, 10), UnknownVenue, "venue"),
        (lambda w, bad: w.register_router(RouterRegistration(bad, CITY)), UnknownVenue, "venue"),
        (lambda w, bad: w.mayor_of(bad), UnknownVenue, "venue"),
    ])
    def test_ids_that_are_not_ints_refused(self, call, error, what, bad):
        """A bool or float id names no user or venue (``True`` once went into
        the log as user 1 and out to RecentCheckin.csv as ``True``)."""
        world = small_world()
        world.submit_checkin(1, 1, CITY, 5)
        before, rows = world.fingerprint(), len(world.events)
        with pytest.raises(error, match=f"^{what} {re.escape(repr(bad))} is not registered$"):
            call(world, bad)
        assert world.fingerprint() == before and len(world.events) == rows

    @pytest.mark.parametrize("call", [
        lambda w: w.register_venue("A", GeoPoint(True, 0.5)),
        lambda w: w.register_user(GeoPoint(False, -100.0)),
        lambda w: w.submit_checkin(1, 1, GeoPoint(True, -100.0), 10),
        lambda w: w.submit_checkin(1, 1, CITY, 10, true_gps=GeoPoint(False, -100.0)),
    ])
    def test_bool_coordinates_refused(self, call):
        world = small_world()
        before = world.fingerprint()
        with pytest.raises(ValueError, match="finite numbers"):
            call(world)
        assert world.fingerprint() == before

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

    def test_int_and_float_coordinates_export_the_same_bytes(self, tmp_path):
        exports = []
        for lat, lon in ((40, -100), (40.0, -100.0)):
            world = World()
            world.register_venue("A", GeoPoint(lat, lon))
            world.register_user(GeoPoint(lat, lon))
            world.submit_checkin(1, 1, GeoPoint(lat, lon), 10, true_gps=GeoPoint(lat, lon))
            world.submit_checkin(1, 1, GeoPoint(lat + 1, lon), 100_000)  # GpsMismatch
            out = tmp_path / type(lat).__name__
            world.export_public_profiles(out, tables_from_world(world))
            world.export_events(out / "events.jsonl")
            exports.append([(out / name).read_bytes() for name in ("events.jsonl", "VenueInfo.csv")])
        assert exports[0] == exports[1]
        assert b'"reported_lat":41.0,"reported_lon":-100.0,' in exports[0][0]
        assert b",40.0,-100.0," in exports[0][1]

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

    @pytest.mark.parametrize("version", [6, 7, 8, 9, 10])
    def test_older_snapshot_refused(self, tmp_path, version):
        # Format 6 logged int bits and an accepted column, format 7 pickled
        # RuleVerdict as a dataclass, format 8 Venue.visitor_ids and the
        # rewards' _BadgeProgress, format 9 (day, t) mayor stamps, format 10 a
        # nine-column world.CheckInLog; an intact payload behind any of these
        # headers must still be refused by its version.
        path = small_world().save_state(tmp_path / "w.snap")
        header_line, payload = path.read_bytes().split(b"\n", 1)
        header = json.loads(header_line)
        assert header["version"] == 11
        header["version"] = version
        path.write_bytes(json.dumps(header, sort_keys=True).encode() + b"\n" + payload)
        with pytest.raises(CorruptSnapshot, match="unsupported snapshot header"):
            World.load_state(path)

    def test_payload_calling_outside_the_world_never_runs(self, tmp_path, capsys):
        # The header's checksum is whatever the writer put there, so a payload
        # behind a valid header must not reach builtins.open.
        target = tmp_path / "written-by-the-payload"
        payload = f"cbuiltins\nopen\n(V{target}\nVw\ntR.".encode()
        header = {"format": "checkinsim-snapshot", "version": 11, "payload_bytes": len(payload),
                  "sha256": hashlib.sha256(payload).hexdigest()}
        path = tmp_path / "w.snap"
        path.write_bytes(json.dumps(header).encode() + b"\n" + payload)
        with pytest.raises(CorruptSnapshot, match="references builtins.open"):
            World.load_state(path)
        assert main(["export", "--snapshot", str(path), "--out", str(tmp_path / "o")]) == 2
        assert "references builtins.open" in capsys.readouterr().err
        assert not target.exists()

    @pytest.mark.parametrize("build, fields", [
        (lambda world: world.clock, ("now",)),
        (lambda world: world.venue(2), ("venue_id", "name", "location", "has_mayor_special",
                                        "total_checkins", "mayor_id", "recent_visitors",
                                        "unique_visitors")),
        (lambda world: world.user(1), ("user_id", "home", "total_checkins", "points", "badges",
                                       "total_mayorships", "is_cheater_ground_truth")),
        (lambda world: world.routers[2], ("venue_id", "location", "range_m",
                                          "processing_delay_s", "registered")),
        (lambda world: world.rule_config, tuple(RuleConfig._spec)),
        (lambda world: world.rewards.catalog[1], ("badge_id", "kind", "threshold",
                                                  "window_days")),
    ])
    def test_snapshot_classes_keep_their_pickled_shape(self, build, fields):
        # Format 9 holds each of these as copyreg.__newobj__(cls) and a state of
        # (None, {slot: value}) for a slotted class, else the instance's __dict__,
        # both in field order; a parent-format snapshot thus still loads.
        world = small_world(rule_config=RuleConfig(gps_radius_m=80.0))
        world.register_router(RouterRegistration(2, world.venue(2).location, range_m=75.0))
        for i in range(12):
            world.submit_checkin(1, 2, world.venue(2).location, 4_000 * i)
        obj = build(world)
        rebuild, args, state = obj.__reduce_ex__(pickle.HIGHEST_PROTOCOL)[:3]
        assert (rebuild, args) == (copyreg.__newobj__, (type(obj),))
        values = state
        if hasattr(type(obj), "__slots__"):  # no __dict__, so (None, {slot: value})
            assert state[0] is None
            values = state[1]
        assert list(values) == list(fields)
        assert values == {name: getattr(obj, name) for name in fields}
        copy = pickle.loads(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))
        assert type(copy) is type(obj)
        assert copy.__reduce_ex__(pickle.HIGHEST_PROTOCOL)[2] == state

    def test_fingerprint_survives_a_round_trip_with_routers_and_sections(self, tmp_path):
        world = small_world(rule_config=RuleConfig(gps_radius_m=80.0), strict_verify=True)
        for vid in (2, 5):
            world.register_router(RouterRegistration(vid, world.venue(vid).location, 75.0))
        for i in range(30):
            vid = 1 + i % 8
            world.submit_checkin(1 + i % 4, vid, world.venue(vid).location, 4_000 * i, CITY)
        # fingerprint() feeds this repr, so it must not change: each field by name, in order
        assert repr(world.routers[2]) == (
            f"RouterRegistration(venue_id=2, location={world.venue(2).location!r}, "
            "range_m=75.0, processing_delay_s=2e-06, registered=True)")
        loaded = World.load_state(world.save_state(tmp_path / "w.snap"))
        assert loaded.fingerprint() == world.fingerprint()
        assert loaded.rule_config == world.rule_config
        assert loaded.rewards.catalog == world.rewards.catalog

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
        assert loaded.rewards._windows[1] == {}


def check_visits(world, directory):
    """The one record of who visited where against ``oracles.scan_visits``
    over the log's accepted rows: ``Venue.unique_visitors``, VenueInfo.csv's
    ``unique_visitors``, each user's rule-state venues, and the badges
    ``oracles.scan_badges`` grants for those rows."""
    visitors, venues = scan_visits(world.events)
    expected = {v.venue_id: visitors.get(v.venue_id, 0) for v in world.venues}
    assert {v.venue_id: v.unique_visitors for v in world.venues} == expected
    world.export_public_profiles(directory, tables_from_world(world))
    assert {vid: row.unique_visitors for vid, row in load_tables(directory).venues.items()} \
        == expected
    log = world.events
    accepted = [valid for valid, _ in log.outcomes]
    stream = [(user_id, venue_id, t) for t, user_id, venue_id, outcome
              in zip(log.t, log.user_id, log.venue_id, log.outcome) if accepted[outcome]]
    badges = dict(zip((user_id for user_id, _, _ in stream),
                      scan_badges(world.rewards.catalog, stream)))  # the last row's, per user
    for user in world.users:
        state = world._rule_states.get(user.user_id)
        assert set(state.last_valid_t_by_venue if state else ()) == \
            venues.get(user.user_id, set())
        assert user.badges == badges.get(user.user_id, frozenset())
    return len(stream), sum(map(len, venues.values()))


class TestOneVisitRecord:
    """Who visited where is kept once, in each user's rule state; the venue
    counts and the badges that read it must match a recount of the log."""

    @pytest.mark.parametrize("strategy", ["naive_teleport", "scheduled_evader"])
    @pytest.mark.parametrize("strict", [False, True], ids=["lenient", "strict"])
    def test_counts_match_the_accepted_rows(self, tmp_path, strategy, strict):
        for seed in (1, 2):
            world, _ = build_world(ScenarioConfig.from_dict({
                "population": {"n_users": 120, "n_venues": 40, "seed": seed, "duration_days": 60,
                               "cheater_fraction": 0.2, "cheater_strategy": strategy,
                               "gps_noise_m": 60.0, "mid_range": [6, 150],
                               "venues_per_city": 10},
                "routers": {"coverage": "full", "range_m": 100.0, "strict": strict}}))
            check_visits(world, tmp_path / f"{seed}-built")
            world = World.load_state(world.save_state(tmp_path / f"{seed}.snap"))
            rng = random.Random(seed)
            t = world.clock.now
            for _ in range(400):  # revisits from up to 200 m off, some reporting the venue
                t += rng.choice((0, 30, 600, 4_000, DAY_S))
                venue = world.venue(rng.randint(1, len(world.venues)))
                true = offset_point(venue.location, rng.uniform(0, 360), rng.uniform(0, 200))
                world.submit_checkin(rng.randint(1, len(world.users)), venue.venue_id,
                                     rng.choice((venue.location, true)), t, true)
            rows, pairs = check_visits(world, tmp_path / f"{seed}-resumed")
            assert rows > pairs > 0  # repeat visits
            unaccepted_valid = (False, ("PresenceUnverified",)) in world.events.outcomes
            assert unaccepted_valid == strict


def test_importing_the_package_loads_no_snapshot_codec():
    # hashlib (with OpenSSL) and pickle are imported by snapshots and
    # fingerprint() only, so a run, detect or replay process never pays for them;
    # no process pays for dataclasses and the source-inspection modules it loads.
    code = ("import sys; import checkinsim, checkinsim.cli, checkinsim.harness; "
            "print(sorted({'hashlib', '_hashlib', 'pickle', 'dataclasses', 'inspect', 'ast', "
            "'dis', 'tokenize'} & set(sys.modules)))")
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(src)}, check=True)
    assert out.stdout.strip() == "[]"


class TestFingerprintSeesRewards:
    """``fingerprint()`` reads the rewards engine as of the clock: a stamp or a
    badge-window time inside its window counts, anything a prune would drop
    does not, so a lazy prune leaves the digest as it was."""

    @staticmethod
    def twins():
        worlds = []
        for _ in range(2):
            world = small_world()
            for i in range(6):
                world.submit_checkin(1 + i % 2, 1, world.venue(1).location, 2 * DAY_S * i)
            worlds.append(world)
        assert worlds[0].fingerprint() == worlds[1].fingerprint()
        return worlds

    def test_one_mayor_stamp_differs(self):
        world, twin = self.twins()
        twin.rewards.mayor_state(1).days[2][-1] += 1
        assert world.fingerprint() != twin.fingerprint()

    def test_one_badge_window_time_differs(self):
        world, twin = self.twins()
        twin.rewards._windows[2]["marathon-month"][-1] -= 1
        assert world.fingerprint() != twin.fingerprint()

    def test_an_expired_stamp_or_time_counts_for_nothing(self):
        world, twin = self.twins()
        start = twin.clock.now - MAYOR_WINDOW_DAYS * DAY_S
        twin.rewards.mayor_state(1).days[1].insert(0, start)
        twin.rewards._windows[1]["marathon-month"].insert(0, twin.clock.now - 30 * DAY_S)
        assert world.fingerprint() == twin.fingerprint()


@pytest.fixture(scope="module")
def world_20k():
    """A 20k-user, 4k-venue world at the acceptance seed and cheater share."""
    scenario = ScenarioConfig.from_dict({"population": {
        "n_users": 20_000, "n_venues": 4_000, "seed": 20100831, "cheater_fraction": 0.05}})
    return build_world(scenario)[0]


def mayor_stamps(world):
    return sum(len(days) for state in world.rewards._mayors.values()
               for days in state.days.values())


def test_fingerprint_survives_a_20k_round_trip(world_20k, tmp_path):
    loaded = World.load_state(world_20k.save_state(tmp_path / "w.snap"))
    assert loaded.fingerprint() == world_20k.fingerprint()


def test_reading_every_mayor_keeps_the_fingerprint(world_20k, tmp_path):
    world = World.load_state(world_20k.save_state(tmp_path / "w.snap"))
    before, stamps = world.fingerprint(), mayor_stamps(world)
    mayors = [venue.mayor_id for venue in world.venues]
    for venue in world.venues:
        world.mayor_of(venue.venue_id)
    assert mayor_stamps(world) < stamps / 2  # the reads pruned, lazily, most stamps
    assert [venue.mayor_id for venue in world.venues] == mayors  # and moved no title
    assert world.fingerprint() == before


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
            replay.submit_checkin(r.user_id, r.venue_id, GeoPoint(r.reported_lat, r.reported_lon),
                                  r.t)
        assert replay.fingerprint() == world.fingerprint()
        assert list(replay.events) == list(world.events)

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
        assert list(w1.events) == list(w2.events)
