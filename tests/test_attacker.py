import random

import pytest

from checkinsim.anticheat import RuleConfig
from checkinsim.attacker import (
    AttackSchedule,
    NoVenuesAvailable,
    ScheduleEntry,
    TargetCriteria,
    build_schedule,
    execute,
    load_schedule,
    plan_mayor_denial,
    plan_step,
    plan_tour,
    save_schedule,
    select_targets,
)
from checkinsim.geo import GeoPoint, MILE_M, haversine_m, offset_point
from checkinsim.harness import PopulationConfig, generate_population
from checkinsim.spatial import VenueGridIndex
from checkinsim.tables import UnknownUser, tables_from_world
from checkinsim.world import World

from oracles import brute_verdicts, nearest_linear, validate_schedule

CITY = GeoPoint(40.0, -100.0)


def venue_grid(world, rows=20, cols=20, spacing_m=150.0):
    """Dense urban grid of venues centered on CITY."""
    for r in range(rows):
        for c in range(cols):
            p = offset_point(offset_point(CITY, 0, r * spacing_m), 90, c * spacing_m)
            world.register_venue(f"Grid {r}-{c}", p)
    return VenueGridIndex(((v.venue_id, v.location) for v in world.venues))


class TestSelectTargets:
    def _world(self):
        world = World()
        world.register_venue("Starbucks #1", CITY, has_mayor_special=True)
        world.register_venue("Burger Barn #2", offset_point(CITY, 0, 500), has_mayor_special=True)
        world.register_venue("Starbucks #3", offset_point(CITY, 90, 800))
        world.register_venue("Taco Stand #4", offset_point(CITY, 180, 700), has_mayor_special=True)
        world.register_user(CITY)
        world.submit_checkin(1, 4, world.venue(4).location, 100)  # venue 4 gets a mayor
        return world

    def test_special_and_vacant_filter(self):
        world = self._world()
        criteria = TargetCriteria(require_mayor_special=True, require_vacant_mayor=True)
        assert select_targets(world.venues, criteria) == [1, 2]

    def test_name_filter_substring(self):
        world = self._world()
        assert select_targets(world.venues, TargetCriteria(name_filter="Starbucks")) == [1, 3]
        assert select_targets(world.venues, TargetCriteria(name_filter="starbucks")) == [1, 3]

    def test_empty_criteria_returns_all(self):
        world = self._world()
        assert select_targets(world.venues, TargetCriteria()) == [1, 2, 3, 4]

    def test_works_on_exported_rows(self, tmp_path):
        world = self._world()
        world.export_public_profiles(tmp_path, tables_from_world(world))
        from checkinsim.tables import load_tables

        tables = load_tables(tmp_path)
        criteria = TargetCriteria(require_mayor_special=True, require_vacant_mayor=True)
        assert select_targets(tables.venues.values(), criteria) == [1, 2]


class TestPlanStep:
    def test_venue_exactly_at_target(self):
        world = World()
        index = venue_grid(world, rows=5, cols=5, spacing_m=500)
        target_venue = world.venue(7)
        # step from a point 500 yards east of the venue, going west
        start = offset_point(target_venue.location, 90, 457.2)
        assert plan_step(start, 270, 457.2, index) == 7

    def test_matches_linear_scan_on_random_queries(self):
        world = World()
        index = venue_grid(world, rows=15, cols=15, spacing_m=333)
        entries = [(v.venue_id, v.location) for v in world.venues]
        rng = random.Random(31)
        for _ in range(1000):
            q = offset_point(CITY, rng.uniform(0, 360), rng.uniform(0, 8000))
            bearing, step = rng.uniform(0, 360), rng.uniform(0, 2000)
            target = offset_point(q, bearing, step)
            expected = nearest_linear(entries, target)
            assert plan_step(q, bearing, step, index) == expected[0]

    def test_tie_breaks_to_lower_id(self):
        world = World()
        world.register_venue("east", GeoPoint(0.0, 0.001))
        world.register_venue("west", GeoPoint(0.0, -0.001))
        index = VenueGridIndex(((v.venue_id, v.location) for v in world.venues))
        assert plan_step(GeoPoint(0.0, 0.0), 0, 0, index) == 1

    def test_empty_index_raises(self):
        index = VenueGridIndex(())
        with pytest.raises(NoVenuesAvailable):
            plan_step(CITY, 0, 100, index)


class TestBuildSchedule:
    def test_half_mile_gets_five_minutes(self):
        a, b = CITY, offset_point(CITY, 90, 0.5 * MILE_M)
        schedule = build_schedule([(1, a), (2, b)], 1000)
        assert schedule.entries == [ScheduleEntry(1, 1000), ScheduleEntry(2, 1300)]

    def test_three_miles_gets_fifteen_minutes(self):
        a, b = CITY, offset_point(CITY, 90, 3 * MILE_M)
        schedule = build_schedule([(1, a), (2, b)], 0)
        assert schedule.entries[1].fire_time == 900

    def test_single_venue(self):
        schedule = build_schedule([(5, CITY)], 42)
        assert schedule.entries == [ScheduleEntry(5, 42)]

    def test_revisit_waits_out_cooldown(self):
        a, b = CITY, offset_point(CITY, 90, 400)
        schedule = build_schedule([(1, a), (2, b), (1, a)], 0)
        times = [e.fire_time for e in schedule.entries]
        assert times[2] - times[0] >= 3600

    def test_validate_accepts_own_output(self):
        rng = random.Random(77)
        locs = {i: offset_point(CITY, rng.uniform(0, 360), rng.uniform(0, 40_000))
                for i in range(1, 15)}
        seq = [(i, locs[i]) for i in rng.choices(list(locs), k=10)]
        schedule = build_schedule(seq, 500)
        validate_schedule(schedule, lambda vid: locs[vid])

    def test_validate_rejects_rule_breaking_schedule(self):
        a, b = CITY, offset_point(CITY, 90, 10 * MILE_M)
        bad = AttackSchedule([ScheduleEntry(1, 0), ScheduleEntry(2, 60)])
        locs = {1: a, 2: b}
        with pytest.raises(ValueError):
            validate_schedule(bad, lambda vid: locs[vid])

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValueError):
            build_schedule([], 0)


class TestExecute:
    def test_tour_checkins_all_pass_despite_remote_true_location(self):
        world = World()
        index = venue_grid(world)
        user_id = world.register_user(GeoPoint(37.77, -122.42), is_cheater=True)
        tour = plan_tour(index, CITY, 25)
        assert len(tour) == len(set(tour)) == 25
        schedule = build_schedule([(vid, world.venue(vid).location) for vid in tour], 600)
        records = execute(world, user_id, schedule, GeoPoint(37.77, -122.42))
        assert len(records) == 25
        assert all(r.accepted for r in records)
        assert world.user(user_id).points == 25

    def test_rule_breaking_schedule_gets_flagged_on_second_checkin(self):
        world = World()
        a = world.register_venue("A", CITY)
        b = world.register_venue("B", offset_point(CITY, 90, 10 * MILE_M))
        user_id = world.register_user(CITY)
        bad = AttackSchedule([ScheduleEntry(a, 0), ScheduleEntry(b, 60)])
        records = execute(world, user_id, bad, CITY)
        assert records[0].accepted
        assert not records[1].accepted
        assert records[1].verdict.flag_names() == ["SuperHumanSpeed"]

    def test_spoof_verdicts_invariant_under_true_location(self):
        def run(true_loc):
            world = World()
            index = venue_grid(world, rows=8, cols=8)
            uid = world.register_user(true_loc, is_cheater=True)
            tour = plan_tour(index, CITY, 10)
            schedule = build_schedule([(v, world.venue(v).location) for v in tour], 300)
            return [r.accepted for r in execute(world, uid, schedule, true_loc)]

        assert run(GeoPoint(40.0, -100.0)) == run(GeoPoint(64.8, -147.7))


class TestEvasionSoundness:
    def test_random_schedules_replay_clean(self):
        rng = random.Random(1234)
        world = World()
        for i in range(60):
            world.register_venue(f"V{i}", offset_point(CITY, rng.uniform(0, 360),
                                                       rng.uniform(0, 45_000)))
        locs = {v.venue_id: v.location for v in world.venues}
        config = RuleConfig()
        for _ in range(200):
            seq = [(vid, locs[vid]) for vid in rng.choices(sorted(locs), k=rng.randint(2, 12))]
            schedule = build_schedule(seq, rng.randint(0, 100_000))
            trace = [(t, vid, locs[vid], locs[vid]) for vid, t in schedule.entries]
            verdicts = brute_verdicts(trace, config)
            assert all(ok for ok, _ in verdicts), [f for _, f in verdicts]


class TestMayorDenial:
    def test_union_of_recent_and_mayor_venues(self):
        world = World()
        for i in range(5):
            world.register_venue(f"V{i}", offset_point(CITY, 72 * i, 300 + 100 * i))
        victim = world.register_user(CITY)
        t = 0
        for day in range(3):  # victim becomes mayor of venues 1 and 2
            for vid in (1, 2):
                t = day * 86_400 + vid * 4000
                world.submit_checkin(victim, vid, world.venue(vid).location, t)
        world.submit_checkin(victim, 5, world.venue(5).location, t + 5000)
        tables = tables_from_world(world)
        assert plan_mayor_denial(victim, tables) == [1, 2, 5]

    def test_unknown_victim_raises(self):
        world = World()
        world.register_venue("V", CITY)
        world.register_user(CITY)
        with pytest.raises(UnknownUser):
            plan_mayor_denial(99, tables_from_world(world))

    def test_invisible_victim_yields_empty_plan(self):
        world = World()
        world.register_venue("V", CITY)
        victim = world.register_user(CITY)
        assert plan_mayor_denial(victim, tables_from_world(world)) == []


class TestScheduleIO:
    def test_jsonl_round_trip(self, tmp_path):
        schedule = AttackSchedule([ScheduleEntry(3, 100), ScheduleEntry(9, 700)])
        path = save_schedule(schedule, tmp_path / "sched.jsonl")
        assert load_schedule(path, {3, 9}, 100) == schedule


class TestGridIndex:
    def test_within_radius_sorted_and_complete(self):
        world = World()
        venue_grid(world, rows=10, cols=10, spacing_m=200)
        index = VenueGridIndex(((v.venue_id, v.location) for v in world.venues))
        entries = [(v.venue_id, v.location) for v in world.venues]
        rng = random.Random(55)
        for _ in range(50):
            q = offset_point(CITY, rng.uniform(0, 360), rng.uniform(0, 1500))
            radius = rng.uniform(100, 900)
            got = index.within_radius(q, radius, len(entries))
            expected = sorted(
                ((haversine_m(q, loc), vid) for vid, loc in entries
                 if haversine_m(q, loc) <= radius)
            )
            assert [vid for vid, _ in got] == [vid for _, vid in expected]

    def test_nearest_with_exclusions(self):
        world = World()
        index = venue_grid(world, rows=3, cols=3, spacing_m=400)
        first = index.nearest(CITY)[0]
        second = index.nearest(CITY, exclude={first})[0]
        assert second != first
        all_ids = {v.venue_id for v in world.venues}
        assert index.nearest(CITY, exclude=all_ids) is None

    def test_nearest_from_high_latitude_query(self):
        # queries far outside the venue band, including ones whose shortest
        # path to the venues crosses the antimeridian
        world = World()
        index = venue_grid(world, rows=4, cols=4, spacing_m=5000)
        entries = [(v.venue_id, v.location) for v in world.venues]
        q = GeoPoint(82.0, -99.5)
        assert index.nearest(q) == nearest_linear(entries, q)

        world = generate_population(PopulationConfig(n_users=0, n_venues=200))
        entries = [(v.venue_id, v.location) for v in world.venues]
        index = VenueGridIndex(entries)
        for q in (GeoPoint(-40.0, 170.0), GeoPoint(-30.0, 150.0), GeoPoint(10.0, 120.0)):
            assert index.nearest(q) == nearest_linear(entries, q)
