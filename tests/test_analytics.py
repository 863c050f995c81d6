import random
from pathlib import Path

import pytest

from checkinsim import analytics
from checkinsim.analytics import (
    DetectionThresholds,
    account_age_days,
    build_report,
    compute_curve,
    dispersion,
    flag_badge_anomaly,
    flag_daily_rate,
    speed_feasibility,
)
from checkinsim.geo import GeoPoint, haversine_m, offset_point
from checkinsim.tables import (
    EventRow,
    MissingTables,
    PublicTables,
    UserRow,
    VenueRow,
    event_row,
    load_events,
    load_tables,
    tables_from_world,
    write_tables,
)
from checkinsim.harness import ScenarioConfig, build_world, write_exports
from checkinsim.world import PRESENCE_UNVERIFIED, World
from oracles import scan_dispersion

NYC = GeoPoint(40.7128, -74.0060)
LA = GeoPoint(34.0522, -118.2437)
THRESH = DetectionThresholds()


def user_row(user_id, total, badges=0, mayors=0, recent=0):
    return UserRow(user_id, total, badges, mayors, recent)


def venue_row(venue_id, loc, name="V", mayor_id=None):
    return VenueRow(venue_id, name, loc.lat, loc.lon, 0, 0, mayor_id, False)


class TestRecentRatioCurve:
    def test_single_user_curve_point(self):
        tables = PublicTables({1: user_row(1, 5, recent=2)}, {}, [])
        assert compute_curve(tables, "recent_checkins") == [(5, 2.0, 1)]

    def test_user_absent_from_recent_lists_contributes_zero(self):
        tables = PublicTables({1: user_row(1, 3), 2: user_row(2, 3, recent=4)}, {}, [])
        assert compute_curve(tables, "recent_checkins") == [(3, 2.0, 2)]

    def test_totals_above_cap_excluded(self):
        tables = PublicTables({1: user_row(1, 5000, recent=10),
                               2: user_row(2, 10, recent=1)}, {}, [])
        assert compute_curve(tables, "recent_checkins", max_total=2000) == [(10, 1.0, 1)]

    def test_badge_curve(self):
        tables = PublicTables({1: user_row(1, 10, badges=2),
                               2: user_row(2, 10, badges=0)}, {}, [])
        assert compute_curve(tables, "total_badges") == [(10, 1.0, 2)]


class TestBadgeAnomaly:
    def test_many_checkins_few_badges_flagged(self):
        assert flag_badge_anomaly(1200, 3)

    def test_many_checkins_many_badges_not_flagged(self):
        assert not flag_badge_anomaly(1200, 25)

    def test_few_checkins_not_flagged(self):
        assert not flag_badge_anomaly(50, 0)


class TestDailyRate:
    def test_eighteen_per_day_flagged(self):
        assert flag_daily_rate(9000, 500)

    def test_fifteen_per_day_not_flagged(self):
        assert not flag_daily_rate(9000, 600)

    def test_zero_checkins_not_flagged(self):
        assert not flag_daily_rate(0, 100)

    def test_account_age_model_orders_by_id(self):
        thresholds = DetectionThresholds()
        ages = [account_age_days(uid, 1000, thresholds) for uid in (1, 500, 1000)]
        assert ages[0] > ages[1] > ages[2] >= thresholds.min_account_age_days
        assert ages[0] == pytest.approx(thresholds.registration_span_days)


class TestSpeedFeasibility:
    def test_stationary_trace_clean(self):
        trace = [(t, NYC) for t in (0, 600, 7200)]
        assert speed_feasibility(trace) == 0

    def test_nyc_to_la_in_an_hour_is_one_infeasible_pair(self):
        trace = [(0, NYC), (3600, LA)]
        assert speed_feasibility(trace) == 1

    def test_multi_city_with_daily_gaps_is_feasible_but_dispersed(self):
        rng = random.Random(12)
        cities = [offset_point(GeoPoint(39.0, -98.0), rng.uniform(0, 360), 200_000 + 150_000 * i)
                  for i in range(12)]
        trace = [(i * 86_400, city) for i, city in enumerate(cities)]
        assert speed_feasibility(trace) == 0
        assert dispersion(trace) >= 10

    def test_same_time_same_place_is_fine(self):
        trace = [(0, NYC), (0, NYC)]
        assert speed_feasibility(trace) == 0

    def test_same_time_distinct_places_is_infeasible(self):
        trace = [(0, NYC), (0, LA)]
        assert speed_feasibility(trace) == 1


class TestDispersion:
    def _cities(self, n, spread_km=400):
        center = GeoPoint(39.0, -98.0)
        return [offset_point(center, (360 / n) * i, spread_km * 1000 + 60_000 * i)
                for i in range(n)]

    def test_one_city_one_cluster(self):
        base = NYC
        trace = [(i, offset_point(base, i * 40.0, 5000 * (i % 3))) for i in range(10)]
        assert dispersion(trace) == 1

    def test_three_city_fixture(self):
        cities = self._cities(3)
        trace = []
        t = 0
        for city in cities:
            for k in range(4):
                trace.append((t, offset_point(city, 90 * k, 3000)))
                t += 50_000
        assert dispersion(trace) == 3

    def test_thirty_city_fixture(self):
        cities = self._cities(30)
        trace = [(i * 86_400, city) for i, city in enumerate(cities)]
        assert dispersion(trace) == 30

    def test_single_checkin(self):
        assert dispersion([(0, NYC)]) == 1

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError):
            dispersion([])

    def test_invariant_under_duplication_and_equal_time_order(self):
        rng = random.Random(9)
        cities = self._cities(6)
        trace = [(100, offset_point(cities[i % 6], rng.uniform(0, 360), rng.uniform(0, 20_000)))
                 for i in range(18)]
        base = dispersion(trace)
        shuffled = trace[:]
        rng.shuffle(shuffled)
        assert dispersion(shuffled) == base
        assert dispersion(trace + [trace[4], trace[11]]) == base


class TestDispersionMatchesScan:
    """``dispersion`` must count exactly what ``oracles.scan_dispersion`` counts."""

    RADII = (1.0, 30.0, 1_000.0, 50_000.0, 400_000.0, 5e6, 1.5e7, 2.0e7, 2.1e7, 3e7)

    def _points(self, rng, kind, n, rim_m):
        if kind == "global":
            return [GeoPoint(rng.uniform(-90, 90), rng.uniform(-180, 180)) for _ in range(n)]
        if kind == "pole":
            side = rng.choice((-1.0, 1.0))
            return [GeoPoint(side * rng.choice((90.0, 90.0 - rng.uniform(0, 0.5) ** 2)),
                             rng.uniform(-180, 180)) for _ in range(n)]
        if kind == "antimeridian":
            lat = rng.uniform(-70, 70)
            return [GeoPoint(lat + rng.gauss(0, 0.3),
                             rng.choice((-1.0, 1.0)) * (180.0 - abs(rng.gauss(0, 0.3))))
                    for _ in range(n)]
        if kind == "town":
            town = GeoPoint(rng.uniform(-80, 80), rng.uniform(-180, 180))
            return [offset_point(town, rng.uniform(0, 360), rng.uniform(0, 8_000))
                    for _ in range(n)]
        if kind == "duplicates":
            few = [GeoPoint(rng.uniform(-90, 90), rng.uniform(-180, 180))
                   for _ in range(rng.randint(1, 5))]
            return [rng.choice(few) for _ in range(n)]
        # "rim": points on or just either side of a circle about one center
        center = GeoPoint(rng.uniform(-89, 89), rng.uniform(-180, 180))
        return [center] + [offset_point(center, rng.uniform(0, 360),
                                        rim_m * (1 + rng.choice((-1e-9, 0.0, 1e-9))))
                           for _ in range(n - 1)]

    def _case(self, rng, kind):
        rim_m = rng.choice(self.RADII[:7])
        n = rng.randint(1, 40)
        points = self._points(rng, kind, n, rim_m)
        trace = [(rng.randint(0, 3), p) for p in points]  # few distinct times: many ties
        if kind == "rim" and n > 1 and rng.random() < 0.5:
            radius = haversine_m(points[0], rng.choice(points[1:]))  # a leader's exact rim
        elif kind == "rim":
            radius = rim_m
        elif rng.random() < 0.5:
            radius = rng.choice(self.RADII)
        else:
            radius = 10 ** rng.uniform(0, 7.5)
        return trace, radius

    @pytest.mark.parametrize("kind", ["global", "pole", "antimeridian", "town", "duplicates", "rim"])
    def test_random_traces(self, kind):
        rng = random.Random(f"dispersion-{kind}")
        for _ in range(250):
            trace, radius = self._case(rng, kind)
            expected = scan_dispersion(trace, radius)
            assert dispersion(trace, radius) == expected, (kind, radius, trace)
            shuffled = trace[:]
            rng.shuffle(shuffled)
            assert dispersion(shuffled, radius) == expected, (kind, radius, shuffled)

    @pytest.mark.parametrize("log_min, log_max, n", [(-3, 6.7, 1000), (-9, -3, 10_000)])
    def test_point_exactly_at_radius_joins_the_cluster(self, log_min, log_max, n):
        rng = random.Random(f"rim-{log_min}")
        for _ in range(n):
            a = GeoPoint(rng.uniform(-90, 90), rng.uniform(-180, 180))
            b = offset_point(a, rng.uniform(0, 360), 10 ** rng.uniform(log_min, log_max))
            radius = haversine_m(a, b)
            if radius == 0.0:  # offsets below the float spacing of the coordinates
                continue
            assert dispersion([(0, a), (1, b)], radius) == 1
            assert dispersion([(0, b), (1, a)], radius) == 1
            # the antipode in between makes b look a up through the cells
            antipode = GeoPoint(-a.lat, a.lon - 180.0 if a.lon > 0 else a.lon + 180.0)
            assert dispersion([(0, a), (1, antipode), (2, b)], radius) == 2

    @pytest.mark.parametrize("radius", [0.0, -1.0, float("nan")])
    def test_non_positive_radius_rejected(self, radius):
        with pytest.raises(ValueError, match="cluster_radius_m"):
            dispersion([(0, NYC), (1, NYC)], radius)

    @pytest.mark.parametrize("bad", [GeoPoint(float("nan"), 0.0), GeoPoint(0.0, float("inf"))])
    def test_non_finite_point_rejected(self, bad):
        for trace in ([(0, bad)], [(0, NYC), (1, bad)], [(0, NYC), (1, bad), (2, bad)]):
            with pytest.raises(ValueError):
                dispersion(trace)


class TestBuildReport:
    def _tables_and_events(self):
        center = GeoPoint(39.0, -98.0)
        venues = {}
        for i in range(40):
            venues[i + 1] = venue_row(i + 1, offset_point(center, i * 9.0, 5000 + 12_000_000 * (i % 2) / 100))
        # honest user 1: few check-ins near one spot; cheater 2: teleporter
        users = {1: user_row(1, 6, badges=1, recent=3), 2: user_row(2, 40, badges=0, recent=30)}
        events = []
        t = 0
        for i in range(6):
            events.append(EventRow(t, 1, 1, 0.0, 0.0, True, ()))
            t += 40_000
        t = 0
        for i in range(40):
            vid = (i % 40) + 1
            events.append(EventRow(t, 2, vid, 0.0, 0.0, i % 3 == 0, ()))
            t += 120
        return PublicTables(users, venues, []), events

    def test_teleporter_flagged_honest_not(self):
        tables, events = self._tables_and_events()
        report = build_report(tables, events)
        by_user = {r.user_id: r for r in report}
        assert by_user[2].suspicious and "speed" in by_user[2].reasons
        assert by_user[2].infeasible_pairs >= 1
        assert not by_user[1].suspicious

    def test_empty_population_empty_report(self):
        assert build_report(PublicTables({}, {}, []), []) == []

    def test_ranked_by_reason_count_then_id(self):
        tables, events = self._tables_and_events()
        report = build_report(tables, events)
        counts = [len(r.reasons) for r in report]
        assert counts == sorted(counts, reverse=True)

    def test_zero_total_gives_zero_ratio(self):
        tables = PublicTables({1: user_row(1, 0)}, {}, [])
        report = build_report(tables, [])
        assert report[0].recent_ratio == 0.0 and not report[0].suspicious

    def test_recent_without_total_rejected(self):
        tables = PublicTables({1: user_row(1, 0, recent=5)}, {}, [])
        with pytest.raises(ValueError, match="user 1: recent_checkins 5 exceeds total_checkins 0"):
            build_report(tables, [])


class TestCurveSeparatesPlantedCheaters:
    def test_evader_population_lifts_the_recent_curve(self):
        from checkinsim.harness import PopulationConfig, generate_population

        base = dict(n_users=500, n_venues=150, seed=23, duration_days=60)
        honest = tables_from_world(generate_population(PopulationConfig(**base)))
        planted_world = generate_population(
            PopulationConfig(**base, cheater_fraction=0.2,
                             cheater_strategy="scheduled_evader"))
        planted = tables_from_world(planted_world)

        def mean_recent(tables, totals):
            rows = [u.recent_checkins for u in tables.users.values()
                    if u.total_checkins in totals]
            return sum(rows) / len(rows) if rows else 0.0

        # evaders live in the 12..30 total-check-in range and sit on many
        # venues' recent lists, so the curve must rise there
        evader_bins = set(range(12, 31))
        assert mean_recent(planted, evader_bins) > mean_recent(honest, evader_bins)


class TestFilePipeline:
    def _small_world(self):
        world = World(seed=3)
        base = GeoPoint(40.0, -100.0)
        for i in range(6):
            world.register_venue(f"V{i}", offset_point(base, 60 * i, 400 + 80 * i))
        for i in range(3):
            world.register_user(base)
        t = 0
        rng = random.Random(14)
        for _ in range(30):
            t += rng.randint(3700, 50_000)
            vid = rng.randint(1, 6)
            world.submit_checkin(rng.randint(1, 3), vid, world.venue(vid).location, t)
        return world

    def test_report_reproducible_from_exports_alone(self, tmp_path):
        world = self._small_world()
        world.export_public_profiles(tmp_path)
        world.export_events(tmp_path / "events.jsonl")

        tables = load_tables(tmp_path)
        events = load_events(tmp_path / "events.jsonl")
        report = build_report(tables, events)
        out1 = analytics.write_report_csv(report, tmp_path / "r1.csv").read_bytes()

        tables2 = load_tables(tmp_path)
        events2 = load_events(tmp_path / "events.jsonl")
        out2 = analytics.write_report_csv(build_report(tables2, events2),
                                          tmp_path / "r2.csv").read_bytes()
        assert out1 == out2

    def test_tables_from_world_matches_files(self, tmp_path):
        # teleporting cheaters under strict routers: rule-rejected rows and
        # rule-valid rows refused for presence both reach the log
        world, _ = build_world(ScenarioConfig.from_dict({
            "population": {"n_users": 80, "n_venues": 30, "seed": 6,
                           "cheater_fraction": 0.1, "duration_days": 20},
            "routers": {"coverage": "full", "strict": True},
        }))
        write_exports(world, tmp_path)
        tables, loaded = tables_from_world(world), load_tables(tmp_path)
        assert tables.users == loaded.users
        assert tables.venues == loaded.venues
        assert tables.recent == loaded.recent
        rows = [event_row(r) for r in world.events]
        assert rows == load_events(tmp_path / "events.jsonl")
        flags = {f for row in rows for f in row.flags}
        assert PRESENCE_UNVERIFIED in flags and flags - {PRESENCE_UNVERIFIED}
        assert not all(row.valid for row in rows)

    def test_write_tables_reproduces_golden_exports(self, tmp_path):
        golden = Path(__file__).parent / "data" / "golden"
        write_tables(load_tables(golden), tmp_path)
        for name in ("UserInfo.csv", "VenueInfo.csv", "RecentCheckin.csv"):
            assert (tmp_path / name).read_bytes() == (golden / name).read_bytes()

    def test_missing_tables_raise(self, tmp_path):
        with pytest.raises(MissingTables):
            load_tables(tmp_path)
        with pytest.raises(MissingTables):
            load_events(tmp_path / "events.jsonl")
