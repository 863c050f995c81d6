import random

import pytest

from checkinsim.rewards import (
    BadgeKind,
    BadgeSpec,
    DAY_S,
    DEFAULT_BADGE_CATALOG,
    MAYOR_WINDOW_DAYS,
)
from checkinsim.config import dump, load
from checkinsim.world import UserProfile, World
from checkinsim.geo import GeoPoint, offset_point
from oracles import ScanningMayor, VenueCountingEngine, scan_badges

HOME = GeoPoint(40.0, -100.0)


def make_user(user_id=1):
    return UserProfile(user_id=user_id, home=HOME)


class TestPoints:
    def test_one_valid_checkin_one_point(self):
        engine = VenueCountingEngine()
        user = make_user()
        points, _, _ = engine.on_valid_checkin(user, 1, 100)
        assert points == 1 and user.points == 1

    def test_twenty_five_checkins_twenty_five_points(self):
        engine = VenueCountingEngine()
        user = make_user()
        t = 0
        for venue_id in range(1, 26):
            engine.on_valid_checkin(user, venue_id, t)
            t += 400
        assert user.points == 25


class TestBadges:
    def test_tenth_distinct_venue_grants_adventurer(self):
        engine = VenueCountingEngine()
        user = make_user()
        for venue_id in range(1, 10):
            engine.on_valid_checkin(user, venue_id, venue_id * 1000)
        assert "adventurer" not in user.badges
        _, new, _ = engine.on_valid_checkin(user, 10, 10_000)
        assert "adventurer" in new and "adventurer" in user.badges

    def test_revisits_do_not_count_as_distinct(self):
        engine = VenueCountingEngine()
        user = make_user()
        t = 0
        for _ in range(15):  # same venue over and over
            engine.on_valid_checkin(user, 1, t)
            t += 4000
        assert "adventurer" not in user.badges

    def test_thirty_checkins_in_thirty_days_grants_window_badge(self):
        engine = VenueCountingEngine()
        user = make_user()
        t = 0
        for i in range(30):
            _, new, _ = engine.on_valid_checkin(user, 1, t)
            t += DAY_S - 2000  # just under a day apart, all inside 30 days
        assert "marathon-month" in user.badges

    def test_slow_checkins_never_fill_the_window(self):
        engine = VenueCountingEngine()
        user = make_user()
        t = 0
        for _ in range(40):
            engine.on_valid_checkin(user, 1, t)
            t += 2 * DAY_S  # 40 check-ins over 80 days: at most 16 in any 30d
        assert "marathon-month" not in user.badges

    def test_badges_are_permanent_and_monotone(self):
        engine = VenueCountingEngine()
        user = make_user()
        granted = set()
        rng = random.Random(3)
        t = 0
        for _ in range(200):
            engine.on_valid_checkin(user, rng.randint(1, 12), t)
            assert granted <= user.badges
            granted = set(user.badges)
            t += rng.randint(1000, 50_000)

    def test_badge_spec_validation(self):
        with pytest.raises(ValueError):
            BadgeSpec("x", BadgeKind.DISTINCT_VENUES, 0)
        with pytest.raises(ValueError):
            BadgeSpec("x", BadgeKind.DISTINCT_VENUES, 5, window_days=10)
        with pytest.raises(ValueError):
            BadgeSpec("x", BadgeKind.CHECKINS_IN_WINDOW, 5)

    def test_badge_spec_round_trip(self):
        for spec in DEFAULT_BADGE_CATALOG:
            assert load(BadgeSpec, dump(spec)) == spec


class TestMayorship:
    def test_four_distinct_days_wins_vacant_venue(self):
        engine = VenueCountingEngine()
        user = make_user(5)
        mayor = None
        for day in range(4):
            _, _, mayor = engine.on_valid_checkin(user, 1, day * DAY_S + 100)
        assert mayor == 5
        assert engine.mayor_state(1).mayor_id == 5

    def test_single_checkin_takes_unvisited_venue(self):
        engine = VenueCountingEngine()
        user = make_user(9)
        _, _, mayor = engine.on_valid_checkin(user, 3, 500)
        assert mayor == 9

    def test_same_day_checkins_count_once(self):
        engine = VenueCountingEngine()
        a, b = make_user(1), make_user(2)
        # b: two distinct days; a: five check-ins on one day
        engine.on_valid_checkin(b, 1, 0)
        engine.on_valid_checkin(b, 1, DAY_S + 10)
        for i in range(5):
            _, _, mayor = engine.on_valid_checkin(a, 1, 2 * DAY_S + i * 3700)
        assert mayor == 2  # b still leads 2 days to 1

    def test_duplicating_same_day_checkin_never_changes_mayor(self):
        rng = random.Random(8)
        base_engine, dup_engine = VenueCountingEngine(), VenueCountingEngine()
        users_a = {uid: make_user(uid) for uid in (1, 2, 3)}
        users_b = {uid: make_user(uid) for uid in (1, 2, 3)}
        t = 0
        for _ in range(120):
            uid = rng.randint(1, 3)
            t += rng.randint(1, DAY_S)
            base_engine.on_valid_checkin(users_a[uid], 1, t)
            dup_engine.on_valid_checkin(users_b[uid], 1, t)
            dup_engine.on_valid_checkin(users_b[uid], 1, t + 1)  # same-day duplicate
            assert base_engine.mayor_state(1).mayor_id == dup_engine.mayor_state(1).mayor_id

    def test_tie_keeps_incumbent(self):
        engine = VenueCountingEngine()
        a, b = make_user(7), make_user(2)
        for day in range(5):
            engine.on_valid_checkin(a, 1, day * DAY_S + 50)
            _, _, mayor = engine.on_valid_checkin(b, 1, day * DAY_S + 60_000)
        assert mayor == 7  # challenger only tied, user 7 keeps the title

    def test_out_of_order_checkin_rejected(self):
        engine = VenueCountingEngine()
        engine.on_valid_checkin(make_user(1), 1, 100 * DAY_S)
        with pytest.raises(ValueError, match="earlier"):
            engine.on_valid_checkin(make_user(2), 1, 0)
        engine.on_valid_checkin(make_user(2), 1, 100 * DAY_S)  # an equal time is in order
        engine.on_valid_checkin(make_user(3), 2, 0)  # other venues keep their own order

    def test_expired_incumbent_loses_to_active_challenger(self):
        engine = VenueCountingEngine()
        a, b = make_user(1), make_user(2)
        engine.on_valid_checkin(a, 1, 0)
        assert engine.mayor_state(1).mayor_id == 1
        t = 70 * DAY_S  # a's single day is now outside the window
        _, _, mayor = engine.on_valid_checkin(b, 1, t)
        assert mayor == 2

    def test_expired_incumbent_tie_breaks_to_lowest_id(self):
        engine = VenueCountingEngine()
        a, b, c = make_user(1), make_user(3), make_user(2)
        engine.on_valid_checkin(a, 1, 0)          # mayor: 1
        engine.on_valid_checkin(b, 1, 30 * DAY_S)  # 1 day each, incumbent ties
        engine.on_valid_checkin(c, 1, 30 * DAY_S + 4000)
        assert engine.mayor_state(1).mayor_id == 1
        # after the incumbent's day expires, 3 and 2 tie at one day: lowest id
        assert engine.recompute_mayor(1, 65 * DAY_S) == 2

    def test_fully_idle_venue_retains_mayor(self):
        engine = VenueCountingEngine()
        a = make_user(4)
        engine.on_valid_checkin(a, 1, 0)
        assert engine.recompute_mayor(1, 200 * DAY_S) == 4

    def test_recompute_is_idempotent_at_fixed_time(self):
        rng = random.Random(21)
        engine = VenueCountingEngine()
        users = {uid: make_user(uid) for uid in range(1, 6)}
        t = 0
        for _ in range(150):
            uid = rng.randint(1, 5)
            t += rng.randint(100, 2 * DAY_S)
            _, _, mayor = engine.on_valid_checkin(users[uid], 1, t)
            assert engine.recompute_mayor(1, t) == mayor
            assert engine.recompute_mayor(1, t) == mayor

    def test_distinct_day_counts_window(self):
        engine = VenueCountingEngine()
        a = make_user(1)
        for day in (0, 1, 2, 30):
            engine.on_valid_checkin(a, 1, day * DAY_S + 10)
        engine.recompute_mayor(1, 90 * DAY_S)
        # only day 30 is inside (t-60d, t]
        assert engine.mayor_state(1).days == {1: [30 * DAY_S + 10]}


def replay_against_oracle(steps):
    """Feed ("checkin", venue, t, user) and ("read", venue, t) steps to the
    engine and to the scanning oracle; after every step the mayor and the
    number of in-window users at that venue must agree. Returns the mayors.
    """
    engine = VenueCountingEngine()
    oracles = {}
    users = {}
    mayors = []
    for i, (kind, venue_id, t, *rest) in enumerate(steps):
        oracle = oracles.setdefault(venue_id, ScanningMayor())
        if kind == "checkin":
            user_id = rest[0]
            user = users.setdefault(user_id, make_user(user_id))
            _, _, mayor = engine.on_valid_checkin(user, venue_id, t)
            oracle.note_checkin(user_id, t)
        else:
            mayor = engine.recompute_mayor(venue_id, t)
        expected = oracle.recompute(t)
        got = (mayor, len(engine.mayor_state(venue_id).days))
        assert got == (expected, len(oracle.days)), f"step {i}: {steps[i]}"
        mayors.append(mayor)
    return mayors


def random_stream(rng, n_users, n_venues, n_steps):
    """Check-ins in time order with same-day, multi-day and beyond-window
    gaps, mixed with lazy reads at the current or a later time."""
    steps = []
    t = rng.randrange(DAY_S)
    for _ in range(n_steps):
        roll = rng.random()
        if roll < 0.5:
            t += rng.randint(0, 3 * 3600)
        elif roll < 0.95:
            t += rng.randint(1, 5) * DAY_S + rng.randint(0, 3600)
        else:
            t += rng.randint(61, 90) * DAY_S
        venue_id = rng.randint(1, n_venues)
        if rng.random() < 0.15:
            steps.append(("read", venue_id, t + rng.choice((0, rng.randint(1, 70) * DAY_S))))
        else:
            steps.append(("checkin", venue_id, t, rng.randint(1, n_users)))
    return steps


class TestMayorDifferential:
    """The incremental mayorship against ``oracles.ScanningMayor``."""

    def test_random_streams(self):
        rng = random.Random(2024)
        for _ in range(400):
            replay_against_oracle(random_stream(
                rng, rng.randint(1, 12), rng.randint(1, 3), rng.randint(1, 150)))

    def test_many_users_tied_at_the_top(self):
        rng = random.Random(77)
        for _ in range(20):
            replay_against_oracle(random_stream(rng, 60, 1, 400))

    def test_incumbent_keeps_title_on_tie(self):
        steps = []
        for day in range(5):
            steps.append(("checkin", 1, day * DAY_S + 50, 7))
            steps.append(("checkin", 1, day * DAY_S + 60_000, 2))
        assert replay_against_oracle(steps)[-1] == 7

    def test_expired_incumbent_tie_goes_to_lowest_id(self):
        steps = [("checkin", 1, 0, 1), ("checkin", 1, 30 * DAY_S, 3),
                 ("checkin", 1, 30 * DAY_S + 4000, 2), ("read", 1, 65 * DAY_S)]
        assert replay_against_oracle(steps) == [1, 1, 1, 2]

    def test_same_day_checkin_moves_the_day_expiry(self):
        steps = [("checkin", 1, 100, 1), ("checkin", 1, 80_000, 1),
                 ("checkin", 1, DAY_S + 50, 2),
                 ("read", 1, 60 * DAY_S + 100),      # day 0 now expires at 80_000
                 ("read", 1, 60 * DAY_S + 80_000)]
        assert replay_against_oracle(steps) == [1, 1, 1, 1, 2]

    def test_fully_idle_venue_keeps_its_mayor(self):
        steps = [("checkin", 1, 0, 4), ("checkin", 1, DAY_S, 5), ("checkin", 1, 2 * DAY_S, 4),
                 ("read", 1, 200 * DAY_S), ("read", 1, 300 * DAY_S)]
        assert replay_against_oracle(steps)[-2:] == [4, 4]

    def test_world_mayor_at_each_checkin(self):
        """A world's mayors against the oracle, at each accepted check-in,
        with gaps of 30-90 days so whole windows expire between check-ins."""
        rng = random.Random(5)
        world = World(seed=1)
        center = GeoPoint(40.0, -100.0)
        for i in range(3):
            world.register_venue(f"V{i + 1}", offset_point(center, 120 * i, 300))
        for _ in range(8):
            world.register_user(center)
        oracles = {venue.venue_id: ScanningMayor() for venue in world.venues}
        last_at, lapsed = {}, 0
        t = 0
        for step in range(600):
            roll = rng.random()
            if roll < 0.45:
                t += rng.randint(600, 4 * 3600)
            elif roll < 0.92:
                t += rng.randint(1, 4) * DAY_S
            else:
                t += rng.randint(30, 90) * DAY_S
            venue = world.venue(rng.randint(1, 3))
            record = world.submit_checkin(rng.randint(1, 8), venue.venue_id, venue.location, t)
            oracle = oracles[venue.venue_id]
            if record.accepted:
                oracle.note_checkin(record.user_id, t)
                assert venue.mayor_id == oracle.recompute(t), f"step {step}"
                assert len(world.rewards.mayor_state(venue.venue_id).days) == len(oracle.days)
                lapsed += t - last_at.get(venue.venue_id, t) > MAYOR_WINDOW_DAYS * DAY_S
                last_at[venue.venue_id] = t
        assert lapsed > 10
        titles = sum(1 for v in world.venues if v.mayor_id is not None)
        assert sum(u.total_mayorships for u in world.users) == titles


WIDE_CATALOG = (
    BadgeSpec("three-spots", BadgeKind.DISTINCT_VENUES, 3),
    BadgeSpec("busy-day", BadgeKind.CHECKINS_IN_WINDOW, 4, window_days=1),
    BadgeSpec("marathon-month", BadgeKind.CHECKINS_IN_WINDOW, 30, window_days=30),
    BadgeSpec("adventurer", BadgeKind.DISTINCT_VENUES, 10),
)


def badge_stream(rng, n_users, n_venues, n_checkins, gap_s):
    """Time-ordered (user_id, venue_id, t) valid check-ins; ``gap_s(rng)``
    draws each gap to the previous check-in (0 repeats its time)."""
    stream, t = [], 0
    for _ in range(n_checkins):
        t += gap_s(rng)
        stream.append((rng.randint(1, n_users), rng.randint(1, n_venues), t))
    return stream


def replay_badges(catalog, stream):
    """Feed ``stream`` to a ``RewardsEngine`` and compare every check-in's
    badges with ``oracles.scan_badges``; return the users' final badges."""
    engine = VenueCountingEngine(catalog)
    users: dict[int, UserProfile] = {}
    held: dict[int, frozenset] = {}
    for (user_id, venue_id, t), expected in zip(stream, scan_badges(catalog, stream)):
        user = users.setdefault(user_id, make_user(user_id))
        _, new, _ = engine.on_valid_checkin(user, venue_id, t)
        assert user.badges == expected, (user_id, t)
        assert set(new) == expected - held.get(user_id, frozenset()), (user_id, t)
        assert len(new) == len(set(new))
        held[user_id] = expected
        windows = engine._windows[user_id]
        assert not set(windows) & user.badges  # an earned badge keeps no window list
    return {user_id: user.badges for user_id, user in users.items()}


class TestBadgeDifferential:
    """``RewardsEngine`` badges against ``oracles.scan_badges``."""

    @pytest.mark.parametrize("catalog", [DEFAULT_BADGE_CATALOG, WIDE_CATALOG],
                             ids=["default", "wide"])
    def test_dense_streams(self, catalog):
        rng = random.Random(91)
        for _ in range(30):
            stream = badge_stream(rng, rng.randint(1, 6), rng.randint(2, 14), 300,
                                  lambda r: r.choice((0, r.randint(1, 3 * 3600))))
            replay_badges(catalog, stream)

    @pytest.mark.parametrize("catalog", [DEFAULT_BADGE_CATALOG, WIDE_CATALOG],
                             ids=["default", "wide"])
    def test_sparse_streams(self, catalog):
        rng = random.Random(92)
        for _ in range(30):
            stream = badge_stream(rng, rng.randint(1, 4), rng.randint(1, 30), 200,
                                  lambda r: r.randint(DAY_S // 2, 3 * DAY_S))
            replay_badges(catalog, stream)

    @pytest.mark.parametrize("catalog", [DEFAULT_BADGE_CATALOG, WIDE_CATALOG],
                             ids=["default", "wide"])
    def test_checkins_on_the_window_edge(self, catalog):
        # Whole-day times: the check-in exactly 30 (or 1) days back drops out.
        rng = random.Random(93)
        for _ in range(40):
            stream = badge_stream(rng, rng.randint(1, 3), rng.randint(2, 12), 150,
                                  lambda r: r.choice((0, 0, DAY_S, DAY_S, 2 * DAY_S)))
            replay_badges(catalog, stream)

    def test_edge_checkin_is_outside_the_window(self):
        stream = [(1, 1 + day % 5, day * DAY_S) for day in range(29)]
        stream.append((1, 1, 30 * DAY_S))  # the day-0 check-in is now out
        assert "marathon-month" not in replay_badges(DEFAULT_BADGE_CATALOG, stream)[1]
        stream.append((1, 2, 30 * DAY_S))
        assert "marathon-month" in replay_badges(DEFAULT_BADGE_CATALOG, stream)[1]

    def test_marathon_without_adventurer(self):
        rng = random.Random(94)
        earned = 0
        for _ in range(20):
            stream = badge_stream(rng, rng.randint(1, 4), 9, 400,
                                  lambda r: r.randint(0, 6 * 3600))
            for badges in replay_badges(DEFAULT_BADGE_CATALOG, stream).values():
                assert "adventurer" not in badges
                earned += "marathon-month" in badges
        assert earned > 20
