"""``World.submit_planned`` against the slow reference it replaced.

``oracles.submit_one_by_one`` sends every planned row through a checked
``submit_checkin`` call, as the harness did before the columns went in
whole. On twin worlds both paths must leave the same state (the
fingerprint, which reads the rewards engine too), the same log columns and
outcomes and the same clock, and the rules must see a venue's own point
object exactly on the rows that report it. Rows go in sorted by ``t``, ties
in row order, whatever order the columns hold them in. A bad column must be
refused with the class ``submit_checkin`` raises for its value, naming the
row, before anything changes.
"""

import math
import random
import re
from array import array
from collections import defaultdict

import pytest

from checkinsim import harness
from checkinsim.anticheat import UserRuleState
from checkinsim.geo import GeoPoint, offset_point
from checkinsim.rewards import DAY_S, RewardsEngine
from checkinsim.verify import RouterRegistration
from checkinsim.world import UnknownUser, UnknownVenue, World
from oracles import ScanningMayor, submit_one_by_one

ATTACKS = [{"kind": "tour", "steps": 8, "step_deg": 0.005, "true_location": [64.84, -147.72]},
           {"kind": "vacancy_sweep", "limit": 20, "true_location": [48.85, 2.35]},
           {"kind": "mayor_denial", "victim": 1, "true_location": [51.5, -0.1]}]


def by_user(world, calls):
    """``(rule state, value)`` pairs, in call order, as {user id: values}:
    each user's rows go through the rules in the user's time order on both
    paths, while ``submit_planned`` takes one user at a time."""
    owner = {id(state): user_id for user_id, state in world._rule_states.items()}
    values = defaultdict(list)
    for state, value in calls:
        values[owner[id(state)]].append(value)
    return dict(values)


def twin_runs(monkeypatch, scenario):
    """Build the scenario twice, planned rows through ``submit_planned`` and
    through ``submit_one_by_one``, then run its attacks on each. Returns the
    two worlds, per user the NaN marker of each planned row in log order,
    and per world and user whether each ``evaluate_next`` call saw the
    venue's own point."""
    seen = []
    evaluate_next = UserRuleState.evaluate_next

    def evaluating(self, venue_id, venue_location, reported_gps, *rest):
        seen.append((self, reported_gps is venue_location))
        return evaluate_next(self, venue_id, venue_location, reported_gps, *rest)

    monkeypatch.setattr(UserRuleState, "evaluate_next", evaluating)
    marked = defaultdict(list)
    worlds, venue_points = [], []
    for submit in (World.submit_planned, lambda world, *plan: submit_one_by_one(world, plan)):
        def recording(world, *plan, submit=submit):
            marked.clear()
            for i in stable_t_order(plan):
                marked[plan[1][i]].append(math.isnan(plan[3][i]))
            submit(world, *plan)

        monkeypatch.setattr(World, "submit_planned", recording)
        seen.clear()
        world, index = harness.build_world(scenario)
        for i, attack in enumerate(scenario.attacks):
            harness._run_attack(world, attack, index, i)
        worlds.append(world)
        venue_points.append(by_user(world, seen))
    return worlds, marked, venue_points


@pytest.mark.parametrize("strategy", ["naive_teleport", "scheduled_evader"])
@pytest.mark.parametrize("noise_m", [0.0, 25.0])
@pytest.mark.parametrize("routers", [{}, {"coverage": "full", "strict": True}])
def test_planned_columns_match_one_by_one(monkeypatch, strategy, noise_m, routers):
    scenario = harness.ScenarioConfig.from_dict({
        "population": {"n_users": 150, "n_venues": 40, "seed": 6, "duration_days": 40,
                       "gps_noise_m": noise_m, "cheater_fraction": 0.1,
                       "cheater_strategy": strategy},
        "routers": routers, "attacks": ATTACKS})
    (planned, reference), marked, (planned_points, reference_points) = twin_runs(
        monkeypatch, scenario)
    planned_rows = sum(map(len, marked.values()))
    assert planned_rows > 1000 and len(planned.events) > planned_rows
    assert planned.fingerprint() == reference.fingerprint()
    assert planned.events.columns == reference.events.columns
    assert planned.events.outcomes == reference.events.outcomes
    assert planned.clock.now == reference.clock.now
    assert planned_points == reference_points
    assert {user_id: points[:len(marked[user_id])] for user_id, points in planned_points.items()
            if user_id in marked} == marked
    assert ((False, ("PresenceUnverified",)) in planned.events.outcomes) == bool(routers)


def small_world():
    world = World()
    for i in range(5):
        world.register_venue(f"V{i}", offset_point(GeoPoint(40.0, -100.0), 90, 100 * i))
    for i in range(4):
        world.register_user(GeoPoint(40.0, -100.0))
    world.submit_checkin(1, 1, world.venue(1).location, 1000)  # the clock is at 1000
    return world


def good_plan():
    """Eight rows of users 1-4 at venues 1-5 from t=1000 on, in row order."""
    return [array("q", [1000, 1000, 5000, 9000, 9000, 20000, 30000, 40000]),
            array("I", [2, 3, 1, 4, 2, 3, 1, 4]),
            array("I", [2, 3, 4, 5, 1, 2, 3, 4]),
            array("d", [40.0001, 40.0, 40.0, math.nan, 40.0, 40.0, 40.0, 40.0]),
            array("d", [-100.0, -100.0, -99.999, math.nan, -100.0, -100.0, -100.0, -100.0])]


def stable_t_order(columns):
    """The row indexes sorted by ``t``, ties in row order."""
    return sorted(range(len(columns[0])), key=columns[0].__getitem__)


def submit_each(world, columns):
    """Each row, in ``stable_t_order``, through ``submit_checkin``; a NaN lat
    reports the venue."""
    t, user_id, venue_id, lat, lon = columns
    for i in stable_t_order(columns):
        reported = (world.venue(venue_id[i]).location if lat[i] != lat[i]
                    else GeoPoint(lat[i], lon[i]))
        world.submit_checkin(user_id[i], venue_id[i], reported, t[i])


def test_a_good_plan_goes_in_whole():
    world, reference = small_world(), small_world()
    columns = good_plan()
    world.submit_planned(*columns)
    submit_each(reference, columns)
    assert world.fingerprint() == reference.fingerprint()
    assert world.clock.now == 40000 and len(world.events) == 9


# The good plan's rows reversed, and shuffled with each pair of equal-t rows
# (0 and 1, 3 and 4) swapped.
@pytest.mark.parametrize("rows", [range(7, -1, -1), [5, 4, 1, 7, 0, 3, 6, 2]],
                         ids=["reversed", "shuffled"])
def test_rows_in_any_order_go_in_sorted_by_t_ties_in_row_order(rows):
    columns = [array(column.typecode, map(column.__getitem__, rows)) for column in good_plan()]
    world, reference = small_world(), small_world()
    world.submit_planned(*columns)
    submit_each(reference, columns)
    assert world.fingerprint() == reference.fingerprint()
    assert world.clock.now == 40000 and len(world.events) == 9


def test_an_empty_plan_changes_nothing():
    world = small_world()
    before = world.fingerprint()
    world.submit_planned(*(array(code) for code in "qIIdd"))
    assert world.fingerprint() == before


# (column, row, value): a bad value written into the good plan.
BAD_VALUES = [
    (1, 2, 0), (1, 2, 5), (2, 6, 0), (2, 6, 6),  # no such user or venue
    (0, 0, 999), (0, 5, 999),  # before the clock, the second one submitted first
    (3, 5, 90.5), (4, 5, -180.5), (3, 1, math.inf), (3, 1, -math.inf),
    (4, 7, math.inf), (4, 7, -math.inf), (4, 2, math.nan),  # NaN lon, lat not NaN
]


def refused_as_submit_checkin_refuses(columns):
    """Submit the columns both ways; return ``submit_planned``'s exception
    once it is of the class ``submit_checkin`` raised and changed nothing."""
    with pytest.raises(Exception) as expected:
        submit_each(small_world(), columns)
    world = small_world()
    before = world.fingerprint()
    with pytest.raises(Exception) as refused:
        world.submit_planned(*columns)
    assert type(refused.value) is type(expected.value)
    assert world.fingerprint() == before and world.clock.now == 1000
    return refused.value


@pytest.mark.parametrize("column, row, value", BAD_VALUES)
def test_a_bad_value_is_refused_as_submit_checkin_refuses_it(column, row, value):
    columns = good_plan()
    columns[column][row] = value
    error = refused_as_submit_checkin_refuses(columns)
    assert re.search(rf"^row {row}: .*[ =]{re.escape(str(value))}(?![\d.])", str(error)), error


def test_of_equal_rows_before_the_clock_the_first_is_named():
    columns = good_plan()
    columns[0][6] = columns[0][2] = 999
    error = refused_as_submit_checkin_refuses(columns)
    assert str(error) == "row 2: t=999 is before simulation clock 1000"


@pytest.mark.parametrize("column", [0, 1, 2])
def test_a_wrong_typecode_is_refused_as_submit_checkin_refuses_its_values(column):
    columns = good_plan()
    columns[column] = array("d", columns[column])
    error = refused_as_submit_checkin_refuses(columns)
    name = ("t", "user_id", "venue_id")[column]
    assert re.fullmatch(f"the {name} column must be an array of typecode '[qI]', got 'd'",
                        str(error))


@pytest.mark.parametrize("column, code, error", [(1, "q", UnknownUser), (2, "i", UnknownVenue),
                                                 (3, "f", ValueError), (4, "f", ValueError)])
def test_other_typecodes_are_refused_too(column, code, error):
    columns = good_plan()
    columns[column] = array(code, columns[column])
    world = small_world()
    before = world.fingerprint()
    with pytest.raises(error, match=f"column must be an array of typecode '[Id]', got '{code}'"):
        world.submit_planned(*columns)
    assert world.fingerprint() == before


def test_columns_of_unequal_length_are_refused():
    world = small_world()
    before = world.fingerprint()
    columns = good_plan()
    columns[4].pop()
    with pytest.raises(ValueError, match="differ in length"):
        world.submit_planned(*columns)
    assert world.fingerprint() == before


# -- submission by dependency: runs per user, then per venue ------------------

CENTER = GeoPoint(40.0, -100.0)
NAN = math.nan


def plan_of(rows):
    """Planned columns of (t, user_id, venue_id, lat, lon) rows, in row order."""
    return [array(code, column) for code, column in zip("qIIdd", zip(*rows))]


def twin_worlds(n_users, n_venues, strict=False, cheaters=()):
    """Two equal worlds: ``n_venues`` venues 150 m apart on a line, users at
    the first, with a router at every venue when ``strict``."""
    worlds = []
    for _ in range(2):
        world = World(strict_verify=strict)
        for i in range(n_venues):
            venue_id = world.register_venue(f"V{i}", offset_point(CENTER, 90, 150 * i))
            if strict:
                world.register_router(RouterRegistration(venue_id, world.venue(venue_id).location))
        for user_id in range(1, n_users + 1):
            world.register_user(CENTER, is_cheater=user_id in cheaters)
        worlds.append(world)
    return worlds


def scanned_mayors(world):
    """Each venue's mayor by ``oracles.ScanningMayor`` over the log's accepted
    rows in log order, None where none was accepted."""
    mayors = defaultdict(ScanningMayor)
    for row in world.events:
        if row.valid:
            mayors[row.venue_id].note_checkin(row.user_id, row.t)
            mayors[row.venue_id].recompute(row.t)
    return {venue_id: mayors[venue_id].mayor_id if venue_id in mayors else None
            for venue_id in range(1, len(world.venues) + 1)}


def submit_twins(worlds, *plans):
    """Each plan through ``submit_planned`` on the first world and through
    ``submit_one_by_one`` on the second; both must end in the same state,
    with the mayors ``oracles.ScanningMayor`` gives. Returns the first."""
    planned, reference = worlds
    for plan in plans:
        planned.submit_planned(*plan)
        submit_one_by_one(reference, plan)
    assert planned.fingerprint() == reference.fingerprint()
    assert planned.events.columns == reference.events.columns
    assert planned.events.outcomes == reference.events.outcomes
    assert planned.clock.now == reference.clock.now
    assert {v.venue_id: v.mayor_id for v in planned.venues} == scanned_mayors(planned)
    return planned


def venue_runs(monkeypatch, engine):
    """The length of each run ``engine.recompute_mayor`` is given, per venue."""
    runs = defaultdict(list)
    recompute = RewardsEngine.recompute_mayor

    def recording(self, venue_id, user_ids, times):
        if self is engine:
            runs[venue_id].append(len(user_ids))
        return recompute(self, venue_id, user_ids, times)

    monkeypatch.setattr(RewardsEngine, "recompute_mayor", recording)
    return runs


def test_two_plans_in_a_row_hand_over_expire_and_extend_the_recent_list():
    # Plan 1: user 1 checks in five times a day on days 0-4 at venue 1, and
    # users 2-12 once each on days 5-15. Plan 2, from day 70: every day of
    # plan 1 but days 11-15 has left the window, and users 13-15 arrive.
    first = [(day * DAY_S + k * 3 * 3600, 1, 1, NAN, NAN) for day in range(5) for k in range(5)]
    first += [((3 + user_id) * DAY_S, user_id, 1, NAN, NAN) for user_id in range(2, 13)]
    second = [(70 * DAY_S + k * 3 * 3600, 1, 1, NAN, NAN) for k in range(5)]
    second += [((57 + user_id) * DAY_S + 600, user_id, 1, NAN, NAN) for user_id in (13, 14, 15)]
    second += [(72 * DAY_S + 7200, 13, 1, NAN, NAN)]
    after_first = twin_worlds(15, 2)[0]
    after_first.submit_planned(*plan_of(first))
    assert after_first.venue(1).mayor_id == 1
    assert after_first.venue(1).recent_visitors == list(range(12, 2, -1))
    world = submit_twins(twin_worlds(15, 2), plan_of(first), plan_of(second))
    venue = world.venue(1)
    assert venue.mayor_id == 13  # two days in the window, the most
    assert venue.recent_visitors == [13, 15, 14, 1, 12, 11, 10, 9, 8, 7]
    assert venue.total_checkins == len(first) + len(second)
    assert venue.unique_visitors == 15
    user = world.user(1)
    assert user.points == 30 and "marathon-month" not in user.badges  # 25 of them expired
    assert world.rewards._windows[1]["marathon-month"] == [t for t, *_ in second[:5]]


@pytest.mark.parametrize("seed", range(6))
def test_interleaved_users_and_rows_out_of_order(seed):
    # Rows of 40 users in random row order, at five venues 150 m apart,
    # some reporting a point off the venue; three users are cheaters, whose
    # true point is the home at venue 1 (out of the other routers' range).
    rng = random.Random(seed)
    strict = seed % 2 == 1
    worlds = twin_worlds(40, 5, strict=strict, cheaters={3, 17, 31})
    rows = []
    for user_id in range(1, 41):
        t = rng.randrange(DAY_S)
        for _ in range(rng.randrange(0, 30)):
            t += rng.choice((0, 30, 600, 4000, DAY_S, 20 * DAY_S))
            venue_id = rng.randint(1, 5)
            point = offset_point(worlds[0].venue(venue_id).location, rng.uniform(0, 360),
                                 rng.choice((5.0, 50.0, 900.0)))
            rows.append((t, user_id, venue_id, *((NAN, NAN) if rng.random() < 0.6 else point)))
    rows.sort()
    plans = [rows[:len(rows) // 3], rows[len(rows) // 3:]]  # the second from the first's last t
    for plan in plans:
        rng.shuffle(plan)
        assert sum(a[1] != b[1] for a, b in zip(plan, plan[1:])) > len(plan) // 2  # interleaved
    world = submit_twins(worlds, *map(plan_of, plans))
    assert len(rows) > 300 and len(world.events.outcomes) > 3 and world.valid_count() > 50


def test_venue_runs_of_one_two_and_many(monkeypatch):
    worlds = twin_worlds(10, 3)
    runs = venue_runs(monkeypatch, worlds[0].rewards)
    rows = [(1000, 1, 1, NAN, NAN)]  # venue 1: one accepted row
    rows += [(2000 + 5000 * k, 2 + k, 2, NAN, NAN) for k in range(2)]  # venue 2: two
    rows += [(DAY_S + 3700 * k, 4 + k % 7, 3, NAN, NAN) for k in range(60)]  # venue 3: many
    world = submit_twins(worlds, plan_of(rows))
    assert dict(runs) == {1: [1], 2: [2], 3: [60]}
    assert world.venue(3).recent_visitors == [7, 6, 5, 4, 10, 9, 8]


def test_badges_earned_mid_run_and_both_in_one_run(monkeypatch):
    # User 1: 35 check-ins at one venue within 35 hours, so marathon-month is
    # earned at the 30th, mid-run. User 2: 40 check-ins over ten venues in
    # ten days earn both badges in one run.
    rows = [(3700 * k, 1, 1, NAN, NAN) for k in range(35)]
    rows += [(6 * 3600 * k, 2, 1 + k % 10, NAN, NAN) for k in range(40)]
    worlds = twin_worlds(2, 10)
    runs = defaultdict(list)
    on_valid = RewardsEngine.on_valid_checkin

    def recording(self, user, times, distinct_venues):
        granted = on_valid(self, user, times, distinct_venues)
        if self is worlds[0].rewards:
            runs[user.user_id].append((len(times), granted))
        return granted

    monkeypatch.setattr(RewardsEngine, "on_valid_checkin", recording)
    world = submit_twins(worlds, plan_of(rows))
    assert runs[1] == [(35, ("marathon-month",))]
    assert runs[2] == [(40, ("adventurer", "marathon-month"))]
    assert world.user(1).badges == ("marathon-month",)
    assert world.user(2).badges == ("adventurer", "marathon-month")
    assert world.rewards._windows[1] == world.rewards._windows[2] == {}


def test_a_20k_world_with_strict_routers_matches_one_by_one(monkeypatch):
    scenario = harness.ScenarioConfig.from_dict({
        "population": {"n_users": 20_000, "n_venues": 4_000, "seed": 20100831,
                       "cheater_fraction": 0.05},
        "routers": {"coverage": "full", "strict": True}})
    worlds = []
    for submit in (World.submit_planned, lambda world, *plan: submit_one_by_one(world, plan)):
        monkeypatch.setattr(World, "submit_planned", submit)
        worlds.append(harness.build_world(scenario)[0])
    planned, reference = worlds
    assert len(planned.events) > 250_000
    assert planned.fingerprint() == reference.fingerprint()
    assert planned.events.columns == reference.events.columns
    assert planned.events.outcomes == reference.events.outcomes
