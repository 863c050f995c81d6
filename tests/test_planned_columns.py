"""Planned check-ins as columns against the tuple planner they replaced.

``harness._plan_checkins`` writes each planned row into ``array`` columns and
``World.submit_planned`` submits them in one stable sort by t.
``oracles.tuple_submissions`` rebuilds the tuple per
row that planning made before, sorted by (t, user_id) with Python's stable
sort; the log's rows must hold its values in its order, each attestation its
true point, and the rules must
see the venue's own ``location`` object as the reported point exactly on the
rows that report it. The rules and attestations are recorded per user, in
the user's row order, since ``submit_planned`` takes one user at a time.
"""

import gc
import math
import random
import tracemalloc
from array import array
from collections import defaultdict

import pytest

import checkinsim.world
from checkinsim import harness
from checkinsim.anticheat import UserRuleState
from checkinsim.geo import GeoPoint
from checkinsim.world import World
from oracles import tuple_submissions


def rules_seen(monkeypatch):
    """Record each ``evaluate_next`` call as (its rule state, whether the
    reported point is the venue's own ``location`` object), and each
    presence attestation the world makes as (None, its true point)."""
    calls = []
    evaluate_next = UserRuleState.evaluate_next
    attest = checkinsim.world.attest_checkin

    def evaluating(self, venue_id, venue_location, reported_gps, *rest):
        calls.append((self, reported_gps is venue_location))
        return evaluate_next(self, venue_id, venue_location, reported_gps, *rest)

    def attesting(venue_id, true, registry):
        calls.append((None, true))
        return attest(venue_id, true, registry)

    monkeypatch.setattr(UserRuleState, "evaluate_next", evaluating)
    monkeypatch.setattr(checkinsim.world, "attest_checkin", attesting)
    return calls


def by_row(world, calls):
    """``rules_seen``'s calls keyed by row: per user, in the user's row
    order, (whether the row reported its venue's point, the true point its
    attestation was made with, or None without one). A row's attestation
    comes just before its rules."""
    owner = {id(state): user_id for user_id, state in world._rule_states.items()}
    rows, true = defaultdict(list), None
    for state, value in calls:
        if state is None:
            true = value
        else:
            rows[owner[id(state)]].append((value, true))
            true = None
    return dict(rows)


def expected_rows(world, expected):
    """``tuple_submissions``' rows in ``by_row``'s shape."""
    rows = defaultdict(list)
    for user_id, venue_id, reported, _, true in expected:
        rows[user_id].append((reported is world.venue(venue_id).location,
                              (reported if true is None else true) if world.routers else None))
    return dict(rows)


def logged(world):
    """The log's rows as (user_id, venue_id, reported, t) tuples."""
    return [(r.user_id, r.venue_id, GeoPoint(r.reported_lat, r.reported_lon), r.t)
            for r in world.events]


def as_logged(expected):
    """``tuple_submissions``' rows as the log holds them, without the true point."""
    return [(user_id, venue_id, reported, t) for user_id, venue_id, reported, t, _ in expected]


def recorded_build(monkeypatch, scenario):
    """Build the world, returning it, its plan, the reference submissions
    and ``by_row``'s record of the rules and attestations."""
    seen = {}
    submit_planned = World.submit_planned

    def recording(world, *plan):
        seen["expected"] = tuple_submissions(world, plan)
        seen["plan"] = harness._Plan(*plan)
        submit_planned(world, *plan)

    calls = rules_seen(monkeypatch)
    monkeypatch.setattr(World, "submit_planned", recording)
    world, _ = harness.build_world(scenario)
    return world, seen["plan"], seen["expected"], by_row(world, calls)


@pytest.mark.parametrize("strategy, noise_m", [("naive_teleport", 25.0),
                                               ("scheduled_evader", 10.0),
                                               ("naive_teleport", 0.0)])
def test_submissions_match_the_tuple_reference(monkeypatch, strategy, noise_m):
    scenario = harness.ScenarioConfig.from_dict({
        "population": {"n_users": 200, "n_venues": 60, "seed": 4, "duration_days": 30,
                       "gps_noise_m": noise_m, "cheater_fraction": 0.1,
                       "cheater_strategy": strategy},
        "routers": {"coverage": "full", "strict": True}})
    world, plan, expected, rows = recorded_build(monkeypatch, scenario)
    assert sum(map(len, rows.values())) == len(world.events) == len(plan.t) > 1000
    assert logged(world) == as_logged(expected)
    assert rows == expected_rows(world, expected)  # the true points too: routers are full
    assert list(plan.user_id) == sorted(plan.user_id)  # ties in row order are by user
    nan_rows = defaultdict(list)
    for i in sorted(range(len(plan.t)), key=plan.t.__getitem__):
        nan_rows[plan.user_id[i]].append(math.isnan(plan.lat[i]))
    assert {user_id: [is_venue for is_venue, _ in seen] for user_id, seen in rows.items()} \
        == nan_rows
    venue_points = [is_venue for seen in rows.values() for is_venue, _ in seen]
    for user_id, _, _, _, true in expected:
        user = world.user(user_id)
        assert true is (user.home if user.is_cheater_ground_truth else None)
    cheater_rows = sum(true is not None for *_, true in expected)
    assert cheater_rows > 0
    assert sum(venue_points) == (len(expected) if noise_m == 0.0 else cheater_rows)
    assert world.clock.now == expected[-1][3]


def test_equal_times_keep_planning_order(monkeypatch):
    """Rows of equal (t, user_id), and equal t across users, submit in
    planning order; a user's rows need not be planned in time order."""
    rng = random.Random(9)
    world = World()
    for i in range(4):
        world.register_venue(f"V{i}", GeoPoint(40.0 + i * 1e-4, -100.0))
    for _ in range(30):
        world.register_user(GeoPoint(40.0, -100.0), is_cheater=rng.random() < 0.3)
    plan = harness._Plan(array("q"), array("I"), array("I"), array("d"), array("d"))
    for user_id in range(1, 31):
        times = [rng.choice((0, 100, 100, 7200, 10**6)) for _ in range(rng.randrange(0, 7))]
        noisy = rng.random() < 0.5
        harness._plan_rows(plan, user_id, times, [rng.randrange(1, 5) for _ in times],
                           [40.0 + rng.random() * 1e-4 for _ in times] if noisy else (),
                           [-100.0 for _ in times] if noisy else ())
    n = len(plan.t)
    assert len({(plan.t[i], plan.user_id[i]) for i in range(n)}) < n  # ties within a user
    expected = tuple_submissions(world, plan)
    calls = rules_seen(monkeypatch)
    world.submit_planned(*plan)
    assert logged(world) == as_logged(expected)
    assert by_row(world, calls) == expected_rows(world, expected)


def test_build_world_transient_memory_per_planned_row(collector_state):
    """``build_world``'s traced peak less what stays live afterwards, per
    planned row: under 110 bytes. Planned columns and the sort keep it near
    55-60 bytes on CPython 3.11; a tuple per planned row (about 190) fails."""
    scenario = harness.ScenarioConfig.from_dict({
        "population": {"n_users": 1700, "n_venues": 300, "seed": 1, "cheater_fraction": 0.05,
                       "mid_range": [6, 60]}})
    gc.collect()
    tracemalloc.start()
    try:
        world, index = harness.build_world(scenario)
        live, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    rows = len(world.events)
    assert 15_000 <= rows <= 25_000
    assert (peak - live) / rows < 110, ((peak - live) / rows, rows)
