"""Planned check-ins as columns against the tuple planner they replaced.

``harness._plan_checkins`` writes each planned row into ``array`` columns and
``harness._submit_planned`` submits them in ``_submission_order`` through
``World.submit_planned``. ``oracles.tuple_submissions`` rebuilds the tuple per
row that planning made before, sorted by (t, user_id) with Python's stable
sort; the log's rows must hold its values in its order, each attestation its
true point, and the rules must
see the venue's own ``location`` object as the reported point exactly on the
rows that report it.
"""

import gc
import math
import random
import tracemalloc
from array import array

import pytest

import checkinsim.world
from checkinsim import harness
from checkinsim.anticheat import UserRuleState
from checkinsim.geo import GeoPoint
from checkinsim.world import World
from oracles import tuple_submissions


def venue_point_seen(monkeypatch):
    """Record, per ``evaluate_next`` call in order, whether the reported
    point is the venue's own ``location`` object."""
    seen = []
    evaluate_next = UserRuleState.evaluate_next

    def evaluating(self, venue_id, venue_location, reported_gps, *rest):
        seen.append(reported_gps is venue_location)
        return evaluate_next(self, venue_id, venue_location, reported_gps, *rest)

    monkeypatch.setattr(UserRuleState, "evaluate_next", evaluating)
    return seen


def logged(world):
    """The log's rows as (user_id, venue_id, reported, t) tuples."""
    return [(r.user_id, r.venue_id, GeoPoint(r.reported_lat, r.reported_lon), r.t)
            for r in world.events]


def as_logged(expected):
    """``tuple_submissions``' rows as the log holds them, without the true point."""
    return [(user_id, venue_id, reported, t) for user_id, venue_id, reported, t, _ in expected]


def true_points_seen(monkeypatch):
    """The true point of each presence attestation the world makes, in order."""
    seen = []
    attest = checkinsim.world.attest_checkin

    def attesting(venue_id, true, registry):
        seen.append(true)
        return attest(venue_id, true, registry)

    monkeypatch.setattr(checkinsim.world, "attest_checkin", attesting)
    return seen


def recorded_build(monkeypatch, scenario):
    """Build the world, returning it, its plan, the reference submissions
    and, per submitted row in order, whether it reported its venue's point."""
    seen = {}
    submit_planned = harness._submit_planned

    def recording(world, plan):
        seen["expected"] = tuple_submissions(world, plan)
        seen["plan"] = plan
        submit_planned(world, plan)

    venue_points = venue_point_seen(monkeypatch)
    monkeypatch.setattr(harness, "_submit_planned", recording)
    world, _ = harness.build_world(scenario)
    return world, seen["plan"], seen["expected"], venue_points


@pytest.mark.parametrize("strategy, noise_m", [("naive_teleport", 25.0),
                                               ("scheduled_evader", 10.0),
                                               ("naive_teleport", 0.0)])
def test_submissions_match_the_tuple_reference(monkeypatch, strategy, noise_m):
    scenario = harness.ScenarioConfig.from_dict({
        "population": {"n_users": 200, "n_venues": 60, "seed": 4, "duration_days": 30,
                       "gps_noise_m": noise_m, "cheater_fraction": 0.1,
                       "cheater_strategy": strategy},
        "routers": {"coverage": "full", "strict": True}})
    true_points = true_points_seen(monkeypatch)
    world, plan, expected, venue_points = recorded_build(monkeypatch, scenario)
    assert len(venue_points) == len(world.events) == len(plan.t) > 1000
    assert logged(world) == as_logged(expected)
    assert true_points == [reported if true is None else true for *_, reported, _, true in expected]
    assert list(plan.user_id) == sorted(plan.user_id)  # what _submission_order relies on
    order = harness._submission_order(plan)
    assert venue_points == [math.isnan(plan.lat[i]) for i in order]
    assert venue_points == [reported is world.venue(venue_id).location
                            for _, venue_id, reported, _, _ in expected]
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
    order = harness._submission_order(plan)
    assert list(order) == sorted(range(n), key=lambda i: (plan.t[i], plan.user_id[i]))
    assert len({(plan.t[i], plan.user_id[i]) for i in range(n)}) < n  # ties within a user
    expected = tuple_submissions(world, plan)
    venue_points = venue_point_seen(monkeypatch)
    harness._submit_planned(world, plan)
    assert logged(world) == as_logged(expected)
    assert venue_points == [reported is world.venue(venue_id).location
                            for _, venue_id, reported, _, _ in expected]


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
