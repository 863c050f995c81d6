"""Planned check-ins as columns against the tuple planner they replaced.

``harness._plan_checkins`` writes each planned row into ``array`` columns and
``harness._submit_planned`` submits them in ``_submission_order``.
``oracles.tuple_submissions`` rebuilds the tuple per row that planning made
before, sorted by (t, user_id) with Python's stable sort; the arguments each
``submit_checkin`` call gets must equal it, and a row that reports its
venue's point must pass the venue's own ``location`` object.
"""

import gc
import math
import random
import tracemalloc
from array import array

import pytest

from checkinsim import harness
from checkinsim.geo import GeoPoint
from checkinsim.world import World
from oracles import tuple_submissions


def recorded_build(monkeypatch, scenario):
    """Build the world, returning it, its plan, the reference submissions
    and the arguments of every ``submit_checkin`` call, in order."""
    seen = {}
    submit_planned = harness._submit_planned

    def recording(world, plan):
        seen["expected"] = tuple_submissions(world, plan)
        submit = world.submit_checkin
        calls = seen["calls"] = []
        world.submit_checkin = lambda *args: calls.append(args) or submit(*args)
        try:
            submit_planned(world, plan)
        finally:
            del world.submit_checkin
        seen["plan"] = plan

    monkeypatch.setattr(harness, "_submit_planned", recording)
    world, _ = harness.build_world(scenario)
    return world, seen["plan"], seen["expected"], seen["calls"]


@pytest.mark.parametrize("strategy, noise_m", [("naive_teleport", 25.0),
                                               ("scheduled_evader", 10.0),
                                               ("naive_teleport", 0.0)])
def test_submissions_match_the_tuple_reference(monkeypatch, strategy, noise_m):
    scenario = harness.ScenarioConfig.from_dict({
        "population": {"n_users": 200, "n_venues": 60, "seed": 4, "duration_days": 30,
                       "gps_noise_m": noise_m, "cheater_fraction": 0.1,
                       "cheater_strategy": strategy},
        "routers": {"coverage": "full", "strict": True}})
    world, plan, expected, calls = recorded_build(monkeypatch, scenario)
    assert len(calls) == len(world.events) == len(plan.t) > 1000
    assert calls == expected
    assert list(plan.user_id) == sorted(plan.user_id)  # what _submission_order relies on
    marked = 0
    for (user_id, venue_id, reported, _, true), lat in zip(calls, (plan.lat[i] for i in
                                                                   harness._submission_order(plan))):
        venue_point = world.venue(venue_id).location
        assert (reported is venue_point) is math.isnan(lat)
        marked += reported is venue_point
        user = world.user(user_id)
        assert true is (user.home if user.is_cheater_ground_truth else None)
    cheater_rows = sum(true is not None for *_, true in calls)
    assert cheater_rows > 0
    assert marked == (len(calls) if noise_m == 0.0 else cheater_rows)


def test_equal_times_keep_planning_order():
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
    calls = []
    submit = world.submit_checkin
    world.submit_checkin = lambda *args: calls.append(args) or submit(*args)
    harness._submit_planned(world, plan)
    assert calls == expected
    assert all((c[2] is world.venue(c[1]).location) is (e[2] is world.venue(e[1]).location)
               for c, e in zip(calls, expected))


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
