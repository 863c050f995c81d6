"""``World.submit_planned`` against the slow reference it replaced.

``oracles.submit_one_by_one`` sends every planned row through a checked
``submit_checkin`` call, as ``harness._submit_planned`` did before the columns
went in whole. On twin worlds both paths must leave the same state (the
fingerprint, which reads the rewards engine too), the same log columns and
outcomes and the same clock, and the rules must see a venue's own point
object exactly on the rows that report it. A bad column must be refused
with the class ``submit_checkin`` raises for its value, naming the row,
before anything changes.
"""

import math
import re
from array import array

import pytest

from checkinsim import harness
from checkinsim.anticheat import UserRuleState
from checkinsim.geo import GeoPoint, offset_point
from checkinsim.world import UnknownUser, UnknownVenue, World
from oracles import submit_one_by_one

ATTACKS = [{"kind": "tour", "steps": 8, "step_deg": 0.005, "true_location": [64.84, -147.72]},
           {"kind": "vacancy_sweep", "limit": 20, "true_location": [48.85, 2.35]},
           {"kind": "mayor_denial", "victim": 1, "true_location": [51.5, -0.1]}]


def twin_runs(monkeypatch, scenario):
    """Build the scenario twice, planned rows through ``submit_planned`` and
    through ``submit_one_by_one``, then run its attacks on each. Returns the
    two worlds, the planned-row order with each row's NaN marker, and per
    world whether each ``evaluate_next`` call saw the venue's own point."""
    seen = []
    evaluate_next = UserRuleState.evaluate_next

    def evaluating(self, venue_id, venue_location, reported_gps, *rest):
        seen.append(reported_gps is venue_location)
        return evaluate_next(self, venue_id, venue_location, reported_gps, *rest)

    monkeypatch.setattr(UserRuleState, "evaluate_next", evaluating)
    marked = []
    worlds, venue_points = [], []
    for submit in (harness._submit_planned, submit_one_by_one):
        def recording(world, plan, submit=submit):
            marked[:] = [math.isnan(plan.lat[i]) for i in harness._submission_order(plan)]
            submit(world, plan)

        monkeypatch.setattr(harness, "_submit_planned", recording)
        seen.clear()
        world, index = harness.build_world(scenario)
        for i, attack in enumerate(scenario.attacks):
            harness._run_attack(world, attack, index, i)
        worlds.append(world)
        venue_points.append(list(seen))
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
    assert len(marked) > 1000 and len(planned.events) > len(marked)
    assert planned.fingerprint() == reference.fingerprint()
    assert planned.events.columns == reference.events.columns
    assert planned.events.outcomes == reference.events.outcomes
    assert planned.clock.now == reference.clock.now
    assert planned_points == reference_points
    assert planned_points[:len(marked)] == marked
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


def submit_each(world, columns, order):
    """Each row in ``order`` through ``submit_checkin``; a NaN lat reports the venue."""
    t, user_id, venue_id, lat, lon = columns
    for i in order:
        reported = (world.venue(venue_id[i]).location if lat[i] != lat[i]
                    else GeoPoint(lat[i], lon[i]))
        world.submit_checkin(user_id[i], venue_id[i], reported, t[i])


def test_a_good_plan_goes_in_whole():
    world, reference = small_world(), small_world()
    columns, order = good_plan(), range(8)
    world.submit_planned(*columns, order)
    submit_each(reference, columns, order)
    assert world.fingerprint() == reference.fingerprint()
    assert world.clock.now == 40000 and len(world.events) == 9


def test_an_empty_plan_changes_nothing():
    world = small_world()
    before = world.fingerprint()
    world.submit_planned(*(array(code) for code in "qIIdd"), array("I"))
    assert world.fingerprint() == before


# (column, row, value): a bad value written into the good plan.
BAD_VALUES = [
    (1, 2, 0), (1, 2, 5), (2, 6, 0), (2, 6, 6),  # no such user or venue
    (0, 0, 999), (0, 4, 4000),  # before the clock; before the row submitted before it
    (3, 5, 90.5), (4, 5, -180.5), (3, 1, math.inf), (3, 1, -math.inf),
    (4, 7, math.inf), (4, 7, -math.inf), (4, 2, math.nan),  # NaN lon, lat not NaN
]


def refused_as_submit_checkin_refuses(columns, order):
    """Submit the columns both ways; return ``submit_planned``'s exception
    once it is of the class ``submit_checkin`` raised and changed nothing."""
    with pytest.raises(Exception) as expected:
        submit_each(small_world(), columns, order)
    world = small_world()
    before = world.fingerprint()
    with pytest.raises(Exception) as refused:
        world.submit_planned(*columns, order)
    assert type(refused.value) is type(expected.value)
    assert world.fingerprint() == before and world.clock.now == 1000
    return refused.value


@pytest.mark.parametrize("column, row, value", BAD_VALUES)
def test_a_bad_value_is_refused_as_submit_checkin_refuses_it(column, row, value):
    columns = good_plan()
    columns[column][row] = value
    error = refused_as_submit_checkin_refuses(columns, range(8))
    assert re.search(rf"^row {row}: .*[ =]{re.escape(str(value))}(?![\d.])", str(error)), error


def test_a_decreasing_order_is_refused_at_its_first_step_back():
    error = refused_as_submit_checkin_refuses(good_plan(), range(7, -1, -1))
    assert str(error) == "row 6: t=30000 is before t=40000 of row 7, submitted before it"


@pytest.mark.parametrize("column", [0, 1, 2])
def test_a_wrong_typecode_is_refused_as_submit_checkin_refuses_its_values(column):
    columns = good_plan()
    columns[column] = array("d", columns[column])
    error = refused_as_submit_checkin_refuses(columns, range(8))
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
        world.submit_planned(*columns, range(8))
    assert world.fingerprint() == before


def test_columns_of_unequal_length_or_a_missing_row_are_refused():
    world = small_world()
    before = world.fingerprint()
    columns = good_plan()
    columns[4].pop()
    with pytest.raises(ValueError, match="differ in length"):
        world.submit_planned(*columns, range(8))
    with pytest.raises(IndexError):
        world.submit_planned(*good_plan(), range(9))
    assert world.fingerprint() == before
