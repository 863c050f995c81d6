"""The world's columnar check-in log against the record objects it replaced.

``oracles.kept_records`` keeps every record ``submit_checkin`` returns; the
log's rows (each record's events.jsonl row), its events.jsonl bytes and its
counts must agree with them.
"""

from collections import Counter

import pytest

from checkinsim import harness
from checkinsim.geo import GeoPoint
from checkinsim.tables import CheckInLog, EventRow
from checkinsim.world import World
from oracles import encode_event_line, event_row, export_flags, kept_records

ATTACKS = [
    {"kind": "tour", "steps": 12, "true_location": [64.84, -147.72]},
    {"kind": "vacancy_sweep", "limit": 15, "require_vacant_mayor": False,
     "true_location": [48.85, 2.35]},
    {"kind": "mayor_denial", "victim": 3, "true_location": [51.5, -0.1]},
]


def scenario(strategy, seed):
    return harness.ScenarioConfig.from_dict({
        "population": {"n_users": 150, "n_venues": 60, "seed": seed, "duration_days": 20,
                       "gps_noise_m": 40.0, "cheater_fraction": 0.1,
                       "cheater_strategy": strategy},
        "routers": {"coverage": "full", "strict": True},
        "attacks": ATTACKS,
    })


@pytest.mark.parametrize("strategy, seed", [("naive_teleport", 1), ("naive_teleport", 2),
                                            ("scheduled_evader", 3)])
def test_log_agrees_with_the_kept_records(tmp_path, strategy, seed):
    with kept_records() as kept:
        result = harness.run_scenario(scenario(strategy, seed), tmp_path / "run")
    world = result.world
    rows = list(world.events)
    assert len(rows) == len(world.events) == len(kept) > 0
    assert rows == [event_row(r) for r in kept]
    assert [world.events[i] for i in (0, -1)] == [event_row(kept[0]), event_row(kept[-1])]
    assert all(type(r) is EventRow for r in rows)
    assert {a["kind"]: a["checkins"] > 0 for a in result.metrics["attacks"]} == \
        {"tour": True, "vacancy_sweep": True, "mayor_denial": True}
    assert any(not r.accepted for r in kept) and any(r.accepted for r in kept)
    assert any(r.attested is False for r in kept)
    assert any(r.reported_gps != r.true_gps for r in kept)

    expected = "".join(encode_event_line(r) for r in kept).encode()
    assert (tmp_path / "run" / "events.jsonl").read_bytes() == expected
    assert world.export_events(tmp_path / "again.jsonl").read_bytes() == expected

    assert world.valid_count() == sum(r.accepted for r in kept)
    assert world.invalid_by_flag() == Counter(
        name for r in kept if not r.accepted for name in export_flags(r))

    loaded = World.load_state(world.save_state(tmp_path / "w.snap"))
    assert loaded.fingerprint() == world.fingerprint()
    assert list(loaded.events) == rows


def test_fingerprint_sees_every_column():
    world = World()
    world.register_venue("A", GeoPoint(40.0, -100.0))
    world.register_user(GeoPoint(40.0, -100.0))
    world.submit_checkin(1, 1, GeoPoint(40.0, -100.0), 10)
    before = world.fingerprint()
    for column in world.events.columns:
        saved = column[0]
        column[0] = saved + 1
        assert world.fingerprint() != before
        column[0] = saved
    assert world.fingerprint() == before


def test_log_columns_take_36_bytes_per_row():
    world, _ = harness.build_world(harness.ScenarioConfig.from_dict({
        "population": {"n_users": 300, "n_venues": 80, "seed": 5, "duration_days": 30,
                       "cheater_fraction": 0.1}}))
    log = world.events
    assert 2000 <= len(log) <= 20_000
    assert [c.typecode for c in log.columns] == list("qIIddI")
    assert sum(c.buffer_info()[1] * c.itemsize for c in log.columns) == 36 * len(log)
    assert any(not r.valid for r in log)


def test_a_value_no_column_holds_adds_no_row():
    log = CheckInLog()
    good = EventRow(5, 1, 2, 1.0, 2, False, ("RapidFire",))
    log.append(*good[:5], log.outcome_of(*good[5:]))
    for bad in (good._replace(t=12.5), good._replace(t=2**63), good._replace(user_id=-1),
                good._replace(venue_id=2**32), good._replace(reported_lon=None)):
        with pytest.raises((TypeError, OverflowError)):
            log.append(*bad[:5], 1)
        assert {len(c) for c in log.columns} == {1}
    (row,) = log
    assert row == good and row.accepted is False
    assert type(row.reported_lon) is float and type(row.reported_lat) is float


@pytest.mark.parametrize("t", [12.5, 2**63])
def test_submit_refuses_a_time_the_log_cannot_hold(t):
    world = World()
    world.register_venue("A", GeoPoint(40.0, -100.0))
    world.register_user(GeoPoint(40.0, -100.0))
    before = world.fingerprint()
    with pytest.raises(ValueError, match="is not an integer below 2\\*\\*63"):
        world.submit_checkin(1, 1, GeoPoint(40.0, -100.0), t)
    assert world.fingerprint() == before
    assert world.user(1).total_checkins == 0


def test_each_outcome_is_registered_once_in_order_of_first_use():
    log = CheckInLog()
    assert log.outcomes == [(True, ())] and log.outcome_of(True, ()) == 0
    assert log.outcome_of(False, ("RapidFire",)) == 1
    assert log.outcome_of(False, ("PresenceUnverified",)) == 2
    assert log.outcome_of(False, ("RapidFire",)) == 1
    assert log.outcomes == [(True, ()), (False, ("RapidFire",)), (False, ("PresenceUnverified",))]
    assert len(log) == 0
