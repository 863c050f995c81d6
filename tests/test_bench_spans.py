"""The benchmark's span tables must name only what the package defines.

``perfbench/spans.py`` wraps checkinsim functions and methods by name, and
counts ``haversine_m`` calls by replacing that global in each calling
module; a rename in the package would otherwise surface only when the
benchmark runs.
"""

import importlib.util
from collections import Counter
from pathlib import Path

import checkinsim
import checkinsim.cli
import checkinsim.world
from checkinsim import analytics, harness
from checkinsim.anticheat import UserRuleState
from checkinsim.geo import GeoPoint
from checkinsim.rewards import RewardsEngine
from checkinsim.tables import load_events
from checkinsim.world import UserProfile, World
from oracles import VenueCountingEngine, json_load_events

SPANS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
GOLDEN_LOG = Path(__file__).resolve().parent / "data" / "golden" / "events.jsonl"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_target_resolves():
    spans = load_spans()
    missing = []
    for module, owner, attr, _ in spans.RUN_SPANS + spans.CLI_SPANS + spans.ANALYTICS_SPANS:
        target = getattr(checkinsim, module, None)
        if owner:
            target = getattr(target, owner, None)
        if not callable(getattr(target, attr, None)):
            missing.append(".".join(filter(None, (module, owner, attr))))
    for module in spans.HAVERSINE_CALLERS:
        if not callable(getattr(getattr(checkinsim, module, None), "haversine_m", None)):
            missing.append(f"{module}.haversine_m")
    assert missing == []


def test_every_counter_belongs_to_a_span():
    spans = load_spans()
    names = {name for *_, name in spans.RUN_SPANS + spans.CLI_SPANS + spans.ANALYTICS_SPANS}
    assert set(spans.AFTER) - names == set()


def test_mayor_candidate_counter_reads_the_engine():
    spans = load_spans()
    engine = VenueCountingEngine()
    mayor = engine.on_valid_checkin(UserProfile(user_id=3, home=GeoPoint(40.0, -100.0)), 7, 100)[2]
    counters = Counter()
    spans.AFTER["rewards.recompute_mayor"](counters, (engine, 7, 100), mayor)
    assert counters == {"rewards.mayor_candidates": 1}


def test_event_row_counter_counts_the_reader_rows():
    spans = load_spans()
    counted, expected = Counter(), Counter()
    spans.AFTER["tables.load_events"](counted, (GOLDEN_LOG,), load_events(GOLDEN_LOG))
    spans.AFTER["tables.load_events"](expected, (GOLDEN_LOG,), json_load_events(GOLDEN_LOG))
    assert counted == expected == {"tables.event_rows": 1135}


def counting(monkeypatch, module, name):
    """Replace ``module.name`` with a wrapper that records each call's arguments."""
    calls = []
    fn = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


SCENARIO = {"population": {"n_users": 40, "n_venues": 30, "seed": 2, "duration_days": 20,
                           "cheater_fraction": 0.1}}


def test_report_calls_dispersion_through_the_module_global(monkeypatch, tmp_path):
    calls = counting(monkeypatch, analytics, "dispersion")
    result = harness.run_scenario(harness.ScenarioConfig.from_dict(SCENARIO), tmp_path)
    users_with_trace = {r.user_id for r in result.world.events}
    assert len(calls) == len(users_with_trace) > 0


def test_run_projects_the_world_through_the_module_global(monkeypatch, tmp_path):
    calls = counting(monkeypatch, harness, "tables_from_world")
    result = harness.run_scenario(harness.ScenarioConfig.from_dict(SCENARIO), tmp_path)
    assert [args[0] for args in calls] == [result.world]


STRICT_TOUR = {"population": {"n_users": 60, "n_venues": 40, "seed": 5, "duration_days": 20,
                              "cheater_fraction": 0.1},
               "routers": {"coverage": "full", "strict": True},
               "attacks": [{"kind": "tour", "steps": 8, "true_location": [35.0, -90.0]}]}


def test_run_crosses_each_submit_seam_once_per_call(monkeypatch, tmp_path):
    # perfbench's run.verify.*, run.anticheat.* and run.rewards.* layers time
    # these seams; each must be crossed once per check-in it is named for.
    # Planned rows go in through one submit_planned call, attack rows one
    # submit_checkin call each.
    submits = counting(monkeypatch, World, "submit_checkin")
    planned = counting(monkeypatch, World, "submit_planned")
    attests = counting(monkeypatch, checkinsim.world, "attest_checkin")
    evaluations = counting(monkeypatch, UserRuleState, "evaluate_next")
    recomputes = counting(monkeypatch, RewardsEngine, "recompute_mayor")
    mayor_reads = counting(monkeypatch, World, "mayor_of")
    result = harness.run_scenario(harness.ScenarioConfig.from_dict(STRICT_TOUR), tmp_path)
    for venue in result.world.venues:  # a run reads no mayor lazily; read them all
        result.world.mayor_of(venue.venue_id)
    events = result.world.events
    accepted = sum(1 for r in events if r.accepted)
    (planned_args,) = planned
    assert len(planned_args[-1]) + len(submits) == len(events)
    assert len(submits) == result.metrics["attacks"][0]["checkins"] > 0
    assert len(attests) == len(evaluations) == len(events)
    assert 0 < accepted < len(events)
    assert len(mayor_reads) == len(result.world.venues)
    assert len(recomputes) == accepted + len(mayor_reads)
    assert result.metrics["attacks"][0]["checkins"] > 0
