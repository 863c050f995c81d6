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
from checkinsim import analytics, harness
from checkinsim.geo import GeoPoint
from checkinsim.rewards import RewardsEngine
from checkinsim.tables import load_events
from checkinsim.world import UserProfile
from oracles import json_load_events

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
    engine = RewardsEngine()
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
