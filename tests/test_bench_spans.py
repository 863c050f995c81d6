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
import checkinsim.harness
from checkinsim.geo import GeoPoint
from checkinsim.rewards import RewardsEngine
from checkinsim.world import UserProfile

SPANS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


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
