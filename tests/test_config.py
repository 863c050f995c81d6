import json
import re
from pathlib import Path

import pytest

import test_bench_spans
import test_cli
import test_read_mutations
from checkinsim.analytics import DetectionThresholds
from checkinsim.anticheat import RuleConfig
from checkinsim.config import InvalidConfig, dump, load
from checkinsim.geo import GeoPoint
from checkinsim.harness import (
    MayorDenial,
    PopulationConfig,
    RouterEntry,
    Routers,
    ScenarioConfig,
    Tour,
    VacancySweep,
)
from checkinsim.rewards import BadgeKind, BadgeSpec

ROOT = Path(__file__).resolve().parent.parent


def workload_configs():
    workloads = json.loads((ROOT / "perfbench" / "workloads.json").read_text(encoding="utf-8"))
    for name, workload in workloads.items():
        yield f"{name}-full", workload["config"]
        tiny = {**workload["config"],
                "population": {**workload["config"]["population"], **workload["tiny"]}}
        yield f"{name}-tiny", tiny


def readme_config():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text[text.index("## Scenario config"):]
    return json.loads(re.search(r"```json\n(.*?)```", section, re.S).group(1))


CONFIGS = dict(workload_configs(), **{
    "README": readme_config(),
    "test_cli": test_cli.SCENARIO,
    "test_bench_spans": test_bench_spans.SCENARIO,
    "test_bench_spans-strict-tour": test_bench_spans.STRICT_TOUR,
    "test_read_mutations": test_read_mutations.SCENARIO,
})


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_load_dump_round_trip(name):
    config = load(ScenarioConfig, CONFIGS[name])
    assert load(ScenarioConfig, json.loads(json.dumps(dump(config)))) == config
    assert load(ScenarioConfig, dump(config)) == config


def test_dump_is_the_resolved_json():
    config = ScenarioConfig.from_dict({
        "population": {"n_users": 5, "n_venues": 3, "region": [1, 2, 3, 4]},
        "badges": [{"badge_id": "a", "kind": "checkins_in_window", "threshold": 2,
                    "window_days": 7}],
        "attacks": [{"kind": "mayor_denial", "victim": 1, "true_location": [0, 0]}],
    })
    data = dump(config)
    assert data["population"]["region"] == [1, 2, 3, 4]
    assert data["population"]["low_range"] == [1, 5]
    assert data["badges"] == [{"badge_id": "a", "kind": "checkins_in_window", "threshold": 2,
                               "window_days": 7}]
    assert data["attacks"] == [{"kind": "mayor_denial", "true_location": [0, 0],
                                "start_delay_s": 600, "victim": 1}]
    assert data["routers"] == {"coverage": "none", "entries": [], "range_m": 100.0,
                               "strict": False}
    assert set(data) == {"population", "rules", "badges", "routers", "attacks", "detection"}


def test_sections_built_in_code_are_checked_and_converted():
    scenario = ScenarioConfig(
        population=PopulationConfig(n_users=5, n_venues=4, region=[1, 2, 3, 4]),
        badges=[{"badge_id": "a", "kind": "distinct_venues", "threshold": 2}],
        routers={"coverage": "listed", "entries": [{"venue_id": 4}]},
        attacks=[{"kind": "tour", "steps": 4, "true_location": [1, 2]},
                 VacancySweep(limit=3, true_location=GeoPoint(1, 2))],
    )
    assert type(scenario.population.region).__name__ == "BBox"
    assert scenario.badges == (BadgeSpec("a", BadgeKind.DISTINCT_VENUES, 2),)
    assert scenario.routers == Routers(coverage="listed", entries=(RouterEntry(venue_id=4),))
    assert scenario.attacks == (Tour(steps=4, true_location=GeoPoint(1, 2)),
                                VacancySweep(limit=3, true_location=GeoPoint(1, 2)))


@pytest.mark.parametrize("build, path", [
    (lambda: RuleConfig(rapidfire_count=True), "rapidfire_count"),
    (lambda: RuleConfig(frequent_window_s=3600.0), "frequent_window_s"),
    (lambda: DetectionThresholds(cluster_radius_m=10 ** 400), "cluster_radius_m"),
    (lambda: BadgeSpec("a", BadgeKind.DISTINCT_VENUES, 2, window_days=3), "window_days"),
    (lambda: BadgeSpec("a", "nope", 2), "kind"),
    (lambda: Tour(step_deg=float("nan")), "step_deg"),
    (lambda: Tour(start=GeoPoint(0, 181)), "start[1]"),
    (lambda: MayorDenial(victim=0), "victim"),
    (lambda: PopulationConfig(n_users=1, n_venues=1, cheater_strategy="teleport"),
     "cheater_strategy"),
    (lambda: PopulationConfig(n_users=1, n_venues=1, evader_venues=(0, 3)), "evader_venues[0]"),
    (lambda: ScenarioConfig(PopulationConfig(n_users=1, n_venues=1),
                            attacks=[{"kind": "tour", "steps": 1}]), "attacks[0].true_location"),
    (lambda: ScenarioConfig(PopulationConfig(n_users=1, n_venues=1),
                            routers={"coverage": "listed", "entries": [{"venue_id": 2}]}),
     "routers.entries[0].venue_id"),
])
def test_refusals_name_the_path(build, path):
    with pytest.raises(InvalidConfig) as err:
        build()
    assert err.value.path == path
    assert str(err.value).startswith(f"{path}: ")


def test_invalid_config_is_a_value_error():
    assert issubclass(InvalidConfig, ValueError)


def test_a_bare_population_document_is_refused():
    with pytest.raises(InvalidConfig, match=r"unknown keys \['n_users', 'n_venues'\]"):
        ScenarioConfig.from_dict({"n_users": 5, "n_venues": 3})
