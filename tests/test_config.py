import json
import re
from pathlib import Path

import pytest

import test_bench_spans
import test_cli
import test_read_mutations
from checkinsim import config, harness
from checkinsim.analytics import DetectionThresholds
from checkinsim.anticheat import RuleConfig
from checkinsim.config import InvalidConfig, Section, dump, load
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


# Every section class with the arguments a minimal instance needs, and its fields
# in the order a dataclass would give them: a subclass's after its base's, a
# redeclared field (an attack's kind) in its base's place.
SECTIONS = {
    PopulationConfig: ({"n_users": 5, "n_venues": 3}, (
        "n_users", "n_venues", "seed", "zero_frac", "low_frac", "mid_frac", "heavy_frac",
        "cheater_fraction", "cheater_strategy", "mayor_special_fraction", "region",
        "duration_days", "venues_per_city", "city_sigma_m", "home_radius_m",
        "venue_pool_radius_m", "gps_noise_m", "low_range", "mid_range", "heavy_range",
        "mid_alpha", "cheater_checkins", "evader_venues")),
    RouterEntry: ({"venue_id": 1}, ("venue_id", "range_m")),
    Routers: ({}, ("coverage", "entries", "range_m", "strict")),
    Tour: ({}, ("kind", "true_location", "start_delay_s", "start", "steps", "step_deg")),
    VacancySweep: ({}, ("kind", "true_location", "start_delay_s", "require_mayor_special",
                        "require_vacant_mayor", "name_filter", "limit")),
    MayorDenial: ({"victim": 1}, ("kind", "true_location", "start_delay_s", "victim")),
    ScenarioConfig: ({"population": PopulationConfig(n_users=5, n_venues=3)}, (
        "population", "rules", "badges", "routers", "attacks", "detection")),
    RuleConfig: ({}, ("frequent_window_s", "max_speed_m_per_s", "rapidfire_side_m",
                      "rapidfire_window_s", "rapidfire_count", "gps_radius_m")),
    BadgeSpec: ({"badge_id": "a", "kind": BadgeKind.DISTINCT_VENUES, "threshold": 1},
                ("badge_id", "kind", "threshold", "window_days")),
    DetectionThresholds: ({}, (
        "v_travel_m_per_s", "cluster_radius_m", "dispersion_min_clusters", "badge_min_checkins",
        "badge_max_badges", "daily_rate_max", "curve_max_total", "registration_span_days",
        "min_account_age_days")),
}
ATTACKS = (Tour, VacancySweep, MayorDenial)
A_CHANGE = {PopulationConfig: {"seed": 9}, RouterEntry: {"range_m": 50.0},
            Routers: {"strict": True}, Tour: {"steps": 3}, VacancySweep: {"limit": 7},
            MayorDenial: {"victim": 2}, ScenarioConfig: {"rules": RuleConfig(gps_radius_m=9.0)},
            RuleConfig: {"gps_radius_m": 9.0}, BadgeSpec: {"threshold": 4},
            DetectionThresholds: {"curve_max_total": 7}}


def all_sections(cls=Section):
    for sub in cls.__subclasses__():
        yield sub
        yield from all_sections(sub)


def test_the_table_holds_every_section():
    assert set(all_sections()) - {harness._Attack} == set(SECTIONS)


@pytest.mark.parametrize("cls", SECTIONS, ids=lambda cls: cls.__name__)
class TestSection:
    def test_fields_in_dataclass_order(self, cls):
        args, fields = SECTIONS[cls]
        assert tuple(cls._spec) == fields
        assert tuple(dump(cls(**args))) == fields

    def test_is_frozen(self, cls):
        section = cls(**SECTIONS[cls][0])
        for name in (*SECTIONS[cls][1], "new_attribute"):
            with pytest.raises(AttributeError, match="frozen"):
                setattr(section, name, 1)
        with pytest.raises(AttributeError, match="frozen"):
            del section.__dict__  # any attribute, the instance dict included
        with pytest.raises(AttributeError, match="frozen"):
            delattr(section, SECTIONS[cls][1][0])
        assert cls(**SECTIONS[cls][0]) == section

    def test_eq_hash_and_repr_follow_the_fields(self, cls):
        args, fields = SECTIONS[cls]
        section, twin = cls(**args), cls(**args)
        assert section == twin and hash(section) == hash(twin)
        assert section != tuple(getattr(section, name) for name in fields)
        assert repr(section) == (f"{cls.__qualname__}("
                                 + ", ".join(f"{name}={getattr(section, name)!r}"
                                             for name in fields) + ")")
        other = section.replace(**A_CHANGE[cls])
        assert other != section and hash(other) != hash(section)
        assert other == cls(**{**args, **A_CHANGE[cls]})
        assert section.replace() == section

    def test_defaults_are_class_attributes(self, cls):
        args, fields = SECTIONS[cls]
        section = cls(**args)
        for name in fields:
            if name in args or cls._spec[name][0] is config._REQUIRED:
                assert name not in vars(cls)
            else:
                assert getattr(cls, name) == getattr(section, name)

    def test_arguments_bind_as_a_call_does(self, cls):
        args, fields = SECTIONS[cls]
        with pytest.raises(TypeError, match="unknown arguments \\['bogus'\\]"):
            cls(**args, bogus=1)
        for name in args:
            with pytest.raises(TypeError, match=f"lacks required arguments \\['{name}'\\]"):
                cls(**{k: v for k, v in args.items() if k != name})
        values = [getattr(cls(**args), name) for name in fields]
        if cls in ATTACKS:  # keywords only
            with pytest.raises(TypeError, match="takes at most 0 positional arguments"):
                cls(*values)
        else:
            assert cls(*values) == cls(**args)
            with pytest.raises(TypeError, match=f"takes at most {len(fields)} positional"):
                cls(*values, None)
            with pytest.raises(TypeError, match="none also passed by keyword; got 1 and keywords"):
                cls(values[0], **{fields[0]: values[0]})


def test_replace_checks_the_fields_again():
    with pytest.raises(InvalidConfig) as err:
        RuleConfig().replace(frequent_window_s=-1)
    assert err.value.path == "frequent_window_s"
    with pytest.raises(InvalidConfig, match="activity fractions must sum to 1"):
        PopulationConfig(n_users=1, n_venues=1).replace(zero_frac=0.5)
    with pytest.raises(TypeError, match="unknown arguments \\['bogus'\\]"):
        RuleConfig().replace(bogus=1)
    assert Tour().replace(steps=3) == Tour(steps=3)


def ci_walkthrough_config():
    text = (ROOT / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8")
    return json.loads(re.search(r"echo '(\{.*?\})' > scenario.json", text, re.S).group(1))


@pytest.mark.parametrize("name, data", [*workload_configs(), ("ci", ci_walkthrough_config())])
def test_dump_keys_follow_the_field_order(name, data):
    def walk(section):
        assert tuple(dump(section)) == SECTIONS[type(section)][1]
        for value in vars(section).values():
            for item in value if isinstance(value, tuple) else (value,):
                if isinstance(item, Section):
                    walk(item)

    walk(load(ScenarioConfig, data))
