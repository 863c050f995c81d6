import gc
import json
import re

import pytest

from checkinsim import harness
from checkinsim.analytics import speed_feasibility
from checkinsim.attacker import BBox
from checkinsim.config import load
from checkinsim.geo import GeoPoint
from checkinsim.harness import (
    DEFAULT_REGION,
    InvalidConfig,
    MayorDenial,
    PopulationConfig,
    Routers,
    ScenarioConfig,
    generate_population,
    largest_remainder,
    load_scenario,
    run_scenario,
)
from checkinsim.world import World

SMALL = dict(n_users=400, n_venues=120, seed=5, duration_days=60)


class TestLargestRemainder:
    def test_exact_sum(self):
        assert sum(largest_remainder((0.363, 0.204, 0.431, 0.002), 100_000)) == 100_000

    def test_quota_values(self):
        assert largest_remainder((0.363, 0.204, 0.431, 0.002), 1000) == [363, 204, 431, 2]

    def test_rounding_spread(self):
        assert largest_remainder((1 / 3, 1 / 3, 1 / 3), 10) == [4, 3, 3]


class TestConfigValidation:
    def test_fractions_must_sum_to_one(self):
        with pytest.raises(InvalidConfig):
            PopulationConfig(n_users=10, n_venues=5, zero_frac=0.9)

    def test_unknown_strategy_rejected(self):
        with pytest.raises(InvalidConfig):
            PopulationConfig(n_users=10, n_venues=5, cheater_strategy="drive_fast")

    def test_degenerate_region_rejected(self):
        with pytest.raises(InvalidConfig):
            PopulationConfig(n_users=10, n_venues=5, region=BBox(40, -100, 39, -101))

    def test_load_rejects_unknown_keys(self):
        with pytest.raises(InvalidConfig, match="'color'"):
            load(PopulationConfig, {"n_users": 10, "n_venues": 5, "color": "red"})

    def test_load_parses_region(self):
        cfg = load(PopulationConfig,
                   {"n_users": 10, "n_venues": 5, "region": [39.0, -105.0, 41.0, -100.0]})
        assert cfg.region == BBox(39.0, -105.0, 41.0, -100.0)


class TestGeneratePopulation:
    def test_deterministic_given_seed(self):
        w1 = generate_population(PopulationConfig(**SMALL))
        w2 = generate_population(PopulationConfig(**SMALL))
        assert w1.fingerprint() == w2.fingerprint()

    def test_different_seed_differs(self):
        w1 = generate_population(PopulationConfig(**SMALL))
        w2 = generate_population(PopulationConfig(**{**SMALL, "seed": 6}))
        assert w1.fingerprint() != w2.fingerprint()

    def test_tier_quotas_exact_without_cheaters(self):
        world = generate_population(PopulationConfig(n_users=1000, n_venues=200, seed=2))
        bins = {"zero": 0, "low": 0, "mid": 0, "heavy": 0}
        for u in world.users:
            n = u.total_checkins
            bins["zero" if n == 0 else "low" if n <= 5 else "mid" if n < 1000 else "heavy"] += 1
        assert bins == {"zero": 363, "low": 204, "mid": 431, "heavy": 2}

    def test_cheaters_marked_and_active(self):
        cfg = PopulationConfig(**{**SMALL, "cheater_fraction": 0.05})
        world = generate_population(cfg)
        cheaters = [u for u in world.users if u.is_cheater_ground_truth]
        assert len(cheaters) == 20
        for u in cheaters:
            assert u.total_checkins >= cfg.cheater_checkins[0]

    def test_honest_traces_within_mobility_bound(self):
        world = generate_population(PopulationConfig(**SMALL))
        traces = {}
        for r in world.events:
            traces.setdefault(r.user_id, []).append((r.t, GeoPoint(r.reported_lat, r.reported_lon)))
        for uid, trace in traces.items():
            assert speed_feasibility(trace, v_travel_m_per_s=40.0) == 0

    def test_honest_population_is_nearly_all_valid(self):
        world = generate_population(PopulationConfig(**SMALL))
        assert world.valid_count() == len(world.events)

    def test_scheduled_evader_strategy_passes_rules(self):
        cfg = PopulationConfig(**{**SMALL, "cheater_fraction": 0.03,
                                  "cheater_strategy": "scheduled_evader"})
        world = generate_population(cfg)
        cheater_ids = {u.user_id for u in world.users if u.is_cheater_ground_truth}
        cheater_events = [r for r in world.events if r.user_id in cheater_ids]
        assert cheater_events
        assert all(r.accepted for r in cheater_events)


class TestRunScenario:
    def _scenario(self, **overrides):
        population = PopulationConfig(**{**SMALL, **overrides.pop("population", {})})
        return ScenarioConfig(population=population, **overrides)

    def test_artifacts_written(self, tmp_path):
        result = run_scenario(self._scenario(), tmp_path / "out")
        for name in ("UserInfo.csv", "VenueInfo.csv", "RecentCheckin.csv", "events.jsonl",
                     "report.csv", "recent_ratio_curve.csv", "badge_curve.csv", "metrics.json"):
            assert (tmp_path / "out" / name).is_file(), name
        metrics = json.loads((tmp_path / "out" / "metrics.json").read_text())
        assert metrics["n_users"] == 400
        assert metrics["total_checkins"] == len(result.world.events)

    def test_only_a_world_with_a_run_document_writes_run_json(self, tmp_path):
        paths = harness.write_exports(World(), tmp_path / "bare")[1]
        assert "run" not in paths and not (tmp_path / "bare" / "run.json").exists()
        world, _ = harness.build_world(self._scenario())
        loaded = World.load_state(world.save_state(tmp_path / "w.snap"))
        assert loaded.run == world.run
        harness.write_exports(loaded, tmp_path / "out")
        assert harness.load_run_file(tmp_path / "out") == self._scenario()

    def test_byte_identical_reruns(self, tmp_path):
        scenario = self._scenario(population={"cheater_fraction": 0.05})
        run_scenario(scenario, tmp_path / "a")
        run_scenario(scenario, tmp_path / "b")
        for name in ("UserInfo.csv", "VenueInfo.csv", "RecentCheckin.csv", "events.jsonl",
                     "report.csv", "recent_ratio_curve.csv", "badge_curve.csv", "metrics.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes(), name

    def test_seed_override_changes_outputs(self, tmp_path):
        scenario = self._scenario()
        run_scenario(scenario, tmp_path / "a", seed=100)
        run_scenario(scenario, tmp_path / "b", seed=101)
        assert (tmp_path / "a" / "events.jsonl").read_bytes() != \
            (tmp_path / "b" / "events.jsonl").read_bytes()

    def test_tour_attack_script(self, tmp_path):
        scenario = self._scenario(attacks=(
            {"kind": "tour", "steps": 10, "true_location": [64.8, -147.7]},
        ))
        result = run_scenario(scenario, tmp_path / "out")
        attack = result.metrics["attacks"][0]
        assert attack["checkins"] == 10
        assert attack["valid"] == 10
        assert attack["points"] == 10

    def test_vacancy_sweep_attack_script(self, tmp_path):
        scenario = self._scenario(
            population={"n_users": 50, "mayor_special_fraction": 0.5},
            attacks=({"kind": "vacancy_sweep", "limit": 12, "true_location": [48.85, 2.35]},),
        )
        result = run_scenario(scenario, tmp_path / "out")
        attack = result.metrics["attacks"][0]
        assert attack["valid"] == attack["checkins"] > 0
        assert attack["mayorships"] == attack["checkins"]

    def test_mayor_denial_attack_script(self, tmp_path):
        scenario = self._scenario(
            population=dict(n_users=30, n_venues=40, seed=9),
            attacks=({"kind": "mayor_denial", "victim": 1, "true_location": [51.5, -0.1]},),
        )
        result = run_scenario(scenario, tmp_path / "out")
        assert result.metrics["attacks"][0]["kind"] == "mayor_denial"

    def test_strict_router_scenario_blocks_spoofer(self, tmp_path):
        scenario = self._scenario(
            population=dict(n_users=20, n_venues=30, seed=4),
            routers=Routers(coverage="full", strict=True),
            attacks=({"kind": "tour", "steps": 8, "true_location": [35.68, 139.69]},),
        )
        result = run_scenario(scenario, tmp_path / "out")
        attack = result.metrics["attacks"][0]
        assert attack["checkins"] == 8 and attack["valid"] == 0
        assert attack["mayorships"] == 0

    def test_unknown_attack_kind_rejected(self):
        with pytest.raises(InvalidConfig, match=re.escape("attacks[0].kind")):
            self._scenario(attacks=({"kind": "bribe", "true_location": [0, 0]},))

    @pytest.mark.parametrize("attack, key", [
        ({"kind": "tour", "step": 3}, "step"),
        ({"kind": "tour", "victim": 1}, "victim"),
        ({"kind": "tour", "start_delay": 60}, "start_delay"),
        ({"kind": "vacancy_sweep", "steps": 5}, "steps"),
        ({"kind": "vacancy_sweep", "require_special": True}, "require_special"),
        ({"kind": "mayor_denial", "victim": 1, "limit": 3}, "limit"),
    ])
    def test_unknown_attack_keys_rejected(self, attack, key):
        with pytest.raises(InvalidConfig, match=f"'{key}'"):
            self._scenario(population=dict(n_users=10, n_venues=6),
                           attacks=({**attack, "true_location": [0, 0]},))


class TestScenarioLoading:
    def test_load_json_round_trip(self, tmp_path):
        config = {
            "population": {"n_users": 50, "n_venues": 20, "seed": 3},
            "rules": {"gps_radius_m": 400.0},
            "badges": [{"badge_id": "adventurer", "kind": "distinct_venues", "threshold": 10}],
            "routers": {"coverage": "full", "range_m": 80, "strict": True},
            "attacks": [{"kind": "tour", "steps": 5, "true_location": [10.0, 10.0]}],
        }
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(config))
        scenario = load_scenario(path)
        assert scenario.population.n_users == 50
        assert scenario.rules.gps_radius_m == 400.0
        assert scenario.routers.coverage == "full" and scenario.routers.strict
        assert scenario.badges[0].badge_id == "adventurer"

    def test_listed_router_coverage(self, tmp_path):
        config = {
            "population": {"n_users": 10, "n_venues": 6, "seed": 1},
            "routers": {"coverage": "listed", "strict": True,
                        "entries": [{"venue_id": 1, "range_m": 60},
                                    {"venue_id": 2}]},
        }
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(config))
        scenario = load_scenario(path)
        result = run_scenario(scenario, tmp_path / "out")
        routers = result.world.routers
        assert set(routers) == {1, 2}
        assert routers[1].range_m == 60
        assert routers[2].range_m == 100.0

    @pytest.mark.parametrize("config, key", [
        ({"export_snapshot": True}, "export_snapshot"),
        ({"router": {"coverage": "full"}}, "router"),
        ({"routers": {"coverage": "full", "strict_verify": True}}, "strict_verify"),
        ({"detection": {"v_travel": 1}}, "v_travel"),
    ])
    def test_unknown_keys_are_config_errors(self, config, key):
        with pytest.raises(InvalidConfig, match=key):
            ScenarioConfig.from_dict({"population": {"n_users": 10, "n_venues": 6}, **config})

    @pytest.mark.parametrize("config, field", [
        ({"attacks": ["tour"]}, "attacks[0]: must be an object"),
        ({"attacks": {"kind": "tour"}}, "attacks: must be a list"),
        ({"attacks": [{"kind": "bribe", "true_location": [0, 0]}]}, "'bribe'"),
        ({"attacks": [{"kind": "tour", "true_location": [0, 0]},
                      {"kind": "tour", "step": 3, "true_location": [0, 0]}]}, "attacks[1]"),
        ({"attacks": [{"kind": "tour"}]}, "true_location"),
        ({"attacks": [{"kind": "mayor_denial", "true_location": [0, 0]}]}, "victim"),
        ({"detection": {"cluster_radius_m": "x"}}, "detection.cluster_radius_m"),
        ({"detection": {"cluster_radius_m": -1}}, "detection.cluster_radius_m"),
        ({"detection": {"cluster_radius_m": 0}}, "detection.cluster_radius_m"),
        ({"detection": {"cluster_radius_m": float("nan")}}, "detection.cluster_radius_m"),
        ({"detection": {"v_travel_m_per_s": 0.0}}, "detection.v_travel_m_per_s"),
        ({"detection": {"v_travel_m_per_s": float("inf")}}, "detection.v_travel_m_per_s"),
        ({"detection": {"dispersion_min_clusters": True}}, "detection.dispersion_min_clusters"),
        ({"detection": {"daily_rate_max": "16"}}, "detection.daily_rate_max"),
        ({"detection": {"badge_max_badges": None}}, "detection.badge_max_badges"),
        ({"rules": {"gps_radius_m": float("nan")}}, "rules.gps_radius_m"),
        ({"rules": {"max_speed_m_per_s": float("inf")}}, "rules.max_speed_m_per_s"),
        ({"rules": {"gps_radius_m": True}}, "rules.gps_radius_m"),
        ({"rules": {"frequent_window_s": "x"}}, "rules.frequent_window_s"),
        ({"rules": {"rapidfire_count": None}}, "rules.rapidfire_count"),
        ({"rules": {"rapidfire_side_m": [180]}}, "rules.rapidfire_side_m"),
        ({"rules": {"rapidfire_window_s": -60}}, "rules.rapidfire_window_s"),
        ({"routers": {"coverage": "full", "range_m": float("nan"), "strict": True}},
         "routers.range_m"),
        ({"routers": {"coverage": "full", "range_m": float("-inf")}}, "routers.range_m"),
        ({"routers": {"coverage": "full", "range_m": True}}, "routers.range_m"),
        ({"routers": {"coverage": "full", "range_m": "x"}}, "routers.range_m"),
        ({"routers": {"coverage": "full", "range_m": 0}}, "routers.range_m"),
        ({"routers": {"coverage": "listed", "entries": {"venue_id": 1}}}, "routers.entries"),
        ({"routers": {"coverage": "listed", "entries": [1]}}, "routers.entries[0]"),
        ({"routers": {"coverage": "listed",
                      "entries": [{"venue_id": 1}, {"venue_id": 2, "range_m": float("inf")}]}},
         "routers.entries[1].range_m"),
        ({"routers": {"coverage": "listed", "entries": [{"venue_id": 1, "range_m": False}]}},
         "routers.entries[0].range_m"),
        ({"routers": {"coverage": "listed",
                      "entries": [{"venue_id": 1, "processing_delay_s": 1e-6}]}},
         "routers.entries[0]: unknown keys ['processing_delay_s']"),
        ({"routers": {"coverage": "full", "entries": [{"venue_id": 2, "range_m": 60}]}},
         "routers.entries: must be empty"),
        ({"routers": {"coverage": "none", "entries": [{"venue_id": 2, "range_m": 60}]}},
         "routers.entries: must be empty"),
        ({"routers": {"coverage": "listed", "entries": [{"venue_id": 2, "range_m": 60},
                                                        {"venue_id": 2, "range_m": 500}]}},
         "routers.entries[1].venue_id: venue 2 is listed twice"),
        ({"routers": {"coverage": "listed", "entries": [{"range_m": 60}]}},
         "routers.entries[0].venue_id"),
        ({"routers": {"coverage": "listed", "entries": [{"venue_id": 1}, {"venue_id": 7}]}},
         "routers.entries[1].venue_id"),
        ({"routers": {"coverage": "listed", "entries": [{"venue_id": "1"}]}},
         "routers.entries[0].venue_id"),
        ({"routers": {"coverage": "listed", "entries": [{"venue_id": True}]}},
         "routers.entries[0].venue_id"),
        ({"routers": {"coverage": "listed", "entries": [{"venue_id": 1, "range": 60}]}},
         "routers.entries[0]: unknown keys ['range']"),
        ({"routers": {"coverage": "full", "strict": "no"}}, "routers.strict"),
    ])
    def test_bad_values_are_config_errors(self, config, field):
        with pytest.raises(InvalidConfig, match=re.escape(field)):
            ScenarioConfig.from_dict({"population": {"n_users": 10, "n_venues": 6}, **config})

    def test_good_detection_and_attacks_load(self):
        scenario = ScenarioConfig.from_dict({
            "population": {"n_users": 10, "n_venues": 6},
            "detection": {"cluster_radius_m": 10_000, "v_travel_m_per_s": 120.5,
                          "dispersion_min_clusters": 3},
            "attacks": [{"kind": "mayor_denial", "victim": 1, "true_location": [0, 0]}],
        })
        assert scenario.detection.cluster_radius_m == 10_000
        assert scenario.attacks[0] == MayorDenial(victim=1, true_location=GeoPoint(0, 0))

    def test_missing_file_is_config_error(self, tmp_path):
        with pytest.raises(InvalidConfig):
            load_scenario(tmp_path / "nope.json")

    def test_bad_json_is_config_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(InvalidConfig):
            load_scenario(path)

    def test_default_region_is_sane(self):
        assert DEFAULT_REGION.min_lat < DEFAULT_REGION.max_lat
        assert DEFAULT_REGION.min_lon < DEFAULT_REGION.max_lon


class TestCollectorPolicy:
    def test_collector_is_off_during_run(self, tmp_path, monkeypatch, collector_state):
        seen = []
        build_world = harness.build_world
        monkeypatch.setattr(harness, "build_world",
                            lambda *args: seen.append(gc.isenabled()) or build_world(*args))
        gc.enable()
        run_scenario(ScenarioConfig(PopulationConfig(n_users=30, n_venues=20, seed=1,
                                                     duration_days=10)), tmp_path)
        assert seen == [False] and gc.isenabled()

    @pytest.mark.parametrize("enabled", [True, False])
    def test_run_restores_collector_state(self, tmp_path, collector_state, enabled):
        gc.enable() if enabled else gc.disable()
        run_scenario(ScenarioConfig(PopulationConfig(n_users=30, n_venues=20, seed=1,
                                                     duration_days=10)), tmp_path)
        assert gc.isenabled() is enabled

    @pytest.mark.parametrize("enabled", [True, False])
    def test_failed_run_restores_collector_state(self, tmp_path, monkeypatch, collector_state,
                                                 enabled):
        def fail(*args):
            raise RuntimeError("build failed")

        monkeypatch.setattr(harness, "build_world", fail)
        scenario = ScenarioConfig(PopulationConfig(n_users=30, n_venues=20, seed=1))
        gc.enable() if enabled else gc.disable()
        with pytest.raises(RuntimeError):
            run_scenario(scenario, tmp_path)
        assert gc.isenabled() is enabled

    @pytest.mark.parametrize("enabled", [True, False])
    def test_build_world_submits_with_the_collector_off(self, monkeypatch, collector_state,
                                                        enabled):
        seen = []
        submit_planned = World.submit_planned
        monkeypatch.setattr(World, "submit_planned",
                            lambda *args: seen.append(gc.isenabled()) or submit_planned(*args))
        gc.enable() if enabled else gc.disable()
        world = generate_population(PopulationConfig(n_users=30, n_venues=20, seed=1,
                                                     duration_days=10))
        assert seen == [False] and len(world.events) > 0
        assert gc.isenabled() is enabled

    @pytest.mark.parametrize("enabled", [True, False])
    def test_failed_build_world_restores_collector_state(self, monkeypatch, collector_state,
                                                         enabled):
        def fail(*args):
            assert not gc.isenabled()
            raise RuntimeError("submit failed")

        monkeypatch.setattr(World, "submit_planned", fail)
        gc.enable() if enabled else gc.disable()
        with pytest.raises(RuntimeError, match="submit failed"):
            harness.build_world(ScenarioConfig(PopulationConfig(n_users=30, n_venues=20, seed=1)))
        assert gc.isenabled() is enabled

    def test_cyclic_garbage_does_not_grow_with_run_size(self, tmp_path, collector_state):
        found, checkins = [], []
        for n_users in (30, 600):
            scenario = ScenarioConfig.from_dict({
                "population": {"n_users": n_users, "n_venues": 40, "seed": 3,
                               "duration_days": 30, "cheater_fraction": 0.05},
                "routers": {"coverage": "full", "strict": True},
                "attacks": [{"kind": "tour", "steps": 5, "true_location": [35.0, -90.0]}],
            })
            gc.collect()
            gc.disable()  # no automatic collection between the run and the count
            checkins.append(len(run_scenario(scenario, tmp_path / str(n_users)).world.events))
            found.append(gc.collect())
        assert checkins[1] > 10 * checkins[0]
        assert found[0] == found[1], found
