import copy
import gc
import json
import random
import shutil
from pathlib import Path

import pytest

import checkinsim
import oracles
from checkinsim import analytics, cli
from checkinsim.anticheat import RuleConfig
from checkinsim.cli import main
from checkinsim.harness import ScenarioConfig, build_world, load_scenario, seeded
from checkinsim.tables import load_events, load_tables
from checkinsim.world import World

GOLDEN = Path(__file__).parent / "data" / "golden"

SCENARIO = {
    "population": {"n_users": 60, "n_venues": 40, "seed": 11, "duration_days": 30},
    "attacks": [{"kind": "tour", "steps": 6, "true_location": [35.0, -90.0]}],
}


@pytest.fixture()
def scenario_path(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(SCENARIO))
    return path


def read_all(directory, names):
    return {name: (directory / name).read_bytes() for name in names}


class TestExitCodes:
    def test_missing_config_exits_1(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path / "none.json"),
                     "--out", str(tmp_path / "out")]) == 1
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "generate"])
    @pytest.mark.parametrize("name, reason", [("none.json", "No such file or directory"),
                                              ("adir", "Is a directory")])
    def test_unreadable_config_named_once(self, tmp_path, capsys, command, name, reason):
        (tmp_path / "adir").mkdir()
        path = tmp_path / name
        assert main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err == f"checkinsim: config error: {path}: {reason}\n"

    def test_usage_error_exits_1(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["run"])  # missing required arguments
        assert err.value.code == 1

    @pytest.mark.parametrize("config, key", [
        ({"attacks": [{"kind": "tour", "step": 3, "true_location": [35.0, -90.0]}]}, "step"),
        ({"detection": {"v_travel": 1}}, "v_travel"),
        ({"routers": {"coverage": "listed",
                      "entries": [{"venue_id": 1, "processing_delay_s": 1e-6}]}},
         "processing_delay_s"),
    ])
    def test_unknown_config_key_exits_1(self, tmp_path, capsys, config, key):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({"population": SCENARIO["population"], **config}))
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        assert f"'{key}'" in capsys.readouterr().err

    @pytest.mark.parametrize("config, field", [
        ({"attacks": ["tour"]}, "attacks[0]"),
        ({"detection": {"cluster_radius_m": "x"}}, "detection.cluster_radius_m"),
        ({"detection": {"cluster_radius_m": -1}}, "detection.cluster_radius_m"),
        ('"rules": {"gps_radius_m": NaN}', "rules.gps_radius_m"),
        ('"rules": {"max_speed_m_per_s": Infinity}', "rules.max_speed_m_per_s"),
        ('"rules": {"gps_radius_m": true}', "rules.gps_radius_m"),
        ('"routers": {"coverage": "full", "strict": true, "range_m": NaN}', "routers.range_m"),
        ('"routers": {"coverage": "full", "strict": true, "range_m": true}', "routers.range_m"),
        ('"routers": {"coverage": "full", "range_m": "x"}', "routers.range_m"),
        ('"routers": {"coverage": "full", "entries": [{"venue_id": 2, "range_m": 60}]}',
         "routers.entries"),
        ('"routers": {"coverage": "none", "entries": [{"venue_id": 2, "range_m": 60}]}',
         "routers.entries"),
        ('"routers": {"coverage": "listed", "entries": [{"venue_id": 2, "range_m": 60}, '
         '{"venue_id": 2, "range_m": 500}]}', "routers.entries[1].venue_id"),
    ])
    def test_bad_config_value_exits_1(self, tmp_path, capsys, config, field):
        # a str is a config's JSON text as written, NaN and Infinity included
        path = tmp_path / "scenario.json"
        population = json.dumps({"population": SCENARIO["population"]})
        path.write_text(population[:-1] + ", " + config + "}" if isinstance(config, str)
                        else json.dumps({"population": SCENARIO["population"], **config}))
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        assert field in capsys.readouterr().err
        assert not (tmp_path / "out").exists()  # refused before any world was built

    @pytest.mark.parametrize("population, sections, field", [
        ({"n_users": "10"}, {}, "population.n_users"),
        ({"seed": True}, {}, "population.seed"),
        ({"n_venues": 1.5}, {}, "population.n_venues"),
        ({"duration_days": 1.5}, {}, "population.duration_days"),
        ({"duration_days": 200_000_000_000_000}, {}, "population.duration_days"),
        ({"venues_per_city": 0}, {}, "population.venues_per_city"),
        ({"mid_alpha": 1}, {}, "population.mid_alpha"),
        ({"gps_noise_m": float("nan")}, {}, "population.gps_noise_m"),
        ({"low_range": [5, 1]}, {}, "population.low_range"),
        ({"region": [1, 2]}, {}, "population.region"),
        ({"region": [0, 0, 91, 1]}, {}, "population.region[2]"),
        ({}, {"badges": [{"kind": "distinct_venues", "threshold": 3}]}, "badges[0].badge_id"),
        ({}, {"badges": [{"badge_id": "a", "kind": "distinct_venues", "threshold": "x"}]},
         "badges[0].threshold"),
        ({}, {"badges": [{"badge_id": "a", "kind": "nope", "threshold": 3}]}, "badges[0].kind"),
        ({}, {"badges": 5}, "badges"),
        ({}, {"badges": [{"badge_id": "a", "kind": "distinct_venues", "threshold": 3},
                         {"badge_id": "a", "kind": "distinct_venues", "threshold": 5}]}, "badges"),
        ({}, {"attacks": [{"kind": "tour", "steps": 0, "true_location": [1, 2]}]},
         "attacks[0].steps"),
        ({}, {"attacks": [{"kind": "tour", "steps": "x", "true_location": [1, 2]}]},
         "attacks[0].steps"),
        ({}, {"attacks": [{"kind": "tour", "true_location": [1]}]}, "attacks[0].true_location"),
        ({}, {"attacks": [{"kind": "tour", "true_location": [999, 0]}]},
         "attacks[0].true_location[0]"),
        ({}, {"attacks": [{"kind": "mayor_denial", "victim": "a", "true_location": [1, 2]}]},
         "attacks[0].victim"),
        ({}, {"attacks": [{"kind": "vacancy_sweep", "limit": -1, "true_location": [1, 2]}]},
         "attacks[0].limit"),
        ({}, {"detection": {"dispersion_min_clusters": 0}}, "detection.dispersion_min_clusters"),
        ({}, {"detection": {"dispersion_min_clusters": 1.5}}, "detection.dispersion_min_clusters"),
        ({}, {"detection": {"daily_rate_max": float("nan")}}, "detection.daily_rate_max"),
        ({}, {"detection": {"min_account_age_days": 0.5}}, "detection.min_account_age_days"),
        # checks that span sections: the population bounds victims and tour lengths
        ({}, {"attacks": [{"kind": "mayor_denial", "victim": 9999, "true_location": [1, 2]}]},
         "attacks[0].victim"),
        ({}, {"attacks": [{"kind": "tour", "true_location": [1, 2]},
                          {"kind": "mayor_denial", "victim": 62, "true_location": [1, 2]}]},
         "attacks[1].victim"),
        ({}, {"attacks": [{"kind": "tour", "steps": 41, "true_location": [1, 2]}]},
         "attacks[0].steps"),
    ])
    def test_bad_typed_field_exits_1(self, tmp_path, capsys, population, sections, field):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({"population": {**SCENARIO["population"], **population},
                                    **sections}))
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        assert f"config error: {path}: {field}: " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()  # refused before any world was built

    @pytest.mark.parametrize("short_of_2_63", [0, 1])
    def test_start_delay_past_2_63_exits_1_naming_the_attack(self, tmp_path, capsys,
                                                              short_of_2_63):
        # The first check-in lands at 2**63, or just below it with the second past it.
        # An empty sweep before the tour leaves the clock where generation left it.
        population = {"n_users": 10, "n_venues": 2}
        clock = build_world(ScenarioConfig.from_dict({"population": population}))[0].clock.now
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({"population": population, "attacks": [
            {"kind": "vacancy_sweep", "name_filter": "no such venue", "true_location": [40, -100]},
            {"kind": "tour", "steps": 2, "true_location": [40, -100],
             "start_delay_s": 2 ** 63 - clock - short_of_2_63}]}))
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        assert f"config error: {path}: attacks[1].start_delay_s: must put every check-in " \
            "below 2**63" in capsys.readouterr().err

    @pytest.mark.parametrize("region", [[89.99, 0, 90, 1], [0, 179.99, 1, 180],
                                        [-90, -180, -89.99, -179.99]])
    def test_region_at_a_pole_or_the_antimeridian_runs(self, tmp_path, region):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({"population": {**SCENARIO["population"], "region": region},
                                    "attacks": SCENARIO["attacks"]}))
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 0

    def test_mutated_configs_exit_0_or_1(self, tmp_path, capsys):
        # one field of a small config set to a value from a pool, 60 times over
        base = {
            "population": {"n_users": 30, "n_venues": 20, "seed": 2, "duration_days": 10,
                           "cheater_fraction": 0.1, "region": [40.0, -80.0, 40.5, -79.5],
                           "low_range": [1, 5], "mid_range": [6, 40], "heavy_range": [50, 60]},
            "rules": {"gps_radius_m": 500.0, "rapidfire_count": 4},
            "badges": [{"badge_id": "adventurer", "kind": "distinct_venues", "threshold": 10},
                       {"badge_id": "month", "kind": "checkins_in_window", "threshold": 5,
                        "window_days": 30}],
            "routers": {"coverage": "listed", "range_m": 100.0, "strict": True,
                        "entries": [{"venue_id": 2, "range_m": 60.0}]},
            "attacks": [
                {"kind": "tour", "steps": 5, "step_deg": 0.01, "start": [40.2, -79.8],
                 "true_location": [35.0, -90.0], "start_delay_s": 60},
                {"kind": "vacancy_sweep", "limit": 5, "require_mayor_special": False,
                 "name_filter": "a", "true_location": [35.0, -90.0]},
                {"kind": "mayor_denial", "victim": 3, "true_location": [35.0, -90.0]},
            ],
            "detection": {"cluster_radius_m": 10_000.0, "dispersion_min_clusters": 3,
                          "daily_rate_max": 16.0, "min_account_age_days": 30.0},
        }
        pool = [True, False, "x", "", None, [], {}, float("inf"), float("-inf"), float("nan"),
                -1, 0, 0.5, 1, 7]

        def slots(node, path=()):
            items = node.items() if isinstance(node, dict) else enumerate(node)
            for key, value in items:
                yield path + (key,)
                if isinstance(value, (dict, list)):
                    yield from slots(value, path + (key,))

        rng = random.Random(11)
        every = list(slots(base))
        codes = set()
        for i in range(60):
            config = copy.deepcopy(base)
            *parents, last = rng.choice(every)
            node = config
            for key in parents:
                node = node[key]
            node[last] = rng.choice(pool)
            path = tmp_path / f"scenario{i}.json"
            path.write_text(json.dumps(config))
            code = main(["run", "--config", str(path), "--out", str(tmp_path / f"out{i}")])
            err = capsys.readouterr().err
            assert code in (0, 1), (parents, last, node[last], err)
            assert "Traceback" not in err
            codes.add(code)
        assert codes == {0, 1}

    def test_unreadable_snapshot_exits_2(self, tmp_path, capsys):
        snap = tmp_path / "junk.snap"
        snap.write_bytes(b"garbage")
        assert main(["export", "--snapshot", str(snap), "--out", str(tmp_path / "o")]) == 2


class TestRunAndDetect:
    def test_run_twice_is_byte_identical(self, tmp_path, scenario_path):
        files = ("UserInfo.csv", "VenueInfo.csv", "RecentCheckin.csv", "events.jsonl",
                 "report.csv", "metrics.json")
        assert main(["run", "--config", str(scenario_path), "--out", str(tmp_path / "a")]) == 0
        assert main(["run", "--config", str(scenario_path), "--out", str(tmp_path / "b")]) == 0
        assert read_all(tmp_path / "a", files) == read_all(tmp_path / "b", files)

    def test_seed_flag_overrides(self, tmp_path, scenario_path):
        main(["run", "--config", str(scenario_path), "--seed", "77", "--out", str(tmp_path / "a")])
        main(["run", "--config", str(scenario_path), "--seed", "78", "--out", str(tmp_path / "b")])
        assert (tmp_path / "a" / "events.jsonl").read_bytes() != \
            (tmp_path / "b" / "events.jsonl").read_bytes()

    def test_detect_on_exports(self, tmp_path, scenario_path, capsys):
        main(["run", "--config", str(scenario_path), "--out", str(tmp_path / "out")])
        assert main(["detect", "--in", str(tmp_path / "out"),
                     "--out", str(tmp_path / "report2.csv")]) == 0
        produced = (tmp_path / "report2.csv").read_bytes()
        assert produced == (tmp_path / "out" / "report.csv").read_bytes()

    def test_run_json_records_the_resolved_scenario(self, tmp_path, scenario_path):
        for command, out in (("run", "a"), ("run", "b"), ("generate", "gen")):
            assert main([command, "--config", str(scenario_path), "--seed", "77",
                         "--out", str(tmp_path / out)]) == 0
        data = (tmp_path / "a" / "run.json").read_bytes()
        assert data == (tmp_path / "b" / "run.json").read_bytes()
        assert data == (tmp_path / "gen" / "run.json").read_bytes()
        run = json.loads(data)
        assert run["version"] == checkinsim.__version__
        assert run["scenario"]["population"]["seed"] == 77
        assert ScenarioConfig.from_dict(run["scenario"]) == \
            seeded(load_scenario(scenario_path), 77)

    def test_replay_uses_the_runs_rules(self, tmp_path, capsys):
        config = tmp_path / "rules.json"
        config.write_text(json.dumps({
            "population": {"n_users": 300, "n_venues": 60, "seed": 3},
            "rules": {"frequent_window_s": 60, "gps_radius_m": 5}}))
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
        assert main(["verify-replay", "--in", str(tmp_path / "out")]) == 0
        assert "3086 events, 0 mismatches" in capsys.readouterr().out

    def test_detect_uses_the_runs_detection(self, tmp_path, capsys):
        config = tmp_path / "detection.json"
        config.write_text(json.dumps({
            "population": {"n_users": 300, "n_venues": 60, "seed": 3, "cheater_fraction": 0.05},
            "detection": {"cluster_radius_m": 1000, "dispersion_min_clusters": 3}}))
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
        assert "flagged 47" in capsys.readouterr().out
        assert main(["detect", "--in", str(tmp_path / "out"),
                     "--out", str(tmp_path / "report.csv")]) == 0
        assert "47 flagged" in capsys.readouterr().out
        assert (tmp_path / "report.csv").read_bytes() == \
            (tmp_path / "out" / "report.csv").read_bytes()

    @pytest.mark.parametrize("command", ["detect", "verify-replay"])
    @pytest.mark.parametrize("text, where", [
        ('{"version": "0.1.0", "scenario": {"population": {"n_users": 5, "n_venues": 3}, '
         '"detection": {"cluster_radius_m": -1}}}', "scenario.detection.cluster_radius_m"),
        ('{"version": "0.1.0"}', "scenario"),
        ("not json", "Expecting value"),
    ])
    def test_bad_run_json_exits_1(self, tmp_path, scenario_path, capsys, command, text, where):
        out = tmp_path / "out"
        main(["run", "--config", str(scenario_path), "--out", str(out)])
        (out / "run.json").write_text(text)
        argv = [command, "--in", str(out)] + (["--out", str(tmp_path / "r.csv")]
                                              if command == "detect" else [])
        capsys.readouterr()
        assert main(argv) == 1
        assert f"config error: {out / 'run.json'}: {where}" in capsys.readouterr().err

    def test_detect_matches_golden_report(self, tmp_path):
        # frozen exports from a verified run; detect must reproduce its report
        exports = tmp_path / "exports"
        shutil.copytree(GOLDEN, exports)
        assert main(["detect", "--in", str(exports),
                     "--out", str(tmp_path / "report.csv")]) == 0
        assert (tmp_path / "report.csv").read_bytes() == (GOLDEN / "report.csv").read_bytes()

    def test_detect_rejects_recent_above_total(self, tmp_path, capsys):
        exports = tmp_path / "exports"
        shutil.copytree(GOLDEN, exports)
        users = exports / "UserInfo.csv"
        lines = users.read_text().splitlines()
        user_id, total, badges, mayors, _ = lines[1].split(",")
        lines[1] = ",".join([user_id, total, badges, mayors, str(int(total) + 1)])
        users.write_text("\n".join(lines) + "\n")
        assert main(["detect", "--in", str(exports),
                     "--out", str(tmp_path / "report.csv")]) == 2
        assert capsys.readouterr().err == (f"checkinsim: error: UserInfo.csv:2: recent_checkins "
                                           f"{int(total) + 1} exceeds total_checkins {total}\n")

    @pytest.mark.parametrize("command", ["detect", "verify-replay"])
    def test_directory_without_event_log_exits_1(self, tmp_path, capsys, command):
        exports = tmp_path / "exports"
        shutil.copytree(GOLDEN, exports)
        (exports / "events.jsonl").unlink()
        args = [command, "--in", str(exports)]
        if command == "detect":
            args += ["--out", str(tmp_path / "report.csv")]
        assert main(args) == 1
        assert (f"config error: event log not found: {exports / 'events.jsonl'}"
                in capsys.readouterr().err)
        assert not (tmp_path / "report.csv").exists()

    @pytest.mark.parametrize("command", ["detect", "verify-replay"])
    def test_event_at_unknown_venue_exits_2(self, tmp_path, capsys, command):
        exports = tmp_path / "exports"
        shutil.copytree(GOLDEN, exports)
        log = exports / "events.jsonl"
        lines = log.read_text().splitlines()
        row = json.loads(lines[0])
        row["venue_id"] = 999
        lines[0] = json.dumps(row, separators=(",", ":"))
        log.write_text("\n".join(lines) + "\n")
        args = [command, "--in", str(exports)]
        if command == "detect":
            args += ["--out", str(tmp_path / "report.csv")]
        assert main(args) == 2
        assert (f"events.jsonl:1: venue 999 of user {row['user_id']} at t={row['t']} "
                "is not in VenueInfo.csv") in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["detect", "verify-replay"])
    def test_event_of_unknown_user_exits_2(self, tmp_path, capsys, command):
        # Rows of users UserInfo.csv lacks, and a later unknown venue: the first is named.
        exports = tmp_path / "exports"
        shutil.copytree(GOLDEN, exports)
        log = exports / "events.jsonl"
        lines = log.read_text().splitlines()
        rows = [json.loads(lines[i]) for i in (4, 6, 8)]
        for i, row, key, value in ((4, rows[0], "user_id", 99999), (6, rows[1], "user_id", 99998),
                                   (8, rows[2], "venue_id", 999)):
            row[key] = value
            lines[i] = json.dumps(row, separators=(",", ":"))
        log.write_text("\n".join(lines) + "\n")
        args = [command, "--in", str(exports)]
        if command == "detect":
            args += ["--out", str(tmp_path / "report.csv")]
        assert main(args) == 2
        out, err = capsys.readouterr()
        assert (out, err) == ("", f"checkinsim: error: events.jsonl:5: user 99999 at "
                                  f"t={rows[0]['t']} is not in UserInfo.csv\n")

    @pytest.mark.parametrize("command", ["detect", "verify-replay"])
    def test_nan_venue_latitude_exits_2(self, tmp_path, capsys, command):
        exports = tmp_path / "exports"
        shutil.copytree(GOLDEN, exports)
        venues = exports / "VenueInfo.csv"
        lines = venues.read_text().splitlines()
        row = lines[1].split(",")
        row[2] = "nan"  # lat
        lines[1] = ",".join(row)
        venues.write_text("\n".join(lines) + "\n")
        args = [command, "--in", str(exports)]
        if command == "detect":
            args += ["--out", str(tmp_path / "report.csv")]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert "VenueInfo.csv:2: lat 'nan' " in err and "mismatch" not in err

    def test_replay_refuses_a_user_row_out_of_time_order(self, tmp_path, capsys):
        exports = tmp_path / "exports"
        shutil.copytree(GOLDEN, exports)
        log = exports / "events.jsonl"
        lines = log.read_text().splitlines()
        lines[0], lines[623] = lines[623], lines[0]  # both rows are user 36's
        log.write_text("\n".join(lines) + "\n")
        assert main(["verify-replay", "--in", str(exports)]) == 2
        err = capsys.readouterr().err
        assert err == ("checkinsim: error: events.jsonl:624: user 36 at t=31 is earlier "
                       "than the user's previous row at t=135079\n")
        # detect reads each user's rows in any order
        assert main(["detect", "--in", str(exports), "--out", str(tmp_path / "report.csv")]) == 0
        assert (tmp_path / "report.csv").read_bytes() == (GOLDEN / "report.csv").read_bytes()

    def test_replay_names_the_line_of_a_repeated_row(self, tmp_path, capsys):
        exports = tmp_path / "exports"
        shutil.copytree(GOLDEN, exports)
        log = exports / "events.jsonl"
        lines = log.read_text().splitlines()
        lines.insert(624, lines[0])  # line 1 again, after user 36's row at line 624
        log.write_text("\n".join(lines) + "\n")
        assert main(["verify-replay", "--in", str(exports)]) == 2
        assert capsys.readouterr().err == (
            "checkinsim: error: events.jsonl:625: user 36 at t=31 is earlier "
            "than the user's previous row at t=135079\n")

    @pytest.mark.parametrize("command", ["detect", "verify-replay"])
    def test_unknown_venue_line_counts_past_blank_lines(self, tmp_path, capsys, command):
        exports = tmp_path / "exports"
        shutil.copytree(GOLDEN, exports)
        log = exports / "events.jsonl"
        lines = log.read_text().splitlines()
        row = json.loads(lines[0])
        row["venue_id"] = 999
        lines[0] = json.dumps(row, separators=(",", ":"))
        lines[0:0] = ["", "  "]
        log.write_text("\n".join(lines) + "\n")
        args = [command, "--in", str(exports)]
        if command == "detect":
            args += ["--out", str(tmp_path / "report.csv")]
        assert main(args) == 2
        assert (f"events.jsonl:3: venue 999 of user {row['user_id']} at t={row['t']} "
                "is not in VenueInfo.csv") in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["detect", "verify-replay"])
    def test_repeated_user_id_exits_2(self, tmp_path, capsys, command):
        exports = tmp_path / "exports"
        shutil.copytree(GOLDEN, exports)
        users = exports / "UserInfo.csv"
        n_lines = len(users.read_text().splitlines())
        with open(users, "a") as fh:
            fh.write("1,5000,0,0,0\n")
        args = [command, "--in", str(exports)]
        if command == "detect":
            args += ["--out", str(tmp_path / "report.csv")]
        assert main(args) == 2
        assert capsys.readouterr().err == (f"checkinsim: error: UserInfo.csv:{n_lines + 1}: "
                                           "user_id 1 repeats line 2\n")

    @pytest.mark.parametrize("command", ["detect", "verify-replay"])
    @pytest.mark.parametrize("bad, reason", [
        ("garbage", "not JSON"),
        ('{"t": 1}', "missing key 'user_id'"),
    ])
    def test_bad_event_line_exits_2(self, tmp_path, capsys, command, bad, reason):
        exports = tmp_path / "exports"
        shutil.copytree(GOLDEN, exports)
        log = exports / "events.jsonl"
        n_lines = len(log.read_text().splitlines())
        with open(log, "a") as fh:
            fh.write(bad + "\n")
        args = [command, "--in", str(exports)]
        if command == "detect":
            args += ["--out", str(tmp_path / "report.csv")]
        assert main(args) == 2
        assert f"events.jsonl:{n_lines + 1}: {reason}" in capsys.readouterr().err

    def test_verify_replay_consistent_log(self, tmp_path, scenario_path, capsys):
        main(["run", "--config", str(scenario_path), "--out", str(tmp_path / "out")])
        assert main(["verify-replay", "--in", str(tmp_path / "out")]) == 0
        assert "0 mismatches" in capsys.readouterr().out

    def test_verify_replay_flags_tampered_log(self, tmp_path, scenario_path, capsys):
        main(["run", "--config", str(scenario_path), "--out", str(tmp_path / "out")])
        log = tmp_path / "out" / "events.jsonl"
        lines = log.read_text().splitlines()
        row = json.loads(lines[-1])
        row["t"] += 1  # shift one timestamp: recomputed flags may now disagree
        row["valid"] = not row["valid"]
        row["flags"] = [] if row["flags"] else ["SuperHumanSpeed"]
        lines[-1] = json.dumps(row, separators=(",", ":"))
        log.write_text("\n".join(lines) + "\n")
        assert main(["verify-replay", "--in", str(tmp_path / "out")]) == 2


    def test_replay_counts_rows_whose_valid_contradicts_their_flags(self, tmp_path, capsys):
        # A world logs valid: true exactly when it logs no flag.
        exports = tmp_path / "exports"
        shutil.copytree(GOLDEN, exports)
        log = exports / "events.jsonl"
        rows = [json.loads(line) for line in log.read_text().splitlines()]
        last_of_user = {row["user_id"]: i for i, row in enumerate(rows)}
        clean = [i for i, row in enumerate(rows) if row["valid"] and not row["flags"]]
        # unpinning a user's last row changes no later verdict
        unpinned = next(i for i in clean if last_of_user[rows[i]["user_id"]] == i)
        flagged = next(i for i in clean if i != unpinned)
        rows[unpinned]["valid"] = False
        rows[flagged]["flags"] = ["PresenceUnverified"]
        log.write_text("".join(json.dumps(row, separators=(",", ":")) + "\n" for row in rows))
        assert main(["verify-replay", "--in", str(exports)]) == 2
        out, err = capsys.readouterr()
        assert out == f"verify-replay: {len(rows)} events, 2 mismatches\n"
        where = {i: f"mismatch: user {rows[i]['user_id']} t={rows[i]['t']} "
                    f"venue {rows[i]['venue_id']}: logged " for i in (unpinned, flagged)}
        assert sorted(err.splitlines()) == sorted([
            where[unpinned] + "valid=false with flags []",
            where[flagged] + "valid=true with flags ['PresenceUnverified']"])
        assert oracles.by_user_mismatch_lines(exports, RuleConfig()) == err.splitlines()

    def test_replay_counts_rows_whose_flags_no_world_logs(self, tmp_path, capsys):
        # PresenceUnverified beside a rule flag, and rule flags out of firing
        # order: the rules agree, but a world logs neither row so.
        exports = tmp_path / "exports"
        shutil.copytree(GOLDEN, exports)
        log = exports / "events.jsonl"
        rows = [json.loads(line) for line in log.read_text().splitlines()]
        beside = next(i for i, row in enumerate(rows) if row["flags"] == ["SuperHumanSpeed"])
        reordered = next(i for i, row in enumerate(rows) if len(row["flags"]) == 2)
        rows[beside]["flags"].append("PresenceUnverified")
        rows[reordered]["flags"].reverse()
        log.write_text("".join(json.dumps(row, separators=(",", ":")) + "\n" for row in rows))
        assert main(["verify-replay", "--in", str(exports)]) == 2
        out, err = capsys.readouterr()
        assert out == f"verify-replay: {len(rows)} events, 2 mismatches\n"
        assert sorted(err.splitlines()) == sorted(
            f"mismatch: user {rows[i]['user_id']} t={rows[i]['t']} venue {rows[i]['venue_id']}: "
            f"logged valid=false with flags {rows[i]['flags']}" for i in (beside, reordered))
        assert oracles.by_user_mismatch_lines(exports, RuleConfig()) == err.splitlines()

    @pytest.mark.parametrize("unknown, named", [
        (1099, "events.jsonl:624: user 36 at t=31 is earlier than the user's previous row "
               "at t=135079"),
        (9, "events.jsonl:10: venue 999 of user {user_id} at t={t} is not in VenueInfo.csv"),
    ])
    def test_replay_names_the_first_bad_row_in_file_order(self, tmp_path, capsys, unknown, named):
        exports = tmp_path / "exports"
        shutil.copytree(GOLDEN, exports)
        log = exports / "events.jsonl"
        lines = log.read_text().splitlines()
        lines[0], lines[623] = lines[623], lines[0]  # user 36's rows: line 624 is out of order
        row = json.loads(lines[unknown])
        row["venue_id"] = 999
        lines[unknown] = json.dumps(row, separators=(",", ":"))
        log.write_text("\n".join(lines) + "\n")
        assert main(["verify-replay", "--in", str(exports)]) == 2
        out, err = capsys.readouterr()
        assert (out, err) == ("", f"checkinsim: error: {named.format(**row)}\n")

    def test_replay_mismatch_lines_match_a_by_user_replay_in_log_order(self, tmp_path, capsys):
        config = tmp_path / "cheaters.json"
        config.write_text(json.dumps({
            "population": {"n_users": 300, "n_venues": 60, "seed": 3, "cheater_fraction": 0.1}}))
        out_dir = tmp_path / "out"
        assert main(["run", "--config", str(config), "--out", str(out_dir)]) == 0
        log = out_dir / "events.jsonl"
        lines = log.read_text().splitlines()
        for i in random.Random(2).sample(range(len(lines)), 40):
            row = json.loads(lines[i])
            row["valid"] = not row["valid"]
            row["flags"] = [] if row["flags"] else ["SuperHumanSpeed"]
            lines[i] = json.dumps(row, separators=(",", ":"))
        log.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["verify-replay", "--in", str(out_dir)]) == 2
        out, err = capsys.readouterr()
        expected = oracles.by_user_mismatch_lines(out_dir, load_scenario(config).rules)
        assert len(expected) > 40  # a flipped valid also changes later verdicts
        assert out == f"verify-replay: {len(lines)} events, {len(expected)} mismatches\n"
        assert err.splitlines() == expected


class TestGenerateAndAttack:
    def test_generate_then_plan_then_exec(self, tmp_path, scenario_path, capsys):
        gen_dir = tmp_path / "gen"
        assert main(["generate", "--config", str(scenario_path), "--out", str(gen_dir),
                     "--snapshot"]) == 0
        snap = gen_dir / "world.snap"
        assert snap.is_file()

        sched = tmp_path / "sched.jsonl"
        assert main(["attack-plan", "--snapshot", str(snap), "--mode", "tour",
                     "--start", "38.5,-98.0", "--steps", "5", "--out", str(sched)]) == 0
        assert len(sched.read_text().splitlines()) == 5

        out_dir = tmp_path / "post"
        assert main(["attack-exec", "--snapshot", str(snap), "--schedule", str(sched),
                     "--true-location", "64.8,-147.7", "--out", str(out_dir)]) == 0
        out = capsys.readouterr().out
        assert "5/5 check-ins valid" in out

    def test_int_and_float_region_generate_the_same_exports(self, tmp_path):
        # venues clamped to the region's edge hold its coordinates as given
        files = ("UserInfo.csv", "VenueInfo.csv", "RecentCheckin.csv", "events.jsonl")
        exports = []
        for region in ([30, -100, 30.05, -99], [30.0, -100.0, 30.05, -99.0]):
            config = tmp_path / "scenario.json"
            config.write_text(json.dumps({"population": {
                "n_users": 300, "n_venues": 60, "seed": 3, "gps_noise_m": 0, "region": region}}))
            out = tmp_path / type(region[0]).__name__
            assert main(["generate", "--config", str(config), "--out", str(out)]) == 0
            exports.append(read_all(out, files))
        assert exports[0] == exports[1]
        assert b",30.0," in exports[0]["VenueInfo.csv"]

    def test_generate_matches_run_under_strict_routers(self, tmp_path):
        config = tmp_path / "strict.json"
        config.write_text(json.dumps({
            "population": {"n_users": 200, "n_venues": 60, "seed": 4, "duration_days": 30,
                           "cheater_fraction": 0.1, "cheater_strategy": "scheduled_evader"},
            "routers": {"coverage": "full", "strict": True},
        }))
        assert main(["generate", "--config", str(config), "--out", str(tmp_path / "gen")]) == 0
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "run")]) == 0
        files = ("UserInfo.csv", "VenueInfo.csv", "RecentCheckin.csv", "events.jsonl")
        assert read_all(tmp_path / "gen", files) == read_all(tmp_path / "run", files)
        assert "PresenceUnverified" in (tmp_path / "gen" / "events.jsonl").read_text()

    @pytest.mark.parametrize("flags, field", [
        (["--mode", "tour", "--start", "999,-100"], "--start"),
        (["--mode", "tour", "--start", "38.5,-98.0", "--step-deg", "nan"], "step_deg"),
        (["--mode", "tour", "--start", "38.5,-98.0", "--steps", "0"], "steps"),
        (["--mode", "targets", "--limit", "-1"], "limit"),
        (["--mode", "step", "--at", "0,181"], "--at"),
        (["--mode", "step", "--at", "38.5,-98.0", "--bearing", "nan"], "--bearing"),
        (["--mode", "step", "--at", "38.5,-98.0", "--bearing", "inf"], "--bearing"),
        (["--mode", "step", "--at", "38.5,-98.0", "--distance-m", "-5"], "--distance-m"),
        (["--mode", "step", "--at", "38.5,-98.0", "--distance-m", "nan"], "--distance-m"),
        (["--mode", "step", "--at", "38.5,-98.0", "--distance-m", "1e308"], "--distance-m"),
        (["--mode", "tour", "--start", "38.5,-98.0", "--start-time", "5"], "--start-time"),
        (["--mode", "tour", "--start", "38.5,-98.0", "--start-time", str(2**63)],
         "--start-time"),
        # a first fire time below 2**63 whose later check-ins reach it
        (["--mode", "tour", "--start", "38.5,-98.0", "--start-time", str(2**63 - 1)],
         "--start-time"),
    ])
    def test_bad_plan_flags_exit_1(self, tmp_path, scenario_path, capsys, flags, field):
        gen_dir = tmp_path / "gen"
        main(["generate", "--config", str(scenario_path), "--out", str(gen_dir), "--snapshot"])
        argv = ["attack-plan", "--snapshot", str(gen_dir / "world.snap"),
                "--out", str(tmp_path / "s.jsonl"), *flags]
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refuses a bad LAT,LON
            code = exc.code
        assert code == 1
        assert field in capsys.readouterr().err
        assert not (tmp_path / "s.jsonl").exists()

    def test_tour_steps_above_the_snapshots_venues_exit_1(self, tmp_path, capsys):
        config = tmp_path / "small.json"
        config.write_text(json.dumps({"population": {"n_users": 30, "n_venues": 20, "seed": 3,
                                                     "duration_days": 10}}))
        gen_dir = tmp_path / "gen"
        assert main(["generate", "--config", str(config), "--out", str(gen_dir),
                     "--snapshot"]) == 0
        argv = ["attack-plan", "--snapshot", str(gen_dir / "world.snap"), "--mode", "tour",
                "--start", "38.5,-98.0", "--out", str(tmp_path / "s.jsonl")]
        capsys.readouterr()
        assert main([*argv, "--steps", "21"]) == 1
        err = capsys.readouterr().err
        assert "config error: steps: must be at most the snapshot's venues (20), got 21" in err
        assert not (tmp_path / "s.jsonl").exists()
        assert main([*argv, "--steps", "20"]) == 0

    def test_targets_mode_plans_every_match_up_to_the_limit(self, tmp_path, scenario_path,
                                                            capsys):
        gen_dir = tmp_path / "gen"
        main(["generate", "--config", str(scenario_path), "--out", str(gen_dir), "--snapshot"])
        for limit, planned in (("100", 40), ("7", 7)):
            sched = tmp_path / f"s{limit}.jsonl"
            assert main(["attack-plan", "--snapshot", str(gen_dir / "world.snap"), "--mode",
                         "targets", "--limit", limit, "--out", str(sched)]) == 0
            assert len(sched.read_text().splitlines()) == planned

    def test_step_mode_emits_chosen_venue(self, tmp_path, scenario_path, capsys):
        gen_dir = tmp_path / "gen"
        main(["generate", "--config", str(scenario_path), "--out", str(gen_dir), "--snapshot"])
        capsys.readouterr()
        assert main(["attack-plan", "--snapshot", str(gen_dir / "world.snap"),
                     "--mode", "step", "--at", "38.5,-98.0", "--bearing", "270",
                     "--distance-m", "457.2", "--out", str(tmp_path / "s.jsonl")]) == 0
        line = capsys.readouterr().out.splitlines()[0]
        venue_id, lat, lon, name = line.split("\t")
        assert int(venue_id) >= 1 and name


# Rules and detection thresholds that differ from the defaults, so a re-reader
# that falls back to the defaults disagrees with the run.
NON_DEFAULT = {
    "population": {"n_users": 300, "n_venues": 60, "seed": 3},
    "rules": {"frequent_window_s": 60, "gps_radius_m": 5},
    "detection": {"cluster_radius_m": 1000, "dispersion_min_clusters": 3},
}


@pytest.fixture(scope="module")
def attacked(tmp_path_factory):
    """generate --snapshot, a 5-step tour and attack-exec ("post"), and an
    export of the post-attack snapshot ("export"), under NON_DEFAULT."""
    root = tmp_path_factory.mktemp("attacked")
    config, sched = root / "config.json", root / "tour.jsonl"
    config.write_text(json.dumps(NON_DEFAULT))
    for argv in (
            ["generate", "--config", str(config), "--out", str(root / "gen"), "--snapshot"],
            ["attack-plan", "--snapshot", str(root / "gen" / "world.snap"), "--mode", "tour",
             "--start", "38.5,-98.0", "--steps", "5", "--out", str(sched)],
            ["attack-exec", "--snapshot", str(root / "gen" / "world.snap"), "--schedule",
             str(sched), "--true-location", "64.8,-147.7", "--out", str(root / "post")],
            ["export", "--snapshot", str(root / "post" / "world.snap"),
             "--out", str(root / "export")]):
        assert main(argv) == 0
    return root


@pytest.mark.parametrize("directory", ["post", "export"])
class TestDirectoriesFromASnapshot:
    """attack-exec and export write the run.json of the scenario that made the snapshot."""

    def test_run_json_is_the_generate_directorys(self, attacked, directory):
        assert (attacked / directory / "run.json").read_bytes() == \
            (attacked / "gen" / "run.json").read_bytes()

    def test_replay_uses_the_scenarios_rules(self, attacked, directory, capsys):
        capsys.readouterr()
        assert main(["verify-replay", "--in", str(attacked / directory)]) == 0
        assert "verify-replay: 3091 events, 0 mismatches" in capsys.readouterr().out

    def test_detect_uses_the_scenarios_thresholds(self, attacked, directory, tmp_path, capsys):
        exports = attacked / directory
        capsys.readouterr()
        assert main(["detect", "--in", str(exports), "--out", str(tmp_path / "report.csv")]) == 0
        assert "39 flagged" in capsys.readouterr().out
        report = analytics.build_report(load_tables(exports), load_events(exports / "events.jsonl"),
                                        ScenarioConfig.from_dict(NON_DEFAULT).detection)
        analytics.write_report_csv(report, tmp_path / "expected.csv")
        assert (tmp_path / "report.csv").read_bytes() == (tmp_path / "expected.csv").read_bytes()


@pytest.fixture(scope="module")
def snapshot(tmp_path_factory):
    """A generated world's snapshot (40 venues) and its clock."""
    gen_dir = tmp_path_factory.mktemp("gen")
    scenario = gen_dir / "scenario.json"
    scenario.write_text(json.dumps(SCENARIO))
    assert main(["generate", "--config", str(scenario), "--out", str(gen_dir), "--snapshot"]) == 0
    return gen_dir / "world.snap", World.load_state(gen_dir / "world.snap").clock.now


class TestScheduleRefusals:
    # "@t" is a fire time after the snapshot's clock "@c"; a "line" ending in a
    # newline is the schedule's first line, otherwise its second.
    @pytest.mark.parametrize("line, message", [
        ('{"venue_id": 2}', "sched.jsonl:2: missing key 'fire_time'"),
        ("venue 2 at noon", "sched.jsonl:2: not JSON"),
        ('{"venue_id": 1.7, "fire_time": @t}', "sched.jsonl:2: venue_id 1.7 is not an integer"),
        ('{"venue_id": true, "fire_time": @t}', "sched.jsonl:2: venue_id True is not an integer"),
        ('{"venue_id": 41, "fire_time": @t}', "sched.jsonl:2: venue_id 41 is not a venue"),
        ('{"venue_id": 2, "fire_time": @t-1}',
         "sched.jsonl:2: fire_time @t-1 is before the line above it (@t)"),
        ('{"venue_id": 2, "fire_time": @c-1}\n',
         "sched.jsonl:1: fire_time @c-1 is before the world's clock (@c)"),
        ('{"venue_id": 2, "fire_time": 9223372036854775808}',
         "sched.jsonl:2: fire_time 9223372036854775808 is not below 2**63"),
    ])
    def test_bad_schedule_exits_2_before_any_check_in(self, tmp_path, snapshot, capsys,
                                                      line, message):
        snap, clock = snapshot

        def numbers(text):
            for token, value in (("@t-1", clock + 599), ("@t", clock + 600),
                                 ("@c-1", clock - 1), ("@c", clock)):
                text = text.replace(token, str(value))
            return text

        first = numbers('{"venue_id": 1, "fire_time": @t}\n')
        sched = tmp_path / "sched.jsonl"
        sched.write_text(numbers(line) if line.endswith("\n") else first + numbers(line) + "\n")
        before = snap.read_bytes()
        capsys.readouterr()
        assert main(["attack-exec", "--snapshot", str(snap), "--schedule", str(sched),
                     "--true-location", "64.8,-147.7", "--out", str(tmp_path / "post")]) == 2
        assert numbers(message) in capsys.readouterr().err
        assert not (tmp_path / "post").exists() and snap.read_bytes() == before


class TestCollectorPolicy:
    def test_collector_is_off_during_command(self, tmp_path, monkeypatch, collector_state):
        seen = []
        load_tables = cli.load_tables
        monkeypatch.setattr(cli, "load_tables",
                            lambda *args: seen.append(gc.isenabled()) or load_tables(*args))
        gc.enable()
        assert main(["detect", "--in", str(GOLDEN), "--out", str(tmp_path / "r.csv")]) == 0
        assert seen == [False] and gc.isenabled()

    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize("config, code", [
        (SCENARIO, 0),
        ({"population": SCENARIO["population"], "attacks": [{"kind": "bogus"}]}, 1),
    ])
    def test_main_restores_collector_state(self, tmp_path, collector_state, enabled, config,
                                           code):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(config))
        gc.enable() if enabled else gc.disable()
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == code
        assert gc.isenabled() is enabled

    def test_failing_command_restores_collector_state(self, tmp_path, collector_state):
        gc.enable()
        assert main(["detect", "--in", str(tmp_path), "--out", str(tmp_path / "r.csv")]) == 1
        assert gc.isenabled()

    def test_cyclic_garbage_does_not_grow_with_run_size(self, tmp_path, collector_state):
        found = []
        for n_users in (30, 600):
            path = tmp_path / f"scenario{n_users}.json"
            path.write_text(json.dumps({"population": {
                "n_users": n_users, "n_venues": 40, "seed": 3, "duration_days": 30,
                "cheater_fraction": 0.05}}))
            gc.collect()
            gc.disable()  # no automatic collection between the run and the count
            assert main(["run", "--config", str(path), "--out", str(tmp_path / str(n_users))]) == 0
            assert main(["detect", "--in", str(tmp_path / str(n_users)),
                         "--out", str(tmp_path / f"r{n_users}.csv")]) == 0
            assert main(["verify-replay", "--in", str(tmp_path / str(n_users))]) == 0
            found.append(gc.collect())
        assert found[0] == found[1], found
