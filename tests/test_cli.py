import gc
import json
import shutil
from pathlib import Path

import pytest

from checkinsim import cli
from checkinsim.cli import main

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

    def test_usage_error_exits_1(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["run"])  # missing required arguments
        assert err.value.code == 1

    @pytest.mark.parametrize("config, key", [
        ({"attacks": [{"kind": "tour", "step": 3, "true_location": [35.0, -90.0]}]}, "step"),
        ({"detection": {"v_travel": 1}}, "v_travel"),
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
    ])
    def test_bad_config_value_exits_1(self, tmp_path, capsys, config, field):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({"population": SCENARIO["population"], **config}))
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        assert field in capsys.readouterr().err
        assert not (tmp_path / "out").exists()  # refused before any world was built

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
        assert (f"user {user_id}: recent_checkins {int(total) + 1} exceeds "
                f"total_checkins {total}") in capsys.readouterr().err

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
