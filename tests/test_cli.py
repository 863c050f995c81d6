import json
import shutil
from pathlib import Path

import pytest

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
        assert (f"events.jsonl row for user {row['user_id']} at t={row['t']}: "
                "venue 999 is not in VenueInfo.csv") in capsys.readouterr().err

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
