"""Every file a command reads names itself when the command refuses it.

``detect`` and ``verify-replay`` read the three CSV exports, ``attack-exec``
a snapshot and a schedule, ``export`` a snapshot and ``run`` a scenario
config. A damaged one makes the command exit with its documented code (2
for exports, schedules and snapshots, 1 for a config) and a message that
starts with the file's name, and a CSV names its first problem in file order.
"""

import hashlib
import json
import shutil
from pathlib import Path

import pytest

from checkinsim.cli import main
from checkinsim.world import CorruptSnapshot, World

GOLDEN = Path(__file__).parent / "data" / "golden"
CSVS = ("UserInfo.csv", "VenueInfo.csv", "RecentCheckin.csv")
SCENARIO = {"population": {"n_users": 30, "n_venues": 12, "seed": 5, "duration_days": 10}}


def exports_copy(tmp_path):
    exports = tmp_path / "exports"
    shutil.copytree(GOLDEN, exports)
    return exports


def edit_lines(path, edit):
    lines = path.read_text(encoding="utf-8").splitlines()
    edit(lines)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_commands(exports, tmp_path, capsys):
    """(exit code, stderr) of detect and of verify-replay on ``exports``."""
    results = []
    for args in (["detect", "--in", str(exports), "--out", str(tmp_path / "report.csv")],
                 ["verify-replay", "--in", str(exports)]):
        results.append((main(args), capsys.readouterr().err))
    return results


@pytest.mark.parametrize("name", CSVS)
def test_csv_byte_that_is_not_utf8_names_the_file(tmp_path, capsys, name):
    exports = exports_copy(tmp_path)
    with open(exports / name, "ab") as fh:
        fh.write(b"\xff\n")
    for code, err in read_commands(exports, tmp_path, capsys):
        assert (code, err) == (2, f"checkinsim: error: {name}: not UTF-8 text "
                                  f"(invalid start byte)\n")


def test_csv_cell_past_the_csv_limit_names_the_line(tmp_path, capsys):
    exports = exports_copy(tmp_path)

    def long_name(lines):
        cells = lines[3].split(",")
        cells[1] = "x" * 200_000
        lines[3] = ",".join(cells)

    edit_lines(exports / "VenueInfo.csv", long_name)
    for code, err in read_commands(exports, tmp_path, capsys):
        assert code == 2
        assert err.startswith("checkinsim: error: VenueInfo.csv:4: field larger than field limit")


@pytest.mark.parametrize("name, field", [("UserInfo.csv", "user_id"),
                                         ("VenueInfo.csv", "venue_id")])
@pytest.mark.parametrize("repeat_first", [True, False])
def test_csv_names_its_first_problem_in_file_order(tmp_path, capsys, name, field, repeat_first):
    exports = exports_copy(tmp_path)
    repeat, bad = (4, 9) if repeat_first else (9, 4)

    def damage(lines):
        lines[repeat - 1] = lines[1]  # repeats the id of line 2
        cells = lines[bad - 1].split(",")
        cells[-1] = "x"  # recent_checkins, or has_mayor_special
        lines[bad - 1] = ",".join(cells)

    edit_lines(exports / name, damage)
    header, first = (GOLDEN / name).read_text(encoding="utf-8").splitlines()[:2]
    repeated, last = first.split(",")[0], header.split(",")[-1]
    expected = (f"{name}:4: {field} {repeated} repeats line 2" if repeat_first
                else f"{name}:4: {last} 'x' is not ")
    for code, err in read_commands(exports, tmp_path, capsys):
        assert code == 2
        assert err.startswith(f"checkinsim: error: {expected}"), err


def test_recent_above_total_names_the_userinfo_line(tmp_path, capsys):
    exports = exports_copy(tmp_path)

    def damage(lines):
        cells = lines[2].split(",")  # user_id,total_checkins,...,recent_checkins
        cells[-1] = str(int(cells[1]) + 5)
        lines[2] = ",".join(cells)

    edit_lines(exports / "UserInfo.csv", damage)
    total = (GOLDEN / "UserInfo.csv").read_text(encoding="utf-8").splitlines()[2].split(",")[1]
    for result in read_commands(exports, tmp_path, capsys):
        assert result == (2, f"checkinsim: error: UserInfo.csv:3: recent_checkins "
                             f"{int(total) + 5} exceeds total_checkins {total}\n")


@pytest.fixture(scope="module")
def snapshot(tmp_path_factory):
    """A generated world's snapshot."""
    gen_dir = tmp_path_factory.mktemp("gen")
    config = gen_dir / "scenario.json"
    config.write_text(json.dumps(SCENARIO))
    assert main(["generate", "--config", str(config), "--out", str(gen_dir), "--snapshot"]) == 0
    return gen_dir / "world.snap"


def test_schedule_byte_that_is_not_utf8_names_the_schedule(snapshot, tmp_path, capsys):
    schedule = tmp_path / "tour.jsonl"
    schedule.write_bytes(b'{"venue_id": 1, "fire_time": 9999999}\n\xff\n')
    before = snapshot.read_bytes()
    assert main(["attack-exec", "--snapshot", str(snapshot), "--schedule", str(schedule),
                 "--true-location", "64.8,-147.7", "--out", str(tmp_path / "post")]) == 2
    assert capsys.readouterr().err == ("checkinsim: error: tour.jsonl: not UTF-8 text "
                                       "(invalid start byte)\n")
    assert not (tmp_path / "post").exists() and snapshot.read_bytes() == before


@pytest.mark.parametrize("header, reason", [
    (b"[1]", "not a JSON object"),
    (b"17", "not a JSON object"),
    (b"\xff\xfe{}", "not JSON"),
])
def test_snapshot_header_that_is_not_an_object_names_the_file(snapshot, tmp_path, capsys,
                                                              header, reason):
    damaged = tmp_path / "world.snap"
    damaged.write_bytes(header + b"\n" + snapshot.read_bytes().split(b"\n", 1)[1])
    assert main(["export", "--snapshot", str(damaged), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith(
        f"checkinsim: error: world.snap: unreadable snapshot header: {reason}")
    assert not (tmp_path / "out").exists()


def with_header(payload, **changes):
    header = {"format": "checkinsim-snapshot", "version": 11, "payload_bytes": len(payload),
              "sha256": hashlib.sha256(payload).hexdigest(), **changes}
    return json.dumps(header).encode() + b"\n"


@pytest.mark.parametrize("damage, reason", [
    (lambda payload: with_header(payload, version=9) + payload, "unsupported snapshot header"),
    (lambda payload: with_header(payload) + payload[:-20], "truncated snapshot"),
    (lambda payload: with_header(payload) + payload[:-1] + bytes([payload[-1] ^ 0xFF]),
     "snapshot checksum mismatch"),
    (lambda payload: with_header(b"cbuiltins\nopen\n.") + b"cbuiltins\nopen\n.",
     "snapshot payload references builtins.open"),
])
def test_every_corrupt_snapshot_message_starts_with_the_file_name(snapshot, tmp_path, damage,
                                                                  reason):
    damaged = tmp_path / "world.snap"
    damaged.write_bytes(damage(snapshot.read_bytes().split(b"\n", 1)[1]))
    with pytest.raises(CorruptSnapshot) as err:
        World.load_state(damaged)
    assert str(err.value).startswith(f"world.snap: {reason}")


@pytest.mark.parametrize("text, reason", [
    (b"{not json", "Expecting property name enclosed in double quotes"),
    (b'{"population": 5}\xff', "'utf-8' codec can't decode byte 0xff"),
    (json.dumps({"population": {**SCENARIO["population"], "n_users": "10"}}).encode(),
     "population.n_users: must be"),
    (json.dumps({**SCENARIO, "rules": {"speed": 1}}).encode(), "rules: unknown keys ['speed']"),
    (json.dumps({**SCENARIO, "badges": [
        {"badge_id": "a", "kind": "distinct_venues", "threshold": 3},
        {"badge_id": "a", "kind": "distinct_venues", "threshold": 5}]}).encode(),
     "badges: must have distinct badge ids"),
])
@pytest.mark.parametrize("command", ["run", "generate"])
def test_scenario_refusal_names_the_config(tmp_path, capsys, command, text, reason):
    config = tmp_path / "scenario.json"
    config.write_bytes(text)
    assert main([command, "--config", str(config), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith(f"checkinsim: config error: {config}: {reason}")
    assert not (tmp_path / "out").exists()
