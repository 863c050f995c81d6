"""One check-in log class, written and read.

``load_events`` fills the ``CheckInLog`` a world keeps: reading back what
``write_events`` wrote gives the world's columns and outcome table, and the
rows equal those of the ``json.loads`` reader in ``tests/oracles.py``. The
id columns hold what ``array("I")`` holds, and the outcome column as many
``(valid, flags)`` pairs as a log carries.
"""

import json
import shutil
from pathlib import Path

import pytest

from checkinsim import harness
from checkinsim.cli import main
from checkinsim.tables import ID_END, CheckInLog, load_events, write_events
from oracles import json_load_events

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "data" / "golden"
STRICT_TOUR = {"population": {"n_users": 60, "n_venues": 40, "seed": 5, "duration_days": 20,
                              "cheater_fraction": 0.1},
               "routers": {"coverage": "full", "strict": True},
               "attacks": [{"kind": "tour", "steps": 8, "true_location": [35.0, -90.0]}]}


def tiny_workloads():
    workloads = json.loads((ROOT / "perfbench" / "workloads.json").read_text(encoding="utf-8"))
    for name, workload in workloads.items():
        config = {**workload["config"],
                  "population": {**workload["config"]["population"], **workload["tiny"]}}
        yield pytest.param(config, workload["default_seed"], id=name)


@pytest.mark.parametrize("config, seed", [*tiny_workloads(),
                                          pytest.param(STRICT_TOUR, 5, id="strict-tour")])
def test_the_written_log_reads_back_as_the_worlds(tmp_path, config, seed):
    result = harness.run_scenario(harness.ScenarioConfig.from_dict(config), tmp_path, seed=seed)
    log, loaded = result.world.events, load_events(tmp_path / "events.jsonl")
    assert type(loaded) is type(log) is CheckInLog
    assert len(loaded) == len(log) > 0
    assert [c.typecode for c in loaded.columns] == [c.typecode for c in log.columns]
    assert [c.tobytes() for c in loaded.columns] == [c.tobytes() for c in log.columns]
    assert loaded.outcomes == log.outcomes
    if config is STRICT_TOUR:
        assert (False, ("PresenceUnverified",)) in log.outcomes


def row(t=1, user_id=2, venue_id=3, lat="40.0", lon="-100.0", valid="true", flags="[]"):
    return (f'{{"t":{t},"user_id":{user_id},"venue_id":{venue_id},"reported_lat":{lat},'
            f'"reported_lon":{lon},"valid":{valid},"flags":{flags}}}')


def test_rows_match_the_json_oracle_row_for_row(tmp_path):
    path = tmp_path / "events.jsonl"
    path.write_text("\n".join([
        row(t=50, lat="40", lon="-100"),  # JSON-int coordinates
        "",
        row(t=40, valid="false", flags='["SuperHumanSpeed"]'),  # earlier than the row above
        "  ",
        row(t=60, user_id=4, lat="-0.0", lon="1e-05", valid="false",
            flags='["PresenceUnverified"]'),
        row(t=70, user_id=4, flags='["\\u0041"]'),
        row(t=80, user_id=4, venue_id=1, lon="-1.5E+2"),  # the last line has no line end
    ]), encoding="utf-8")
    log = load_events(path)
    assert list(log) == json_load_events(path)
    assert len(log) == 5 and log[2].flags == ("PresenceUnverified",) and log[3].flags == ("A",)
    assert [type(value) for value in log[0]] == [int, int, int, float, float, bool, tuple]


@pytest.mark.parametrize("line_by_line", [False, True], ids=["block", "line-by-line"])
def test_more_outcomes_than_a_byte_holds(tmp_path, line_by_line):
    path = tmp_path / "events.jsonl"
    lines = [row(t=i, valid="false", flags=f'["Rule{i}","GpsMismatch"]') for i in range(300)]
    if line_by_line:  # a blank line sends the block to the line reader
        lines.insert(150, "")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    log = load_events(path)
    assert len(log.outcomes) == 301 and list(log.outcome) == list(range(1, 301))
    assert list(log) == json_load_events(path)
    if not line_by_line:
        assert write_events(log, tmp_path / "again.jsonl").read_bytes() == path.read_bytes()


def exports_with_first_row(tmp_path, **changes):
    exports = tmp_path / "exports"
    shutil.copytree(GOLDEN, exports)
    log = exports / "events.jsonl"
    lines = log.read_text(encoding="utf-8").splitlines(keepends=True)
    first = json.loads(lines[0])
    first.update(changes)
    lines[0] = json.dumps(first, separators=(",", ":")) + "\n"
    log.write_text("".join(lines), encoding="utf-8")
    return exports, first


def read_commands(exports, tmp_path, capsys):
    """(exit code, stderr) of detect and of verify-replay on ``exports``."""
    results = []
    for args in (["detect", "--in", str(exports), "--out", str(tmp_path / "report.csv")],
                 ["verify-replay", "--in", str(exports)]):
        results.append((main(args), capsys.readouterr().err))
    return results


@pytest.mark.parametrize("key", ["user_id", "venue_id"])
def test_the_largest_id_the_column_holds_is_an_unknown_id(tmp_path, capsys, key):
    exports, first = exports_with_first_row(tmp_path, **{key: ID_END - 1})
    assert ID_END - 1 == 4294967295
    message = (f"user {first['user_id']} at t={first['t']} is not in UserInfo.csv"
               if key == "user_id" else
               f"venue {first['venue_id']} of user {first['user_id']} at t={first['t']} "
               "is not in VenueInfo.csv")
    for result in read_commands(exports, tmp_path, capsys):
        assert result == (2, f"checkinsim: error: events.jsonl:1: {message}\n")


@pytest.mark.parametrize("key", ["user_id", "venue_id"])
@pytest.mark.parametrize("value", [ID_END, -1, 10**20])
def test_an_id_past_the_column_is_refused(tmp_path, capsys, key, value):
    exports, _ = exports_with_first_row(tmp_path, **{key: value})
    for result in read_commands(exports, tmp_path, capsys):
        assert result == (2, f"checkinsim: error: events.jsonl:1: {key} {value} "
                             "is not in [0, 2**32)\n")
