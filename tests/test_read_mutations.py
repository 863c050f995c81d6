"""Seeded mutations of a small run's exports, read by ``detect`` and ``verify-replay``.

Each mutation damages one line of ``events.jsonl`` or of a CSV export, or
repeats an id of UserInfo.csv or VenueInfo.csv on a later line. A
damaged file must make both commands exit 2 with a message naming the file
and the line; a harmless change (a blank line, a cell past the header's
columns) must leave the exit code 0, the report and the replay unchanged.
"""

import json
import random
import shutil

import pytest

from checkinsim.cli import main
from checkinsim.harness import ScenarioConfig, run_scenario

SCENARIO = {"population": {"n_users": 40, "n_venues": 20, "seed": 3, "duration_days": 20,
                           "cheater_fraction": 0.1}}
SEEDS = range(4)
CSVS = ("UserInfo.csv", "VenueInfo.csv", "RecentCheckin.csv")

WRONG_EVENT_VALUES = {
    "t": ["31", 31.5, True, None, [1]],
    "user_id": ["204", 2.0, False, None, {"id": 2}],
    "venue_id": ["33", 33.0, True, None],
    "reported_lat": ["38.5", True, None, [38.5]],
    "reported_lon": ["-109.7", False, None],
    "valid": [1, "true", None],
    "flags": ["GpsMismatch", [1], 7, None],
}
NON_FINITE = ("NaN", "Infinity", "-Infinity")


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    run_scenario(ScenarioConfig.from_dict(SCENARIO), out)
    return out


def events_mutation(kind, lines, rng):
    """Mutate one events.jsonl line in place; returns the refused line number,
    or None for a harmless change."""
    i = rng.randrange(len(lines))
    row = json.loads(lines[i])
    if kind == "truncate":
        lines[i] = lines[i][:rng.randrange(1, len(lines[i]) - 1)]
    elif kind == "drop_key":
        del row[rng.choice(list(row))]
        lines[i] = json.dumps(row)
    elif kind == "swap_type":
        key = rng.choice(list(WRONG_EVENT_VALUES))
        row[key] = rng.choice(WRONG_EVENT_VALUES[key])
        lines[i] = json.dumps(row)
    elif kind == "string_user_id":
        row["user_id"] = str(row["user_id"])
        lines[i] = json.dumps(row)
    elif kind == "non_finite":
        key = rng.choice(["reported_lat", "reported_lon", "t"])
        lines[i] = json.dumps(row).replace(json.dumps(row[key]), rng.choice(NON_FINITE), 1)
    elif kind == "unknown_venue":
        row["venue_id"] = 10_000 + rng.randrange(100)
        lines[i] = json.dumps(row)
    elif kind == "trailing_data":
        lines[i] += rng.choice([" x", "{}", ",", " 1", " []"])
    elif kind == "blank_line":
        lines.insert(i, rng.choice(["", " ", "\t"]))
        return None
    return i + 1


def csv_mutation(kind, lines, rng):
    """Mutate one CSV line in place; returns the refused line number, or None."""
    header = lines[0].split(",")
    i = rng.randrange(1, len(lines))
    cells = lines[i].split(",")
    numeric = [c for c, field in enumerate(header) if field != "name"]
    if kind == "truncate":  # cut before the last comma: the row loses its last cell
        lines[i] = lines[i][:rng.randrange(1, lines[i].rindex(",") + 1)]
    elif kind == "drop_column":
        column = rng.randrange(len(header))
        for j, line in enumerate(lines):
            cells = line.split(",")
            del cells[column]
            lines[j] = ",".join(cells)
        return 1
    elif kind == "swap_type":
        column = rng.choice(numeric)
        bad = ["x", "1.5", "true", "0x1f"] + ([] if header[column] == "mayor_id" else [""])
        cells[column] = rng.choice(bad)
        lines[i] = ",".join(cells)
    elif kind == "non_finite":
        column = rng.choice(numeric)
        cells[column] = rng.choice(["nan", "inf", "-inf", "NaN", "-Infinity"])
        lines[i] = ",".join(cells)
    elif kind == "blank_line":
        lines.insert(i, "")
        return None
    elif kind == "trailing_cell":  # cells are read by header column; extras are ignored
        lines[i] += ",extra"
        return None
    elif kind == "duplicate_row":  # a later copy of row i repeats its id
        j = rng.randrange(i + 1, len(lines) + 1)
        lines.insert(j, lines[i])
        return j + 1
    return i + 1


def read_commands(exports, tmp_path, capsys):
    """Run detect and verify-replay on ``exports``: (exit code, stderr, report bytes) each."""
    out = []
    for args in (["detect", "--in", str(exports), "--out", str(tmp_path / "report.csv")],
                 ["verify-replay", "--in", str(exports)]):
        code = main(args)
        report = (tmp_path / "report.csv").read_bytes() if args[0] == "detect" and code == 0 \
            else None
        out.append((code, capsys.readouterr(), report))
    return out


def check(run_dir, tmp_path, capsys, name, mutate, kind, seed):
    exports = tmp_path / "exports"
    shutil.copytree(run_dir, exports)
    path = exports / name
    lines = path.read_text(encoding="utf-8").splitlines()
    line = mutate(kind, lines, random.Random(seed))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    (detect, detect_io, report), (replay, replay_io, _) = read_commands(exports, tmp_path, capsys)
    if line is None:
        assert (detect, replay) == (0, 0), (detect_io.err, replay_io.err)
        assert report == (run_dir / "report.csv").read_bytes()
        assert ", 0 mismatches" in replay_io.out
    else:
        assert (detect, replay) == (2, 2)
        for io in (detect_io, replay_io):
            assert io.err.startswith(f"checkinsim: error: {name}:{line}: "), io.err


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("kind", ["truncate", "drop_key", "swap_type", "string_user_id",
                                  "non_finite", "unknown_venue", "trailing_data", "blank_line"])
def test_events_mutation(run_dir, tmp_path, capsys, kind, seed):
    check(run_dir, tmp_path, capsys, "events.jsonl", events_mutation, kind, seed)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", CSVS)
@pytest.mark.parametrize("kind", ["truncate", "drop_column", "swap_type", "non_finite",
                                  "blank_line", "trailing_cell"])
def test_csv_mutation(run_dir, tmp_path, capsys, name, kind, seed):
    check(run_dir, tmp_path, capsys, name, csv_mutation, kind, seed)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", ["UserInfo.csv", "VenueInfo.csv"])
def test_repeated_id_mutation(run_dir, tmp_path, capsys, name, seed):
    check(run_dir, tmp_path, capsys, name, csv_mutation, "duplicate_row", seed)


def test_unmutated_run_reads_back(run_dir, tmp_path, capsys):
    (detect, _, report), (replay, replay_io, _) = read_commands(run_dir, tmp_path, capsys)
    assert (detect, replay) == (0, 0)
    assert report == (run_dir / "report.csv").read_bytes()
    assert ", 0 mismatches" in replay_io.out
