"""One check-in log class, written and read.

``load_events`` fills the ``CheckInLog`` a world keeps: reading back what
``write_events`` wrote gives the world's columns and outcome table, and the
rows equal those of the ``json.loads`` reader in ``tests/oracles.py``. The
id columns hold what ``array("I")`` holds, and the outcome column as many
``(valid, flags)`` pairs as a log carries.

A log read in two parts, the later one by a forked child, gives the columns,
outcomes and error messages of the read in one part, and leaves no child
process behind.
"""

import json
import os
import random
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

from checkinsim import harness, tables
from checkinsim.cli import main
from checkinsim.tables import ID_END, CheckInLog, load_events, write_events
from oracles import json_load_events
from test_read_mutations import EVENT_MUTATIONS, events_mutation

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
def test_the_written_log_reads_back_as_the_worlds(tmp_path, monkeypatch, config, seed):
    result = harness.run_scenario(harness.ScenarioConfig.from_dict(config), tmp_path, seed=seed)
    log, loaded = result.world.events, load_events(tmp_path / "events.jsonl")
    assert type(loaded) is type(log) is CheckInLog
    assert len(loaded) == len(log) > 0
    assert [c.typecode for c in loaded.columns] == [c.typecode for c in log.columns]
    assert contents(loaded) == contents(log)
    splits = read_in_two_parts(monkeypatch)
    assert contents(load_events(tmp_path / "events.jsonl")) == contents(log)
    assert len(splits) == 1
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
def test_more_outcomes_than_a_byte_holds(tmp_path, monkeypatch, line_by_line):
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
    check_split_everywhere(path, monkeypatch)


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


# -- the read in two parts -----------------------------------------------------

MAY_FORK = tables._may_fork


def contents(log):
    return [c.tobytes() for c in log.columns], log.outcomes


def read_in_two_parts(monkeypatch, split=None):
    """Make ``load_events`` read every log in two parts, split after the
    "\\n" at or past the middle or at byte ``split``; returns the list of
    the splits the reads used."""
    monkeypatch.setattr(tables, "_SPLIT_BYTES", 0)
    monkeypatch.setattr(tables, "_may_fork", lambda: True)
    if split is not None:
        monkeypatch.setattr(tables, "_split_offset", lambda fd, size: split)
    splits, read_in_two = [], tables._read_in_two

    def recording(log, name, fd, split, size):
        splits.append(split)
        read_in_two(log, name, fd, split, size)
    monkeypatch.setattr(tables, "_read_in_two", recording)
    return splits


def line_starts(path):
    """The offsets just after each "\\n" of a file but one that ends it."""
    data = path.read_bytes()
    return [i + 1 for i, byte in enumerate(data[:-1]) if byte == ord("\n")]


def error_of(path) -> str:
    with pytest.raises(ValueError) as info:
        load_events(path)
    return str(info.value)


def check_split_everywhere(path, monkeypatch):
    one = load_events(path)
    assert list(one) == json_load_events(path)
    splits = []
    for split in line_starts(path):
        with monkeypatch.context() as patch:
            used = read_in_two_parts(patch, split)
            assert contents(load_events(path)) == contents(one), split
            splits += used
    assert splits == line_starts(path) != []


MIXED_LOG = [
    row(t=10, flags='["A"]', valid="false"),
    row(t=20, flags='["B"]', valid="false"),
    "",
    row(t=30),
    "  ",
    row(t=40, flags='["B"]', valid="false"),  # B before A past most splits
    row(t=50, lat="40", lon="-100"),  # JSON-int coordinates: the line reader's
    row(t=60, flags='["A"]', valid="false"),
    "",
    row(t=70, flags='["C"]', valid="false"),  # used only near the end
    row(t=80, lat="-0.0", lon="1e-05"),
]


@pytest.mark.parametrize("ends", [["\n"], ["\r\n"], ["\r", "\n"], ["\n", "\r\n", "\r"]],
                         ids=["lf", "crlf", "cr-lf", "mixed"])
@pytest.mark.parametrize("last_end", [True, False], ids=["ended", "unended"])
def test_a_split_at_any_line_start_reads_as_one_part(tmp_path, monkeypatch, ends, last_end):
    text = "".join(line + ends[i % len(ends)] for i, line in enumerate(MIXED_LOG))
    path = tmp_path / "events.jsonl"
    path.write_bytes((text if last_end else text.rstrip("\r\n")).encode())
    check_split_everywhere(path, monkeypatch)


def test_a_log_is_split_after_the_line_end_past_its_middle(tmp_path):
    path = tmp_path / "events.jsonl"
    path.write_bytes(GOLDEN.joinpath("events.jsonl").read_bytes())
    size = path.stat().st_size
    with open(path, "rb") as fh:
        split = tables._split_offset(fh.fileno(), size)
    assert split in line_starts(path) and size // 2 < split <= size // 2 + 200
    path.write_bytes(b"x" * 10 + b"\n" + b"y" * 20)
    with open(path, "rb") as fh:
        assert tables._split_offset(fh.fileno(), 31) == 31  # no line starts past the middle


def test_a_log_below_the_gate_or_without_fork_is_read_in_one_part(monkeypatch):
    path = GOLDEN / "events.jsonl"
    one = load_events(path)
    splits = read_in_two_parts(monkeypatch)
    monkeypatch.setattr(tables, "_SPLIT_BYTES", path.stat().st_size + 1)
    assert contents(load_events(path)) == contents(one)
    monkeypatch.setattr(tables, "_SPLIT_BYTES", 0)
    monkeypatch.setattr(tables, "_may_fork", MAY_FORK)
    monkeypatch.delattr(os, "fork")
    assert contents(load_events(path)) == contents(one)
    assert splits == []


def test_a_fork_that_fails_leaves_no_descriptor_open(monkeypatch):
    def failing_fork():
        raise BlockingIOError("no process to spare")
    monkeypatch.setattr(os, "fork", failing_fork)
    read_in_two_parts(monkeypatch)
    before = sorted(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None
    with pytest.raises(BlockingIOError):
        load_events(GOLDEN / "events.jsonl")
    if before is not None:
        assert sorted(os.listdir("/proc/self/fd")) == before


def test_a_second_thread_or_a_single_cpu_keeps_the_read_in_one_part(monkeypatch):
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("this host has one usable CPU")
    assert MAY_FORK()
    release = threading.Event()
    waiting = threading.Thread(target=release.wait)
    waiting.start()
    try:
        assert not MAY_FORK()
    finally:
        release.set()
        waiting.join(timeout=60)
    assert not waiting.is_alive()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert not MAY_FORK()


def late_line(lines):
    """The index of a line well past the middle of a log: three quarters down."""
    return len(lines) * 3 // 4


def out_of_order(lines, rng):
    """Move a row of the last quarter before its user's previous row in
    time; returns its line number."""
    for i in rng.sample(range(late_line(lines), len(lines)), len(lines) - late_line(lines)):
        row = json.loads(lines[i])
        earlier = [json.loads(line)["t"] for line in lines[:i]
                   if json.loads(line)["user_id"] == row["user_id"]]
        if earlier:
            row["t"] = earlier[-1] - 1
            lines[i] = json.dumps(row, separators=(",", ":"))
            return i + 1
    raise AssertionError("no user has two rows")


def in_one_part_and_in_two(exports, tmp_path, capsys, monkeypatch):
    """``read_commands`` on ``exports`` with its log read in one part, then in two."""
    one = read_commands(exports, tmp_path, capsys)
    with monkeypatch.context() as patch:
        splits = read_in_two_parts(patch)
        two = read_commands(exports, tmp_path, capsys)
    assert len(splits) == 2
    return one, two


@pytest.mark.parametrize("seed", range(2))
@pytest.mark.parametrize("kind", [*EVENT_MUTATIONS, "out_of_order"])
def test_a_fault_past_the_split_is_named_as_in_one_part(tmp_path, capsys, monkeypatch,
                                                         kind, seed):
    exports = tmp_path / "exports"
    shutil.copytree(GOLDEN, exports)
    log = exports / "events.jsonl"
    lines = log.read_text(encoding="utf-8").split("\n")[:-1]
    rng = random.Random(seed)
    if kind == "out_of_order":
        line = out_of_order(lines, rng)
    else:
        line = events_mutation(kind, lines, rng, rng.randrange(late_line(lines), len(lines)))
    log.write_text("\n".join(lines) + "\n", encoding="utf-8")
    one, two = in_one_part_and_in_two(exports, tmp_path, capsys, monkeypatch)
    assert two == one
    named = f"checkinsim: error: events.jsonl:{line}: "
    if line is None:
        assert [code for code, _ in two] == [0, 0]
    elif kind == "out_of_order":  # detect sorts by time; verify-replay refuses the row
        (detect, _), (replay, err) = two
        assert (detect, replay) == (0, 2) and err.startswith(named), err
    else:
        for code, err in two:
            assert code == 2 and err.startswith(named), err


@pytest.mark.parametrize("bad, at_end", [(b"\xff", False), (b"\xe2\x82", False),
                                         (b"\xe2\x82", True)],
                         ids=["start-byte", "cut-sequence", "cut-at-the-end"])
def test_bytes_that_are_not_utf8_past_the_split(tmp_path, monkeypatch, bad, at_end):
    lines = GOLDEN.joinpath("events.jsonl").read_bytes().split(b"\n")
    if at_end:
        lines[-1] += bad
    else:
        lines[late_line(lines)] += bad
    path = tmp_path / "events.jsonl"
    path.write_bytes(b"\n".join(lines))
    one = error_of(path)
    assert one.startswith("events.jsonl: not UTF-8 text (")
    splits = read_in_two_parts(monkeypatch)
    assert error_of(path) == one
    assert len(splits) == 1


@pytest.mark.parametrize("late", ["truncate", "not-utf8", "unknown-key"])
def test_with_faults_in_both_parts_the_first_part_is_named(tmp_path, monkeypatch, late):
    lines = GOLDEN.joinpath("events.jsonl").read_bytes().split(b"\n")
    lines[99] = lines[99][:40]
    i = late_line(lines)
    lines[i] = {"truncate": lines[i][:40], "not-utf8": lines[i] + b"\xff",
                "unknown-key": lines[i].replace(b'"t":', b'"time":')}[late]
    path = tmp_path / "events.jsonl"
    path.write_bytes(b"\n".join(lines))
    one = error_of(path)
    assert one.startswith("events.jsonl:100: not JSON")
    read_in_two_parts(monkeypatch)
    assert error_of(path) == one


def replacing_read_part(monkeypatch, later_part):
    """Run ``later_part()`` before the read of any part that does not start the log."""
    read_part = tables._read_part

    def read(log, name, fd, start, stop, lineno):
        if start:
            later_part()
        return read_part(log, name, fd, start, stop, lineno)
    monkeypatch.setattr(tables, "_read_part", read)


def test_a_fault_in_part_one_ends_the_child_at_once(tmp_path, monkeypatch):
    lines = GOLDEN.joinpath("events.jsonl").read_text(encoding="utf-8").split("\n")
    lines[0] = lines[0][:20]
    path = tmp_path / "events.jsonl"
    path.write_text("\n".join(lines), encoding="utf-8")
    replacing_read_part(monkeypatch, lambda: time.sleep(90))
    read_in_two_parts(monkeypatch)
    began = time.monotonic()
    assert error_of(path).startswith("events.jsonl:1: not JSON")
    assert time.monotonic() - began < 30


def test_a_child_ended_by_a_signal_is_an_error_naming_the_log(tmp_path, capsys, monkeypatch):
    replacing_read_part(monkeypatch, lambda: os.kill(os.getpid(), signal.SIGKILL))
    read_in_two_parts(monkeypatch)
    message = f"events.jsonl: the process reading its later part ended by signal {int(signal.SIGKILL)}"
    assert error_of(GOLDEN / "events.jsonl") == message
    assert read_commands(GOLDEN, tmp_path, capsys) == [(2, f"checkinsim: error: {message}\n")] * 2


def test_a_child_that_sends_too_little_is_an_error_naming_the_log(monkeypatch):
    def claiming_one_more_row(sent):
        rows, outcomes = sent
        return json.dumps([rows + 1, outcomes])
    monkeypatch.setattr(tables, "json", SimpleNamespace(
        dumps=claiming_one_more_row, loads=json.loads, JSONDecodeError=json.JSONDecodeError))
    read_in_two_parts(monkeypatch)
    assert error_of(GOLDEN / "events.jsonl") == \
        "events.jsonl: the process reading its later part stopped sending"


WARNING_PROBE = """
import gc, sys
from checkinsim import tables
tables._SPLIT_BYTES = 0
tables._may_fork = lambda: True
good, *bad = sys.argv[1:]
assert len(tables.load_events(good)) > 0
for path in bad:
    try:
        tables.load_events(path)
    except ValueError as exc:
        print(exc)
gc.collect()
"""


def test_reads_in_two_parts_warn_of_nothing(tmp_path):
    lines = GOLDEN.joinpath("events.jsonl").read_text(encoding="utf-8").split("\n")
    paths = [str(GOLDEN / "events.jsonl")]
    for i in (0, late_line(lines)):
        damaged = list(lines)
        damaged[i] = damaged[i][:20]
        paths.append(tmp_path / f"damaged-{i}" / "events.jsonl")
        paths[-1].parent.mkdir()
        paths[-1].write_text("\n".join(damaged), encoding="utf-8")
    done = subprocess.run([sys.executable, "-X", "dev", "-W", "error", "-c", WARNING_PROBE,
                           *map(str, paths)], capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert (done.returncode, done.stderr) == (0, "")
    named = [line.split(" ", 1)[0] for line in done.stdout.splitlines()]
    assert named == ["events.jsonl:1:", f"events.jsonl:{late_line(lines) + 1}:"]
