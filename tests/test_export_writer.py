"""events.jsonl written by a forked child while the run goes on.

``harness.write_exports`` hands a log of ``tables._FORK_ROWS`` rows or more
to a child forked by ``tables.fork_event_writer`` and waits for it on exit.
Every directory it writes must be byte-equal to the one a write in one
process gives, each ``events.jsonl`` line the JSON encoder's line for its
check-in record, and a child that fails, a block that raises or a fork that
cannot start must leave the same log; conftest's ``no_child_is_left``
checks that no child outlives the test.
"""

import contextlib
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from checkinsim import harness, tables
from checkinsim.cli import main
from oracles import encode_event_line, kept_records
from test_log_reader import STRICT_TOUR, tiny_workloads

ROOT = Path(__file__).resolve().parent.parent
EXPORT_FILES = ("UserInfo.csv", "VenueInfo.csv", "RecentCheckin.csv", "events.jsonl", "run.json")
RUN_FILES = (*EXPORT_FILES, "report.csv", "recent_ratio_curve.csv", "badge_curve.csv",
             "metrics.json")
SMALL = {"population": {"n_users": 60, "n_venues": 40, "seed": 7, "duration_days": 30,
                        "cheater_fraction": 0.1},
         "rules": {"frequent_window_s": 60, "gps_radius_m": 5}}


def written_aside(monkeypatch):
    """Make ``write_exports`` fork for every log; returns the list of the
    pids of the children forked."""
    monkeypatch.setattr(tables, "_FORK_ROWS", 0)
    monkeypatch.setattr(tables, "_may_fork", lambda: True)
    pids, fork = [], tables.fork_event_writer

    def recording(log, path):
        pid = fork(log, path)
        pids.append(pid)
        return pid
    monkeypatch.setattr(harness, "fork_event_writer", recording)
    return pids


def contents(directory, names=RUN_FILES):
    return {name: (directory / name).read_bytes() for name in names}


def encoded(records) -> bytes:
    return "".join(map(encode_event_line, records)).encode()


def run(config, out, seed=None):
    return harness.run_scenario(harness.ScenarioConfig.from_dict(config), out, seed=seed)


@pytest.mark.parametrize("config, seed", [*tiny_workloads(),
                                          pytest.param(STRICT_TOUR, 5, id="strict-tour")])
def test_a_run_written_aside_is_the_run_written_inline(tmp_path, monkeypatch, config, seed):
    with kept_records() as kept:
        run(config, tmp_path / "inline", seed)
    inline = contents(tmp_path / "inline")
    assert inline["events.jsonl"] == encoded(kept) != b""
    pids = written_aside(monkeypatch)
    result = run(config, tmp_path / "aside", seed)
    assert len(pids) == 1 and pids[0] > 0
    assert contents(tmp_path / "aside") == inline
    assert len(result.world.events) == len(kept)


def test_the_directory_commands_write_aside_what_they_write_inline(tmp_path, monkeypatch,
                                                                    capsys):
    config, schedule = tmp_path / "config.json", tmp_path / "tour.jsonl"
    config.write_text(json.dumps(SMALL), encoding="utf-8")

    def commands(root, keep=False):
        """Run the four commands into ``root``; with ``keep``, the records
        of the rows generate and attack-exec submit (which changes the
        snapshot's bytes, not the exports')."""
        kept = {}
        for argv in (["generate", "--config", str(config), "--out", str(root / "gen"),
                      "--snapshot"],
                     ["attack-plan", "--snapshot", str(root / "gen" / "world.snap"), "--mode",
                      "tour", "--start", "38.5,-98.0", "--steps", "5", "--out", str(schedule)],
                     ["attack-exec", "--snapshot", str(root / "gen" / "world.snap"),
                      "--schedule", str(schedule), "--true-location", "64.8,-147.7",
                      "--out", str(root / "post")],
                     ["export", "--snapshot", str(root / "post" / "world.snap"),
                      "--out", str(root / "export")]):
            with kept_records() if keep else contextlib.nullcontext([]) as kept[argv[0]]:
                assert main(argv) == 0, capsys.readouterr().err
        return kept

    kept = commands(tmp_path / "kept", keep=True)
    records = {"gen": kept["generate"], "post": kept["generate"] + kept["attack-exec"]}
    records["export"] = records["post"]
    for directory, rows in records.items():
        assert (tmp_path / "kept" / directory / "events.jsonl").read_bytes() == encoded(rows)
    commands(tmp_path / "inline")
    pids = written_aside(monkeypatch)
    commands(tmp_path / "aside")
    assert len(pids) == 3 and all(pid > 0 for pid in pids)
    for directory in records:
        files = (*EXPORT_FILES, "world.snap") if directory != "export" else EXPORT_FILES
        assert contents(tmp_path / "aside" / directory, files) == \
            contents(tmp_path / "inline" / directory, files), directory
        assert contents(tmp_path / "aside" / directory, EXPORT_FILES) == \
            contents(tmp_path / "kept" / directory, EXPORT_FILES), directory


def test_the_gate_counts_rows_and_fork_must_be_usable(tmp_path, monkeypatch):
    world, _ = harness.build_world(harness.ScenarioConfig.from_dict(SMALL))
    rows = len(world.events)
    pids = written_aside(monkeypatch)
    for gate, may_fork, forked in ((rows + 1, True, False), (rows, True, True),
                                   (0, False, False)):
        monkeypatch.setattr(tables, "_FORK_ROWS", gate)
        monkeypatch.setattr(tables, "_may_fork", lambda: may_fork)
        with harness.write_exports(world, tmp_path / str(gate)):
            pass
        assert (pids.pop() is not None) == forked, (gate, may_fork)


# -- failures ------------------------------------------------------------------


@pytest.mark.parametrize("aside", [False, True], ids=["inline", "aside"])
def test_an_events_path_that_cannot_be_opened_fails_first(tmp_path, monkeypatch, capsys,
                                                          aside):
    config, out = tmp_path / "config.json", tmp_path / "out"
    config.write_text(json.dumps(SMALL), encoding="utf-8")
    (out / "events.jsonl").mkdir(parents=True)
    pids = written_aside(monkeypatch) if aside else []
    assert main(["run", "--config", str(config), "--out", str(out)]) == 2
    assert capsys.readouterr().err == \
        f"checkinsim: error: [Errno 21] Is a directory: '{out / 'events.jsonl'}'\n"
    assert sorted(p.name for p in out.iterdir()) == ["events.jsonl"]
    assert pids == []  # the open raised before any fork


def failing_child(monkeypatch, fail):
    """Make a forked writer write a line of garbage and then ``fail()``; the
    parent's own writes are left as they are."""
    parent, write = os.getpid(), tables._write_event_lines

    def writing(log, fh):
        if os.getpid() != parent:
            fh.write("not the log\n")
            fh.flush()
            fail()
        write(log, fh)
    monkeypatch.setattr(tables, "_write_event_lines", writing)


def raise_error():
    raise OSError(28, "No space left on device")


def kill_self():
    os.kill(os.getpid(), signal.SIGKILL)


@pytest.mark.parametrize("fail", [raise_error, kill_self], ids=["raises", "killed"])
def test_a_failed_child_is_written_again_here(tmp_path, monkeypatch, fail):
    run(SMALL, tmp_path / "inline")
    pids = written_aside(monkeypatch)
    failing_child(monkeypatch, fail)
    run(SMALL, tmp_path / "aside")
    assert len(pids) == 1 and pids[0] > 0
    assert contents(tmp_path / "aside") == contents(tmp_path / "inline")


@pytest.mark.parametrize("child", ["exits-0", "killed"])
def test_a_block_that_raises_leaves_a_whole_log(tmp_path, monkeypatch, child):
    world, _ = harness.build_world(harness.ScenarioConfig.from_dict(SMALL))
    expected = world.export_events(tmp_path / "inline.jsonl").read_bytes()
    pids = written_aside(monkeypatch)
    if child == "killed":
        failing_child(monkeypatch, kill_self)
    with pytest.raises(RuntimeError, match="the block"):
        with harness.write_exports(world, tmp_path / "out"):
            raise RuntimeError("the block")
    assert len(pids) == 1 and pids[0] > 0
    assert (tmp_path / "out" / "events.jsonl").read_bytes() == expected


def open_descriptors():
    return sorted(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None


def test_a_fork_that_fails_writes_the_log_here(tmp_path, monkeypatch):
    world, _ = harness.build_world(harness.ScenarioConfig.from_dict(SMALL))
    with harness.write_exports(world, tmp_path / "inline"):
        pass
    pids = written_aside(monkeypatch)

    def failing_fork():
        raise BlockingIOError(11, "no process to spare")
    monkeypatch.setattr(os, "fork", failing_fork)
    before = open_descriptors()
    with harness.write_exports(world, tmp_path / "aside"):
        pass
    assert open_descriptors() == before
    assert pids == [None]
    assert contents(tmp_path / "aside", EXPORT_FILES) == contents(tmp_path / "inline", EXPORT_FILES)


WARNING_PROBE = """
import gc, os, signal, sys
from checkinsim import harness, tables
tables._FORK_ROWS = 0
tables._may_fork = lambda: True
config = harness.ScenarioConfig.from_dict({"population": {"n_users": 60, "n_venues": 40}})
out = sys.argv[1]
harness.run_scenario(config, out + "/run")
world = harness.build_world(config)[0]
try:
    with harness.write_exports(world, out + "/raised"):
        raise RuntimeError("the block")
except RuntimeError as exc:
    print(exc)
parent, write = os.getpid(), tables._write_event_lines
def killed(log, fh):
    if os.getpid() != parent:
        os.kill(os.getpid(), signal.SIGKILL)
    write(log, fh)
tables._write_event_lines = killed
with harness.write_exports(world, out + "/rewritten"):
    pass
gc.collect()
print(len(os.listdir(out)))
"""


def test_writes_aside_warn_of_nothing(tmp_path):
    done = subprocess.run([sys.executable, "-X", "dev", "-W", "error", "-c", WARNING_PROBE,
                           str(tmp_path)], capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert (done.returncode, done.stderr, done.stdout) == (0, "", "the block\n3\n")
    for directory in ("raised", "rewritten"):
        assert (tmp_path / directory / "events.jsonl").read_bytes() == \
            (tmp_path / "run" / "events.jsonl").read_bytes(), directory
