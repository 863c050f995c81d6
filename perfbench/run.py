"""checkinsim benchmark: run, detect and replay over three workloads.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload hot-venues --seed 1 --seconds 40 --trace 0

Each iteration runs three ops, one after another, each in its own fresh
process (see op.py): ``run`` (``harness.run_scenario``), ``detect``
(``checkinsim detect``) and ``replay`` (``checkinsim verify-replay``) over
the run's exports. With ``--trace 0`` iterations repeat until ``--seconds``
is used up, cycling over SEEDS_PER_RUN worlds derived from ``--seed``; each
end-to-end metric is the mean over those worlds of the median over their
iterations. Timings are scaled to a reference host speed by the probe that
op.py times inside each call. With ``--trace 1`` one untraced run, one
traced run, one haversine-counting run and a traced detect and replay give
the per-layer metrics.

Every op's output is checked: at the workload's default seed the run's
exports must match the digests recorded in workloads.json, detect's report
must equal the run's report.csv byte for byte, and verify-replay must exit 0
with 0 mismatches. An op fails if its process exits non-zero or its check
fails. The last line of stdout is one JSON object: correct, attempted,
failed and metrics.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

from spans import span_totals

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".perfbench_work"
OP_SCRIPT = BENCH / "op.py"
# An invocation must end within 180 s; an op still running at this point is killed.
DEADLINE_S = 165.0
# Typical time of one op.py probe inside an op on the reference host (a shared
# 2-vCPU VM, CPython 3.11). Timings are reported at that host speed:
# (wall time - probe time) x PROBE_REF_S / mean probe time.
PROBE_REF_S = 0.0012
# Each untraced run cycles over this many worlds, seeded seed, seed + SEED_STRIDE, ...
# Where users anchor moves a world's work by several percent; averaging over
# worlds keeps that out of the run-to-run spread.
SEEDS_PER_RUN = 4
SEED_STRIDE = 1000

OUTPUT_FILES = ("UserInfo.csv", "VenueInfo.csv", "RecentCheckin.csv", "events.jsonl", "report.csv",
                "recent_ratio_curve.csv", "badge_curve.csv", "metrics.json")
REPLAY_LINE = re.compile(r"verify-replay: (\d+) events, (\d+) mismatches")

END_TO_END_UNITS = {
    "run_s": "s",
    "checkins_per_s": "1/s",
    "detect_s": "s",
    "replay_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "read_peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "run.harness.self_s": "s",
    "run.spatial.within_radius_s": "s",
    "run.spatial.within_radius_calls": "count",
    "run.spatial.nearest_s": "s",
    "run.spatial.nearest_calls": "count",
    "run.world.submit_self_s": "s",
    "run.world.submit_calls": "count",
    "run.world.accept_ratio": "ratio",
    "run.anticheat.evaluate_next_s": "s",
    "run.anticheat.reject_ratio": "ratio",
    "run.verify.attest_s": "s",
    "run.verify.attest_calls": "count",
    "run.verify.attest_pass_ratio": "ratio",
    "run.rewards.on_valid_self_s": "s",
    "run.rewards.recompute_mayor_s": "s",
    "run.rewards.recompute_mayor_calls": "count",
    "run.rewards.mayor_candidates_mean": "count",
    "run.attacker.build_schedule_s": "s",
    "run.attacker.build_schedule_calls": "count",
    "run.attacker.plan_s": "s",
    "run.attacker.execute_s": "s",
    "run.attacker.valid_ratio": "ratio",
    "run.world.export_profiles_s": "s",
    "run.world.export_events_s": "s",
    "run.world.export_bytes": "B",
    "run.tables.load_tables_s": "s",
    "run.tables.load_events_s": "s",
    "run.tables.tables_from_world_s": "s",
    "run.analytics.user_traces_s": "s",
    "run.analytics.speed_feasibility_s": "s",
    "run.analytics.dispersion_s": "s",
    "run.analytics.report_self_s": "s",
    "run.analytics.write_s": "s",
    "run.geo.haversine_calls.anticheat": "count",
    "run.geo.haversine_calls.spatial": "count",
    "run.geo.haversine_calls.verify": "count",
    "run.geo.haversine_calls.analytics": "count",
    "run.geo.haversine_calls.attacker": "count",
    "run.trace_overhead_s": "s",
    "detect.tables.load_tables_s": "s",
    "detect.tables.load_events_s": "s",
    "detect.tables.event_rows": "count",
    "detect.analytics.user_traces_s": "s",
    "detect.analytics.speed_feasibility_s": "s",
    "detect.analytics.dispersion_s": "s",
    "detect.analytics.report_self_s": "s",
    "detect.analytics.write_s": "s",
    "replay.tables.load_tables_s": "s",
    "replay.tables.load_events_s": "s",
    "replay.anticheat.offline_verdicts_s": "s",
    "replay.anticheat.offline_verdicts_rows": "count",
    "replay.cli.self_s": "s",
}


class OpFailed(Exception):
    pass


class OutOfTime(OpFailed):
    pass


@dataclass
class OpResult:
    wall_s: float  # the call's wall time, less the probe ticks inside it
    setup_s: float
    host_factor: float  # how much slower than the reference host the probe ran
    rss_mb: float
    detail: dict

    @property
    def scaled_wall_s(self) -> float:
        return self.wall_s / self.host_factor

    @property
    def scaled_setup_s(self) -> float:
        return self.setup_s / self.host_factor


class RunResult(NamedTuple):
    op: OpResult
    digests: dict[str, str]
    checkins: int


def load_workload(name: str, scale: str) -> dict:
    workloads = json.loads((BENCH / "workloads.json").read_text(encoding="utf-8"))
    if name not in workloads:
        raise SystemExit(f"unknown workload {name!r}; choose from {sorted(workloads)}")
    workload = copy.deepcopy(workloads[name])
    if scale == "tiny":
        workload["config"]["population"].update(workload["tiny"])
    return workload


def output_digests(run_dir: Path) -> dict[str, str]:
    return {name: hashlib.sha256((run_dir / name).read_bytes()).hexdigest() for name in OUTPUT_FILES}


class Bench:
    """Spawns op processes for one workload and checks their outputs."""

    def __init__(self, workload: dict, scale: str, seed: int, work_dir: Path, deadline: float) -> None:
        self.workload = workload
        self.scale = scale
        self.seed = seed
        self.work_dir = work_dir
        self.deadline = deadline
        self.config_path = work_dir / "config.json"
        self.config_path.write_text(json.dumps(workload["config"]), encoding="utf-8")
        self.attempted = 0
        self.failed = 0

    def spawn(self, op: str, run_dir: Path, mode: str = "plain", seed: int | None = None) -> OpResult:
        """Run one op in a fresh process; its peak RSS comes from wait4 on that child alone."""
        result_path = self.work_dir / f"{op}.result.json"
        result_path.unlink(missing_ok=True)
        stderr_path = self.work_dir / f"{op}.stderr"
        argv = [sys.executable, str(OP_SCRIPT), op, str(run_dir), str(self.config_path),
                str(self.seed if seed is None else seed), mode, str(result_path)]
        with open(stderr_path, "wb") as err:
            spawned = time.monotonic()
            proc = subprocess.Popen(argv, cwd=ROOT, stdin=subprocess.DEVNULL,
                                    stdout=subprocess.DEVNULL, stderr=err)
            try:
                usage = self._wait(proc)
            finally:
                if proc.returncode is None:
                    proc.kill()
                    _, status, usage = os.wait4(proc.pid, 0)
                    proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            tail = stderr_path.read_text(encoding="utf-8", errors="replace")[-2000:]
            raise OpFailed(f"{op} exited with {proc.returncode}:\n{tail}")
        detail = json.loads(result_path.read_text(encoding="utf-8"))
        # ru_maxrss is in KiB on Linux. The parent stays far smaller than any
        # op, so the RSS a child inherits until exec never sets its maximum.
        return OpResult(wall_s=detail["end"] - detail["start"] - detail["probe_in_call_s"],
                        setup_s=detail["start"] - spawned,
                        host_factor=statistics.fmean(detail["probes"]) / PROBE_REF_S,
                        rss_mb=usage.ru_maxrss / 1024.0, detail=detail)

    def _wait(self, proc: subprocess.Popen):
        """Reap the op and return its rusage; raise OutOfTime at the deadline."""
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                proc.returncode = os.waitstatus_to_exitcode(status)
                return usage
            if time.monotonic() > self.deadline:
                raise OutOfTime(f"op {proc.args[2]} killed at the {DEADLINE_S:.0f} s deadline")
            time.sleep(0.005)

    # -- checked ops -----------------------------------------------------------

    def attempt(self, check, *args):
        """Run one checked op; count it, and return None if it failed."""
        self.attempted += 1
        try:
            return check(*args)
        except OutOfTime:
            self.failed += 1
            raise
        except (OpFailed, OSError, ValueError, KeyError) as exc:
            self.failed += 1
            print(f"perfbench: op failed: {exc}", file=sys.stderr)
            return None

    def checked_run(self, run_dir: Path, mode: str = "plain", seed: int | None = None) -> RunResult:
        seed = self.seed if seed is None else seed
        shutil.rmtree(run_dir, ignore_errors=True)
        result = self.spawn("run", run_dir, mode, seed)
        digests = output_digests(run_dir)
        if seed == self.workload["default_seed"]:
            recorded = self.workload.get("digests", {}).get(self.scale)
            if recorded != digests:
                differ = sorted(n for n in OUTPUT_FILES if (recorded or {}).get(n) != digests[n])
                raise OpFailed(f"run outputs differ from the recorded default-seed digests: {differ}")
        metrics = json.loads((run_dir / "metrics.json").read_text(encoding="utf-8"))
        return RunResult(result, digests, metrics["total_checkins"])

    def checked_detect(self, run_dir: Path, mode: str = "plain") -> OpResult:
        result = self.spawn("detect", run_dir, mode)
        if result.detail["cli_code"] != 0:
            raise OpFailed(f"detect returned {result.detail['cli_code']}")
        if (run_dir / "detect_report.csv").read_bytes() != (run_dir / "report.csv").read_bytes():
            raise OpFailed("detect report differs from the run's report.csv")
        return result

    def checked_replay(self, run_dir: Path, total_checkins: int | None, mode: str = "plain") -> OpResult:
        result = self.spawn("replay", run_dir, mode)
        match = REPLAY_LINE.search(result.detail["cli_stdout"])
        if result.detail["cli_code"] != 0 or match is None:
            raise OpFailed(f"verify-replay returned {result.detail['cli_code']}: "
                           f"{result.detail['cli_stdout'].strip()!r}")
        events, mismatches = int(match.group(1)), int(match.group(2))
        if mismatches != 0 or events != total_checkins:
            raise OpFailed(f"verify-replay saw {events} events with {mismatches} mismatches, "
                           f"expected {total_checkins} events")
        return result


# -- untraced: end-to-end metrics ------------------------------------------------

def measure(bench: Bench, seconds: float) -> dict:
    """Iterate until ``seconds`` is used up, cycling over SEEDS_PER_RUN worlds
    derived from the run's seed; each metric is the mean over those worlds of
    the median over that world's iterations."""
    run_dir = bench.work_dir / "out"
    seeds = [bench.seed + i * SEED_STRIDE for i in range(SEEDS_PER_RUN)]
    samples: dict[int, dict[str, list[float]]] = {seed: {name: [] for name in END_TO_END_UNITS} for seed in seeds}
    began = time.monotonic()
    iteration_s: list[float] = []
    done = 0
    while True:
        start = time.monotonic()
        seed = seeds[len(iteration_s) % len(seeds)]
        try:
            ran = bench.attempt(bench.checked_run, run_dir, "plain", seed)
            total = ran.checkins if ran else None
            detect = bench.attempt(bench.checked_detect, run_dir)
            replay = bench.attempt(bench.checked_replay, run_dir, total)
        except OutOfTime as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            break
        if ran and detect and replay:
            run = ran.op
            figures = {
                "run_s": run.scaled_wall_s,
                "checkins_per_s": total / run.scaled_wall_s,
                "detect_s": detect.scaled_wall_s,
                "replay_s": replay.scaled_wall_s,
                "setup_s": run.scaled_setup_s + detect.scaled_setup_s + replay.scaled_setup_s,
                "peak_rss_mb": run.rss_mb,
                "read_peak_rss_mb": max(detect.rss_mb, replay.rss_mb),
            }
            for name, value in figures.items():
                samples[seed][name].append(value)
            done += 1
            print(f"perfbench: iteration {done} (seed {seed}): "
                  + " ".join(f"{name} {value:.4g}" for name, value in figures.items())
                  + f" | unscaled run_s {run.wall_s:.4g} detect_s {detect.wall_s:.4g} replay_s {replay.wall_s:.4g}"
                  + f" host_factor {run.host_factor:.3f}/{detect.host_factor:.3f}/{replay.host_factor:.3f}",
                  file=sys.stderr)
        iteration_s.append(time.monotonic() - start)
        # After one round over the worlds, start another iteration only if it
        # should end inside the budget.
        if (len(iteration_s) >= len(seeds)
                and time.monotonic() - began + statistics.median(iteration_s) > seconds):
            break
    print(f"perfbench: {done} complete iterations, {bench.failed}/{bench.attempted} ops failed "
          f"(failed_ratio {bench.failed / bench.attempted:.3f})", file=sys.stderr)
    if any(not per_seed["run_s"] for per_seed in samples.values()):
        print(f"perfbench: fewer than {SEEDS_PER_RUN} complete iterations; raise --seconds", file=sys.stderr)
        return {}
    return {name: statistics.fmean(statistics.median(per_seed[name]) for per_seed in samples.values())
            for name in END_TO_END_UNITS}


# -- traced: per-layer metrics ---------------------------------------------------

def _layer(totals: dict, name: str, field: str) -> float:
    return totals.get(name, {}).get(field, 0)


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def run_layers(trace: dict) -> dict[str, float]:
    t = span_totals(trace)
    c = trace["counters"]
    submits = _layer(t, "world.submit", "calls")
    evaluations = _layer(t, "anticheat.evaluate_next", "calls")
    attests = _layer(t, "verify.attest", "calls")
    mayor_calls = _layer(t, "rewards.recompute_mayor", "calls")
    return {
        "run.harness.self_s": _layer(t, "harness", "self_s"),
        "run.spatial.within_radius_s": _layer(t, "spatial.within_radius", "total_s"),
        "run.spatial.within_radius_calls": _layer(t, "spatial.within_radius", "calls"),
        "run.spatial.nearest_s": _layer(t, "spatial.nearest", "total_s"),
        "run.spatial.nearest_calls": _layer(t, "spatial.nearest", "calls"),
        "run.world.submit_self_s": _layer(t, "world.submit", "self_s"),
        "run.world.submit_calls": submits,
        "run.world.accept_ratio": _ratio(c.get("world.accepted", 0), submits),
        "run.anticheat.evaluate_next_s": _layer(t, "anticheat.evaluate_next", "total_s"),
        "run.anticheat.reject_ratio": _ratio(c.get("anticheat.rejected", 0), evaluations),
        "run.verify.attest_s": _layer(t, "verify.attest", "total_s"),
        "run.verify.attest_calls": attests,
        "run.verify.attest_pass_ratio": _ratio(c.get("verify.attest_passed", 0), attests),
        "run.rewards.on_valid_self_s": _layer(t, "rewards.on_valid", "self_s"),
        "run.rewards.recompute_mayor_s": _layer(t, "rewards.recompute_mayor", "total_s"),
        "run.rewards.recompute_mayor_calls": mayor_calls,
        "run.rewards.mayor_candidates_mean": _ratio(c.get("rewards.mayor_candidates", 0), mayor_calls),
        "run.attacker.build_schedule_s": _layer(t, "attacker.build_schedule", "total_s"),
        "run.attacker.build_schedule_calls": _layer(t, "attacker.build_schedule", "calls"),
        "run.attacker.plan_s": _layer(t, "attacker.plan", "total_s"),
        "run.attacker.execute_s": _layer(t, "attacker.execute", "total_s"),
        "run.attacker.valid_ratio": _ratio(c.get("attacker.executed_valid", 0), c.get("attacker.executed", 0)),
        "run.world.export_profiles_s": _layer(t, "world.export_profiles", "total_s"),
        "run.world.export_events_s": _layer(t, "world.export_events", "total_s"),
        "run.world.export_bytes": c.get("world.export_bytes", 0),
        "run.tables.load_tables_s": _layer(t, "tables.load_tables", "total_s"),
        "run.tables.load_events_s": _layer(t, "tables.load_events", "total_s"),
        "run.tables.tables_from_world_s": _layer(t, "tables.tables_from_world", "total_s"),
        **_analytics_layers("run", t),
    }


def _analytics_layers(prefix: str, t: dict) -> dict[str, float]:
    return {
        f"{prefix}.analytics.user_traces_s": _layer(t, "analytics.user_traces", "total_s"),
        f"{prefix}.analytics.speed_feasibility_s": _layer(t, "analytics.speed_feasibility", "total_s"),
        f"{prefix}.analytics.dispersion_s": _layer(t, "analytics.dispersion", "total_s"),
        f"{prefix}.analytics.report_self_s": _layer(t, "analytics.report", "self_s"),
        f"{prefix}.analytics.write_s": _layer(t, "analytics.write", "total_s"),
    }


def detect_layers(trace: dict) -> dict[str, float]:
    t = span_totals(trace)
    return {
        "detect.tables.load_tables_s": _layer(t, "tables.load_tables", "total_s"),
        "detect.tables.load_events_s": _layer(t, "tables.load_events", "total_s"),
        "detect.tables.event_rows": trace["counters"].get("tables.event_rows", 0),
        **_analytics_layers("detect", t),
    }


def replay_layers(trace: dict) -> dict[str, float]:
    t = span_totals(trace)
    return {
        "replay.tables.load_tables_s": _layer(t, "tables.load_tables", "total_s"),
        "replay.tables.load_events_s": _layer(t, "tables.load_events", "total_s"),
        "replay.anticheat.offline_verdicts_s": _layer(t, "anticheat.offline_verdicts", "total_s"),
        "replay.anticheat.offline_verdicts_rows": trace["counters"].get("anticheat.offline_verdicts_rows", 0),
        "replay.cli.self_s": _layer(t, "cli", "self_s"),
    }


def trace_layers(bench: Bench) -> dict:
    """One untraced run, one traced run and one counting run, then a traced
    detect and replay over the traced run's exports."""
    try:
        plain = bench.attempt(bench.checked_run, bench.work_dir / "plain")
        traced = bench.attempt(bench.checked_run, bench.work_dir / "traced", "spans")
        counted = bench.attempt(bench.checked_run, bench.work_dir / "counted", "count")
        traced_dir = bench.work_dir / "traced"
        total = traced.checkins if traced else None
        detect = bench.attempt(bench.checked_detect, traced_dir, "spans")
        replay = bench.attempt(bench.checked_replay, traced_dir, total, "spans")
    except OutOfTime as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return {}
    if not (plain and traced and counted and detect and replay):
        return {}
    if not plain.digests == traced.digests == counted.digests:
        bench.failed += 1
        print("perfbench: traced or counting run changed the run's outputs", file=sys.stderr)
        return {}
    metrics = run_layers(traced.op.detail["trace"])
    for caller, calls in counted.op.detail["haversine_calls"].items():
        metrics[f"run.geo.haversine_calls.{caller}"] = calls
    metrics["run.trace_overhead_s"] = traced.op.wall_s - plain.op.wall_s
    metrics.update(detect_layers(detect.detail["trace"]))
    metrics.update(replay_layers(replay.detail["trace"]))
    return metrics


# -- entry point -------------------------------------------------------------------

def warm_up() -> None:
    """Compile checkinsim's bytecode once, as an installed package would have it."""
    subprocess.run([sys.executable, "-c", "import sys; sys.path.insert(0, 'src'); import checkinsim.cli"],
                   cwd=ROOT, check=True, timeout=60)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny runs the same workloads at smoke-test size")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    began = time.monotonic()
    args = parse_args(argv)
    if not (ROOT / "src" / "checkinsim" / "__init__.py").is_file():
        print(f"perfbench: no checkinsim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = load_workload(args.workload, args.scale)
    work_dir = WORK / f"{args.workload}-{args.scale}-s{args.seed}-p{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        warm_up()
        bench = Bench(workload, args.scale, args.seed, work_dir, began + DEADLINE_S)
        if args.trace:
            values, units = trace_layers(bench), PER_LAYER_UNITS
        else:
            values, units = measure(bench, args.seconds), END_TO_END_UNITS
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    complete = set(values) == set(units)
    for name in units:
        if name in values:
            print(f"{name:42s} {values[name]:>16.6g} {units[name]}", file=sys.stderr)
    print(json.dumps({
        "correct": complete and bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items() if name in values},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
