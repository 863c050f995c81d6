"""Smoke check for the benchmark itself.

Usage (from the root of a checkout): python3 perfbench/smoke.py

At the tiny scale and each workload's default seed, runs every workload once
untraced and once traced, so every op runs, and checks that the result line
names every metric of BENCHMARK.json with its unit and that every output
check passed. Then checks that the benchmark refuses to run, with a non-zero
exit and no result line, in a directory holding only the benchmark files.
Exits non-zero on the first failure.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

from run import BENCH, ROOT, WORK

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def bench_command(workload: str, seed: int, trace: int) -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return spec["command"] + ["--workload", workload, "--seed", str(seed), "--seconds", "1",
                              "--trace", str(trace)]


def check_run(workload: str, seed: int, trace: int, expected: dict[str, str]) -> None:
    argv = bench_command(workload, seed, trace) + ["--scale", "tiny"]
    out = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=180)
    label = f"{workload} --trace {trace}"
    if out.returncode != 0:
        raise SystemExit(f"{label}: exit {out.returncode}\n{out.stderr[-3000:]}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if set(result) != RESULT_KEYS:
        raise SystemExit(f"{label}: result keys {sorted(result)}")
    if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 3):
        raise SystemExit(f"{label}: checks failed: {result}\n{out.stderr[-3000:]}")
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    if units != expected:
        raise SystemExit(f"{label}: metrics/units differ from BENCHMARK.json: "
                         f"{sorted(set(units.items()) ^ set(expected.items()))}")
    print(f"ok  {label}: {result['attempted']} ops, {len(units)} metrics")


def check_refuses_without_program() -> None:
    bare = WORK / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
        out = subprocess.run(bench_command("hot-venues", 1, 0), cwd=bare, capture_output=True,
                             text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if out.returncode == 0 or out.stdout.strip():
        raise SystemExit(f"bare directory: exit {out.returncode}, stdout {out.stdout!r}")
    print("ok  refuses to run without the program")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = json.loads((BENCH / "workloads.json").read_text(encoding="utf-8"))
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if [w["name"] for w in spec["workloads"]] != list(workloads):
        raise SystemExit("BENCHMARK.json and workloads.json list different workloads")
    for name, workload in workloads.items():
        check_run(name, workload["default_seed"], 0, end_to_end)
        check_run(name, workload["default_seed"], 1, per_layer)
    check_refuses_without_program()
    return 0


if __name__ == "__main__":
    sys.exit(main())
