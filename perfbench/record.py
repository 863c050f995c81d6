"""Record each workload's default-seed digests and facts into workloads.json.

Usage (from the root of a checkout): python3 perfbench/record.py

Run it only when a change to checkinsim is meant to change the exported
bytes. For every workload it runs the default seed at full and tiny scale,
stores the sha256 of each checked output file, and stores the counts that
show the workload still exercises its layer: check-ins, valid check-ins,
invalid check-ins by flag, and the attest, recompute_mayor and
build_schedule call counts of a traced run. These counts repeat exactly.
"""

from __future__ import annotations

import json
import shutil
import sys
import time

from run import BENCH, WORK, Bench, load_workload, output_digests, run_layers, warm_up


def record(name: str, scale: str) -> tuple[dict, dict]:
    workload = load_workload(name, scale)
    work_dir = WORK / f"record-{name}-{scale}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    try:
        bench = Bench(workload, scale, workload["default_seed"], work_dir, time.monotonic() + 600)
        bench.spawn("run", work_dir / "plain")
        digests = output_digests(work_dir / "plain")
        traced = bench.spawn("run", work_dir / "traced", "spans")
        if output_digests(work_dir / "traced") != digests:
            raise SystemExit(f"{name}: tracing changed the run's outputs")
        metrics = json.loads((work_dir / "plain" / "metrics.json").read_text(encoding="utf-8"))
        layers = run_layers(traced.detail["trace"])
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    facts = {
        "checkins": metrics["total_checkins"],
        "valid": metrics["valid_checkins"],
        "invalid_by_flag": metrics["invalid_by_flag"],
        "attest_calls": layers["run.verify.attest_calls"],
        "recompute_mayor_calls": layers["run.rewards.recompute_mayor_calls"],
        "build_schedule_calls": layers["run.attacker.build_schedule_calls"],
    }
    return digests, facts


def main() -> int:
    warm_up()
    path = BENCH / "workloads.json"
    workloads = json.loads(path.read_text(encoding="utf-8"))
    for name, workload in workloads.items():
        workload["digests"] = {}
        for scale in ("full", "tiny"):
            digests, facts = record(name, scale)
            workload["digests"][scale] = digests
            if scale == "full":
                workload["facts"] = facts
        print(f"{name}: {json.dumps(workload['facts'])}", file=sys.stderr)
    path.write_text(json.dumps(workloads, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
