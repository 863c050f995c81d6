"""Per-layer tracing for the checkinsim benchmark.

The benchmark wraps public checkinsim functions and methods where their
caller looks them up (a module global such as ``checkinsim.world.attest_checkin``
or a class attribute such as ``World.submit_checkin``). Each wrapped call
records one span: name, parent span, start and end. Spans stay in memory and
are handed to the benchmark when the op ends; ``span_totals`` turns them
into per-layer totals and self times.

A separate counting mode replaces ``haversine_m`` in each calling module
with a bare counter, so millions of distance calls do not inflate the
traced self times.
"""

from __future__ import annotations

import functools
from collections import Counter
import time
from array import array

# (module, owner, attribute, span name). The owner is "" for a module global
# or a class name such as "World" for a method.
RUN_SPANS = (
    ("harness", "", "run_scenario", "harness"),
    ("spatial", "VenueGridIndex", "within_radius", "spatial.within_radius"),
    ("spatial", "VenueGridIndex", "nearest", "spatial.nearest"),
    ("world", "World", "submit_checkin", "world.submit"),
    ("anticheat", "UserRuleState", "evaluate_next", "anticheat.evaluate_next"),
    ("world", "", "attest_checkin", "verify.attest"),
    ("rewards", "RewardsEngine", "on_valid_checkin", "rewards.on_valid"),
    ("rewards", "RewardsEngine", "recompute_mayor", "rewards.recompute_mayor"),
    ("harness", "", "build_schedule", "attacker.build_schedule"),
    ("harness", "", "plan_tour", "attacker.plan"),
    ("harness", "", "select_targets", "attacker.plan"),
    ("harness", "", "plan_mayor_denial", "attacker.plan"),
    ("harness", "", "execute", "attacker.execute"),
    ("world", "World", "export_public_profiles", "world.export_profiles"),
    ("world", "World", "export_events", "world.export_events"),
    ("harness", "", "load_tables", "tables.load_tables"),
    ("harness", "", "load_events", "tables.load_events"),
    ("harness", "", "tables_from_world", "tables.tables_from_world"),
)

ANALYTICS_SPANS = (
    ("analytics", "", "build_report", "analytics.report"),
    ("analytics", "", "user_traces", "analytics.user_traces"),
    ("analytics", "", "speed_feasibility", "analytics.speed_feasibility"),
    ("analytics", "", "dispersion", "analytics.dispersion"),
    ("analytics", "", "write_report_csv", "analytics.write"),
    ("analytics", "", "write_curve_csv", "analytics.write"),
)

CLI_SPANS = (
    ("cli", "", "main", "cli"),
    ("cli", "", "load_tables", "tables.load_tables"),
    ("cli", "", "load_events", "tables.load_events"),
    ("cli", "", "offline_verdicts", "anticheat.offline_verdicts"),
)

HAVERSINE_CALLERS = ("anticheat", "spatial", "verify", "analytics", "attacker")


def _file_bytes(paths) -> int:
    return sum(p.stat().st_size for p in paths)


# Counters taken from a wrapped call's arguments and result, where the work
# happens: after(counters, args, result).
def _count_accepted(c, args, record):
    c["world.accepted"] += record.accepted


def _count_rejected(c, args, verdict):
    c["anticheat.rejected"] += not verdict.valid


def _count_attest_pass(c, args, passed):
    c["verify.attest_passed"] += bool(passed)


def _count_candidates(c, args, mayor):
    engine, venue_id = args[0], args[1]
    c["rewards.mayor_candidates"] += len(engine.mayor_state(venue_id).days)


def _count_executed(c, args, records):
    c["attacker.executed"] += len(records)
    c["attacker.executed_valid"] += sum(1 for r in records if r.accepted)


def _count_profile_bytes(c, args, paths):
    c["world.export_bytes"] += _file_bytes(paths.values())


def _count_event_bytes(c, args, path):
    c["world.export_bytes"] += _file_bytes([path])


def _count_event_rows(c, args, rows):
    c["tables.event_rows"] += len(rows)


def _count_verdict_rows(c, args, verdicts):
    c["anticheat.offline_verdicts_rows"] += len(verdicts)


AFTER = {
    "world.submit": _count_accepted,
    "anticheat.evaluate_next": _count_rejected,
    "verify.attest": _count_attest_pass,
    "rewards.recompute_mayor": _count_candidates,
    "attacker.execute": _count_executed,
    "world.export_profiles": _count_profile_bytes,
    "world.export_events": _count_event_bytes,
    "tables.load_events": _count_event_rows,
    "anticheat.offline_verdicts": _count_verdict_rows,
}


class Tracer:
    """In-memory span recorder; one per traced op process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.name_of = array("l")
        self.parent = array("l")
        self.start = array("q")
        self.end = array("q")
        self.stack = [-1]
        self.counters: Counter[str] = Counter()

    def wrap(self, fn, name: str):
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        name_id = self.name_ids[name]
        after = AFTER.get(name)
        clock = time.perf_counter_ns
        stack = self.stack
        counters = self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(self.parent)
            self.name_of.append(name_id)
            self.parent.append(stack[-1])
            self.end.append(0)
            stack.append(i)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[i] = clock()
                stack.pop()
            if after is not None:
                after(counters, args, result)
            return result

        return traced

    def export(self) -> dict:
        return {
            "names": self.names,
            "name_of": self.name_of.tolist(),
            "parent": self.parent.tolist(),
            "start_ns": self.start.tolist(),
            "end_ns": self.end.tolist(),
            "counters": dict(self.counters),
        }


def install_spans(package, table) -> Tracer:
    """Wrap every entry of ``table`` in the imported ``checkinsim`` package."""
    tracer = Tracer()
    for module, owner, attr, name in table:
        target = getattr(package, module)
        if owner:
            target = getattr(target, owner)
        setattr(target, attr, tracer.wrap(getattr(target, attr), name))
    return tracer


def install_haversine_counters(package) -> dict:
    """Count ``haversine_m`` calls per calling module; returns the live counts."""
    counts = {caller: 0 for caller in HAVERSINE_CALLERS}
    for caller in HAVERSINE_CALLERS:
        module = getattr(package, caller)
        module.haversine_m = _counted(module.haversine_m, counts, caller)
    return counts


def _counted(fn, counts: dict, key: str):
    def counted(a, b):
        counts[key] += 1
        return fn(a, b)

    return counted


def span_totals(trace: dict) -> dict[str, dict[str, float]]:
    """Per span name: calls, total seconds and self seconds.

    A span's self time is its duration minus the durations of its direct
    children; ops run single-threaded, so children never overlap.
    """
    name_of, parent = trace["name_of"], trace["parent"]
    durations = [e - s for s, e in zip(trace["start_ns"], trace["end_ns"])]
    child_ns = [0] * len(durations)
    for i, p in enumerate(parent):
        if p >= 0:
            child_ns[p] += durations[i]
    totals = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in trace["names"]}
    for i, d in enumerate(durations):
        t = totals[trace["names"][name_of[i]]]
        t["calls"] += 1
        t["total_s"] += d / 1e9
        t["self_s"] += (d - child_ns[i]) / 1e9
    return totals
