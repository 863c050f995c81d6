"""Command line front end.

Subcommands: generate, run, attack-plan, attack-exec, detect, verify-replay,
export. Exit codes: 0 success, 1 configuration/usage error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import sys
from operator import itemgetter
from pathlib import Path

from . import analytics
from .anticheat import RowOutOfOrder, RuleConfig, offline_verdicts
from .attacker import (START_DELAY_S, build_schedule, execute, load_schedule, plan_step,
                       save_schedule)
from .geo import GeoPoint, OutOfProjectionRange, validate_point
from .harness import (InvalidConfig, Tour, VacancySweep, _at_most, build_world, gc_paused,
                      load_run_file, load_scenario, plan, run_scenario, seeded, venue_index,
                      write_exports)
from .tables import (T_END, CheckInLog, MissingTables, UnknownUser, UnknownVenue, event_line,
                     load_events, load_tables)
from .world import PRESENCE_UNVERIFIED, World, logged_outcome


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; usage errors are 1
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _point(text: str) -> GeoPoint:
    try:
        lat, lon = (float(x) for x in text.split(","))
        return validate_point(GeoPoint(lat, lon))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected LAT,LON, got {text!r}: {exc}") from exc


def build_parser() -> _Parser:
    parser = _Parser(prog="checkinsim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a population and export it")
    p.add_argument("--config", required=True,
                   help="scenario JSON (a bare population document is refused)")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--snapshot", action="store_true", help="also write world.snap")

    p = sub.add_parser("run", help="run a full scenario (attacks, exports, detection)")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)

    p = sub.add_parser("attack-plan", help="plan a check-in schedule")
    p.add_argument("--snapshot", required=True, help="world snapshot to plan against")
    p.add_argument("--out", required=True, help="schedule JSONL to write")
    p.add_argument("--mode", choices=("tour", "targets", "step"), default="tour")
    p.add_argument("--start", type=_point, help="tour start as LAT,LON")
    p.add_argument("--steps", type=int, default=Tour.steps)
    p.add_argument("--step-deg", type=float, default=Tour.step_deg)
    p.add_argument("--start-time", type=int, default=None)
    p.add_argument("--require-special", action="store_true")
    p.add_argument("--vacant", action="store_true")
    p.add_argument("--name-filter", default=None)
    p.add_argument("--limit", type=int, default=VacancySweep.limit)
    p.add_argument("--at", type=_point, help="current position for step mode")
    p.add_argument("--bearing", type=float, default=0.0)
    p.add_argument("--distance-m", type=float, default=457.2)

    p = sub.add_parser("attack-exec", help="execute a schedule against a snapshot")
    p.add_argument("--snapshot", required=True)
    p.add_argument("--schedule", required=True)
    p.add_argument("--true-location", type=_point, required=True)
    p.add_argument("--out", required=True, help="directory for updated exports")

    p = sub.add_parser("detect", help="run the offline detectors over exports, with the "
                       "detection thresholds of the run.json beside them if there is one")
    p.add_argument("--in", dest="in_dir", required=True)
    p.add_argument("--out", required=True, help="report CSV path")

    p = sub.add_parser("verify-replay", help="recheck a log against the rules offline, those "
                       "of the run.json beside it if there is one")
    p.add_argument("--in", dest="in_dir", required=True)

    p = sub.add_parser("export", help="write public exports from a snapshot")
    p.add_argument("--snapshot", required=True)
    p.add_argument("--out", required=True)
    return parser


def _cmd_generate(args) -> int:
    world, _ = build_world(seeded(load_scenario(args.config), args.seed))
    out = Path(args.out)
    with write_exports(world, out):
        if args.snapshot:
            world.save_state(out / "world.snap")
    print(f"generated {len(world.users)} users, {len(world.venues)} venues, "
          f"{len(world.events)} check-ins -> {out}")
    return 0


def _cmd_run(args) -> int:
    scenario = load_scenario(args.config)
    try:  # a start delay is checked against the clock of the world built
        result = run_scenario(scenario, args.out, seed=args.seed)
    except InvalidConfig as exc:
        raise InvalidConfig(f"{args.config}: {exc}") from None
    detector = result.metrics["detector"]
    print(f"scenario complete: {result.metrics['valid_checkins']} valid / "
          f"{result.metrics['total_checkins']} check-ins, "
          f"{result.metrics['mayors_count']} mayors, flagged {detector['flagged']}")
    return 0


def _cmd_attack_plan(args) -> int:
    if args.mode == "tour":
        if args.start is None:
            raise InvalidConfig("tour mode needs --start LAT,LON")
        attack = Tour(start=args.start, steps=args.steps, step_deg=args.step_deg)
    elif args.mode == "targets":
        attack = VacancySweep(require_mayor_special=args.require_special, limit=args.limit,
                              require_vacant_mayor=args.vacant, name_filter=args.name_filter)
    elif args.at is None:
        raise InvalidConfig("step mode needs --at LAT,LON")
    world = World.load_state(args.snapshot)
    if args.mode == "tour":
        _at_most(args.steps, len(world.venues), "the snapshot's venues", "steps")
    if args.mode == "step":
        try:
            venue_ids = [plan_step(args.at, args.bearing, args.distance_m, venue_index(world))]
        except (ValueError, OutOfProjectionRange) as exc:  # offset_point refuses the flag
            flag = "--distance-m" if math.isfinite(args.bearing) else "--bearing"
            raise InvalidConfig(str(exc), flag) from None
    else:
        venue_ids = plan(attack, world, venue_index(world))
        if not venue_ids:
            print("no venues match the criteria", file=sys.stderr)
            return 2
    venues = [world.venue(vid) for vid in venue_ids]
    start_time = args.start_time if args.start_time is not None else world.clock.now + START_DELAY_S
    schedule = build_schedule([(v.venue_id, v.location) for v in venues], start_time)
    if start_time < world.clock.now or schedule.entries[-1].fire_time >= T_END:
        raise InvalidConfig(f"must be at least the snapshot's clock ({world.clock.now}) and put "
                            f"every check-in below 2**63, got {start_time}", "--start-time")
    if args.mode != "targets":
        for v in venues:
            print(f"{v.venue_id}\t{v.location.lat}\t{v.location.lon}\t{v.name}")
    save_schedule(schedule, args.out)
    print(f"schedule with {len(schedule.entries)} check-ins -> {args.out}")
    return 0


def _cmd_attack_exec(args) -> int:
    world = World.load_state(args.snapshot)
    schedule = load_schedule(args.schedule, range(1, len(world.venues) + 1), world.clock.now)
    attacker_id = world.register_user(args.true_location, is_cheater=True)
    records = execute(world, attacker_id, schedule, args.true_location)
    with write_exports(world, args.out):
        world.save_state(Path(args.out) / "world.snap")
    attacker = world.user(attacker_id)
    print(f"attacker {attacker_id}: {sum(r.accepted for r in records)}/{len(records)} check-ins "
          f"valid, {attacker.points} points, {attacker.total_mayorships} mayorships")
    return 0


@contextlib.contextmanager
def _naming_event_lines(path: Path, log: CheckInLog):
    """Name the events.jsonl line of a check-in whose venue VenueInfo.csv or
    whose user UserInfo.csv lacks (the first row holding that id), or that is
    earlier than its user's previous row (the row at the error's index)."""
    try:
        yield
    except (UnknownVenue, UnknownUser, RowOutOfOrder) as exc:
        index = (exc.index if isinstance(exc, RowOutOfOrder)
                 else getattr(log, exc.column).index(exc.id))
        raise ValueError(f"{path.name}:{event_line(path, index)}: {exc}") from exc


def _cmd_detect(args) -> int:
    scenario = load_run_file(args.in_dir)
    thresholds = scenario.detection if scenario else analytics.DetectionThresholds()
    tables = load_tables(args.in_dir)
    events_path = Path(args.in_dir) / "events.jsonl"
    log = load_events(events_path)
    with _naming_event_lines(events_path, log):
        report = analytics.build_report(tables, zip(log.t, log.user_id, log.venue_id), thresholds)
    analytics.write_report_csv(report, args.out)
    flagged = sum(1 for r in report if r.suspicious)
    print(f"report for {len(report)} users, {flagged} flagged -> {args.out}")
    return 0


# Rows per offline_verdicts call: no slice's verdicts outlive it.
_REPLAY_SLICE = 256
_verdict_flags = itemgetter(1)


def _outcome_text(valid: bool, flags) -> str:
    return f"valid={'true' if valid else 'false'} with flags {list(flags)}"


def _mismatch(e, verdict) -> str:
    where = f"mismatch: user {e.user_id} t={e.t} venue {e.venue_id}: logged"
    logged, names = set(e.flags) - {PRESENCE_UNVERIFIED}, verdict.flag_names()
    if logged == set(names):  # the rules agree; valid, the order or PresenceUnverified does not
        return (f"{where} {_outcome_text(e.valid, e.flags)}, a world logs "
                f"{_outcome_text(*logged_outcome(verdict.flags, e.valid))}")
    return f"{where} {sorted(logged)} recomputed {names}"


def _cmd_verify_replay(args) -> int:
    scenario = load_run_file(args.in_dir)
    config = scenario.rules if scenario else RuleConfig()
    tables = load_tables(args.in_dir)
    events_path = Path(args.in_dir) / "events.jsonl"
    log = load_events(events_path)
    points = tables.venue_points
    states: dict = {}
    agree: dict[tuple, bool] = {}  # (outcome, verdict flags) -> a world logs that outcome
    mismatches: list[str] = []  # printed once the whole log has replayed
    n_events = len(log)
    with _naming_event_lines(events_path, log):
        for start in range(0, n_events, _REPLAY_SLICE):
            rows = range(start, min(start + _REPLAY_SLICE, n_events))
            verdicts = offline_verdicts(log, rows, points, tables.users, config, states)
            keys = set(zip(log.outcome[start:rows.stop], map(_verdict_flags, verdicts)))
            for outcome, flags in keys.difference(agree):
                logged = log.outcomes[outcome]
                agree[outcome, flags] = logged == logged_outcome(flags, logged[0])
            if all(map(agree.__getitem__, keys)):
                continue
            for i, verdict in zip(rows, verdicts):
                if not agree[log.outcome[i], verdict.flags]:
                    mismatches.append(_mismatch(log[i], verdict))
    for line in mismatches:
        print(line, file=sys.stderr)
    print(f"verify-replay: {n_events} events, {len(mismatches)} mismatches")
    return 0 if not mismatches else 2


def _cmd_export(args) -> int:
    with write_exports(World.load_state(args.snapshot), args.out):
        pass
    print(f"exports written to {Path(args.out)}")
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "run": _cmd_run,
    "attack-plan": _cmd_attack_plan,
    "attack-exec": _cmd_attack_exec,
    "detect": _cmd_detect,
    "verify-replay": _cmd_verify_replay,
    "export": _cmd_export,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with gc_paused():
            return _COMMANDS[args.command](args)
    except (InvalidConfig, MissingTables) as exc:
        print(f"checkinsim: config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"checkinsim: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
