"""Independent brute-force reference implementations used only by tests.

These deliberately re-derive results from first principles (different
formulas, full rescans) so they can serve as oracles for the production
paths without sharing code with them. The exceptions are
``nearest_linear``, ``scan_within_radius`` and ``scan_dispersion``, which
measure with ``haversine_m`` so their answers can be compared with the fast
paths' exactly, as do ``measured_rules``, ``measured_infeasible`` and
``measured_attest``, which decide every distance threshold by measuring it
(the references for the decisions that ``distance_bounds_m`` settles),
``encode_event_line``, which is the JSON encoder events.jsonl must stay
byte-equal to, ``json_load_events``, the one-``json.loads``-per-line
reader whose rows and messages the block reader keeps, ``kept_records``,
the log of record objects that the world's columnar log replaced, and
``tuple_submissions`` and ``tuple_build_report``, the planned-check-in tuples
and per-user trace tuples that columns replaced, and ``submit_one_by_one``,
which submits the planned tuples one checked ``submit_checkin`` call at a time. ``by_user_mismatch_lines``
is ``verify-replay`` as it was before its one pass over the log: rows
grouped by user, each user's trace replayed alone (here through
``brute_verdicts``). ``scan_visits`` recounts who visited where from a
log's columns alone. ``VenueCountingEngine`` is a test driver, not a
reference: a ``RewardsEngine`` that keeps each user's venues itself.
"""

from __future__ import annotations

import contextlib
import json
import math
from collections import defaultdict, deque
from pathlib import Path
from typing import Optional, Sequence

from checkinsim.attacker import MIN_INTERVAL_S, SAME_VENUE_GAP_S
from checkinsim.geo import GeoPoint, MILE_M, haversine_m
from checkinsim.rewards import DAY_S, MAYOR_WINDOW_DAYS, BadgeKind, RewardsEngine
from checkinsim.analytics import (SuspicionRecord, account_age_days, dispersion,
                                  flag_badge_anomaly, flag_daily_rate, speed_feasibility)
from checkinsim.anticheat import Flag
from checkinsim.tables import (CheckInLog, EventRow, MissingTables, UnknownUser, UnknownVenue,
                              load_events, load_tables)
from checkinsim import harness
from checkinsim.world import World

EARTH_R = 6_371_000.0


def law_of_cosines_m(a, b) -> float:
    """Great-circle distance via the spherical law of cosines."""
    lat1, lon1 = math.radians(a[0]), math.radians(a[1])
    lat2, lon2 = math.radians(b[0]), math.radians(b[1])
    c = math.sin(lat1) * math.sin(lat2) + math.cos(lat1) * math.cos(lat2) * math.cos(lon2 - lon1)
    return EARTH_R * math.acos(max(-1.0, min(1.0, c)))


def bbox_fits(points, side_m: float) -> bool:
    """Independent 180m-square check: equirectangular about the first point."""
    scale = math.pi * EARTH_R / 180.0
    cos0 = math.cos(math.radians(points[0][0]))
    xs = [(p[1] - points[0][1]) * cos0 * scale for p in points]
    ys = [(p[0] - points[0][0]) * scale for p in points]
    return (max(xs) - min(xs)) <= side_m and (max(ys) - min(ys)) <= side_m


def brute_verdicts(trace, config, prior_valid=None):
    """Recompute (valid, flag-name set) for every submission by full rescan.

    ``trace`` rows are (t, venue_id, venue_location, reported_gps), time
    ordered. Validity chains: only previously valid rows feed later rules.
    With ``prior_valid``, row i feeds later rules exactly when
    ``prior_valid[i]`` is true, whatever its own verdict.
    """
    out = []
    valid_so_far = []  # (t, venue_id, venue_location) of accepted rows
    for i, (t, venue_id, venue_loc, reported) in enumerate(trace):
        flags = set()

        if any(vj == venue_id and t - tj < config.frequent_window_s
               for tj, vj, _ in valid_so_far):
            flags.add("FrequentCheckin")

        if valid_so_far:
            tj, _, locj = valid_so_far[-1]
            dist = law_of_cosines_m(locj, venue_loc)
            dt = t - tj
            if dt <= 0:
                if dist > 0.5:  # law-of-cosines noise floor near zero
                    flags.add("SuperHumanSpeed")
            elif dist / dt > config.max_speed_m_per_s * (1 + 1e-9):
                flags.add("SuperHumanSpeed")

        window = [(tj, locj) for tj, _, locj in valid_so_far
                  if t - tj < config.rapidfire_window_s]
        if len(window) >= config.rapidfire_count - 1:
            pts = [locj for _, locj in window] + [venue_loc]
            if bbox_fits(pts, config.rapidfire_side_m):
                flags.add("RapidFire")

        if law_of_cosines_m(reported, venue_loc) > config.gps_radius_m:
            flags.add("GpsMismatch")

        valid = not flags
        out.append((valid, flags))
        if valid if prior_valid is None else prior_valid[i]:
            valid_so_far.append((t, venue_id, venue_loc))
    return out


def nearest_linear(
    entries: Sequence[tuple[int, GeoPoint]],
    p: GeoPoint,
    exclude: frozenset[int] | set[int] = frozenset(),
) -> Optional[tuple[int, float]]:
    """Brute-force nearest scan; the reference the grid index must agree with."""
    best: Optional[tuple[float, int]] = None
    for venue_id, loc in entries:
        if venue_id in exclude:
            continue
        cand = (haversine_m(p, loc), venue_id)
        if best is None or cand < best:
            best = cand
    if best is None:
        return None
    return best[1], best[0]


def scan_within_radius(
    entries: Sequence[tuple[int, GeoPoint]],
    p: GeoPoint,
    radius_m: float,
) -> list[tuple[int, float]]:
    """Every entry within radius_m of p, by measuring all of them; sorted by (distance, id)."""
    measured = sorted((haversine_m(p, loc), venue_id) for venue_id, loc in entries)
    return [(venue_id, d) for d, venue_id in measured if d <= radius_m]


def validate_schedule(schedule, location_of) -> None:
    """Check a schedule's timing invariants against venue positions."""
    prev = None
    last_fire: dict[int, int] = {}
    for entry in schedule.entries:
        if prev is not None:
            if entry.fire_time <= prev.fire_time:
                raise ValueError("fire times must be strictly increasing")
            d_miles = haversine_m(location_of(prev.venue_id), location_of(entry.venue_id)) / MILE_M
            required = MIN_INTERVAL_S if d_miles <= 1.0 else d_miles * MIN_INTERVAL_S
            if entry.fire_time - prev.fire_time + 1e-6 < required:
                raise ValueError(
                    f"interval {entry.fire_time - prev.fire_time}s under "
                    f"{required:.0f}s required for {d_miles:.2f} miles"
                )
        seen = last_fire.get(entry.venue_id)
        if seen is not None and entry.fire_time - seen < SAME_VENUE_GAP_S:
            raise ValueError(f"venue {entry.venue_id} revisited within the cooldown window")
        last_fire[entry.venue_id] = entry.fire_time
        prev = entry


class ScanningMayor:
    """Mayorship of one venue by full rescan: the reference for ``MayorState``.

    ``days`` maps user id to a deque of (day, latest check-in timestamp that
    day). Every ``recompute`` prunes each user's deque and scans every
    remaining user for the most distinct days; the incumbent keeps the title
    on a tie or when no user has a day in the window, otherwise the lowest
    user id wins.
    """

    def __init__(self) -> None:
        self.mayor_id: Optional[int] = None
        self.days: dict[int, deque] = {}

    def note_checkin(self, user_id: int, t: int) -> None:
        day = t // DAY_S
        dq = self.days.setdefault(user_id, deque())
        if dq and dq[-1][0] == day:
            dq[-1] = (day, t)
        else:
            dq.append((day, t))

    def recompute(self, t: int) -> Optional[int]:
        window_start = t - MAYOR_WINDOW_DAYS * DAY_S
        for user_id in list(self.days):
            dq = self.days[user_id]
            while dq and dq[0][1] <= window_start:
                dq.popleft()
            if not dq:
                del self.days[user_id]
        best_user: Optional[int] = None
        best_count = 0
        for user_id, dq in self.days.items():
            count = len(dq)
            if count > best_count or (count == best_count and (best_user is None or user_id < best_user)):
                best_user = user_id
                best_count = count
        if best_count == 0:
            return self.mayor_id
        incumbent = self.days.get(self.mayor_id)
        if incumbent is not None and len(incumbent) == best_count:
            return self.mayor_id
        self.mayor_id = best_user
        return best_user


def scan_badges(catalog, stream) -> list[frozenset[str]]:
    """Badges each check-in's user holds after it, by full rescan: the
    reference for ``RewardsEngine``'s badges.

    ``stream`` rows are (user_id, venue_id, t) valid check-ins in time order.
    After every check-in the user's whole history is scanned again: a
    distinct-venues badge holds once the history spans ``threshold`` venues,
    a window badge once ``threshold`` of its check-ins lie in
    (t - window_days, t]. A badge once held is held for good.
    """
    history: dict[int, list[tuple[int, int]]] = {}
    held: dict[int, set[str]] = {}
    out = []
    for user_id, venue_id, t in stream:
        past = history.setdefault(user_id, [])
        past.append((venue_id, t))
        badges = held.setdefault(user_id, set())
        for spec in catalog:
            if spec.kind == BadgeKind.DISTINCT_VENUES:
                count = len({v for v, _ in past})
            else:
                start = t - spec.window_days * DAY_S
                count = sum(1 for _, tj in past if start < tj <= t)
            if count >= spec.threshold:
                badges.add(spec.badge_id)
        out.append(frozenset(badges))
    return out


class VenueCountingEngine(RewardsEngine):
    """A ``RewardsEngine`` driven with (user, venue_id, t) alone: it keeps the
    set of venues each user has a valid check-in at, as a world's rule state
    does, and passes its size to ``on_valid_checkin``."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.visited: dict[int, set[int]] = defaultdict(set)

    def on_valid_checkin(self, user, venue_id: int, t: int):
        visited = self.visited[user.user_id]
        visited.add(venue_id)
        return super().on_valid_checkin(user, venue_id, t, len(visited))


def scan_visits(log) -> tuple[dict[int, int], dict[int, set[int]]]:
    """Over the accepted rows of a world's ``CheckInLog``, read from its
    columns and outcome table: each venue's count of distinct users, and
    each user's set of venues. The reference for ``Venue.unique_visitors``
    and for the distinct-venue count the rewards are given."""
    accepted = [valid for valid, _ in log.outcomes]
    visitors: dict[int, set[int]] = defaultdict(set)
    venues: dict[int, set[int]] = defaultdict(set)
    for user_id, venue_id, outcome in zip(log.user_id, log.venue_id, log.outcome):
        if accepted[outcome]:
            visitors[venue_id].add(user_id)
            venues[user_id].add(venue_id)
    return {venue_id: len(users) for venue_id, users in visitors.items()}, dict(venues)


def scan_dispersion(trace, cluster_radius_m: float = 50_000.0) -> int:
    """Leader clustering by full scan: the reference for ``analytics.dispersion``.

    Orders by (time, lat, lon) and compares each point with every leader so
    far, in order, until one lies within the radius.
    """
    ordered = sorted(trace, key=lambda row: (row[0], row[1][0], row[1][1]))
    leaders: list[GeoPoint] = []
    for _, loc in ordered:
        for leader in leaders:
            if haversine_m(leader, loc) <= cluster_radius_m:
                break
        else:
            leaders.append(loc)
    return len(leaders)


def export_flags(record) -> list[str]:
    """A check-in record's events.jsonl flags: its rules' flags, then
    ``PresenceUnverified`` for a rule-valid row that was not accepted."""
    flags = [flag.value for flag in record.verdict.flags]
    if record.verdict.valid and not record.accepted:
        flags.append("PresenceUnverified")
    return flags


def event_row(record) -> EventRow:
    """The events.jsonl row of a check-in record, as ``load_events`` reads it."""
    gps = record.reported_gps
    return EventRow(record.t, record.user_id, record.venue_id, gps.lat, gps.lon,
                    record.accepted, tuple(export_flags(record)))


def log_of_rows(rows) -> CheckInLog:
    """A ``CheckInLog`` of ``rows``, each in ``EventRow`` shape, appended one by one."""
    log = CheckInLog()
    for t, user_id, venue_id, lat, lon, valid, flags in rows:
        log.append(t, user_id, venue_id, lat, lon, log.outcome_of(valid, tuple(flags)))
    return log


_ENCODER = json.JSONEncoder(separators=(",", ":"))


def encode_event_line(record) -> str:
    """A record's events.jsonl line, encoded by the JSON encoder."""
    return _ENCODER.encode(event_row(record)._asdict()) + "\n"


def json_load_events(path: str | Path) -> list[EventRow]:
    """Read an events.jsonl log with one ``json.loads`` per line: the reference
    for ``tables.load_events``.

    A line that is not a JSON object with every ``EventRow`` key and a list
    of flags raises ``ValueError`` naming the file, the line and the key or
    reason.
    """
    path = Path(path)
    if not path.is_file():
        raise MissingTables(f"event log not found: {path}")
    events: list[EventRow] = []
    lineno, obj = 0, None
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                if not line.strip():
                    continue
                obj = json.loads(line)
                events.append(EventRow(obj["t"], obj["user_id"], obj["venue_id"],
                                       obj["reported_lat"], obj["reported_lon"],
                                       obj["valid"], tuple(obj["flags"])))
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path.name}: not UTF-8 text ({exc.reason})") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path.name}:{lineno}: not JSON ({exc.msg} at column {exc.colno})") \
            from exc
    except KeyError as exc:
        raise ValueError(f"{path.name}:{lineno}: missing key {exc.args[0]!r}") from exc
    except TypeError as exc:
        reason = "flags must be a list" if isinstance(obj, dict) else "not a JSON object"
        raise ValueError(f"{path.name}:{lineno}: {reason}") from exc
    return events


def measured_rules(last, venue_location, reported_gps, t, config) -> dict:
    """The speed and GPS rules of ``UserRuleState.evaluate_next`` after the
    valid check-in ``last`` = (t, location), measuring every distance with
    ``haversine_m``: {flag name: detail} of the rules that fire."""
    fired = {}
    t_prev, loc_prev = last
    if loc_prev is not venue_location:
        dist = haversine_m(loc_prev, venue_location)
        dt = t - t_prev
        if dt <= 0:
            if dist > 0.0:
                fired["SuperHumanSpeed"] = float("inf")
        elif dist / dt > config.max_speed_m_per_s * (1.0 + 1e-9):
            fired["SuperHumanSpeed"] = dist / dt
    if reported_gps is not venue_location:
        offset = haversine_m(reported_gps, venue_location)
        if offset > config.gps_radius_m:
            fired["GpsMismatch"] = offset
    return fired


def measured_infeasible(trace, v_travel_m_per_s: float) -> int:
    """``analytics.speed_feasibility`` measuring every consecutive pair."""
    infeasible = 0
    for (t0, a), (t1, b) in zip(trace, trace[1:]):
        dist = haversine_m(a, b)
        dt = t1 - t0
        if dist > 0.0 if dt <= 0 else dist / dt > v_travel_m_per_s:
            infeasible += 1
    return infeasible


def measured_attest(router, device) -> bool:
    """``verify.attest_checkin`` for a registered router, measuring the distance."""
    return haversine_m(router.location, device) <= router.range_m


@contextlib.contextmanager
def kept_records():
    """Keep every ``CheckInRecord`` that ``World.submit_checkin`` returns while
    the block runs, in submission order: the slow reference for a world's
    log, one object per row as the log was before it became columns. Planned
    rows go in through ``submit_one_by_one`` meanwhile, so they are kept too."""
    kept = []
    submit, submit_planned = World.submit_checkin, harness._submit_planned

    def keeping(self, *args, **kwargs):
        record = submit(self, *args, **kwargs)
        kept.append(record)
        return record

    World.submit_checkin, harness._submit_planned = keeping, submit_one_by_one
    try:
        yield kept
    finally:
        World.submit_checkin, harness._submit_planned = submit, submit_planned


def tuple_submissions(world: World, plan) -> list[tuple]:
    """The (user_id, venue_id, reported, t, true) arguments ``submit_checkin``
    gets for a planned world, as the tuple planner made them: one tuple per
    planned row, sorted by (t, user_id) with Python's stable sort.

    A row whose planned lat is NaN reports its venue's own ``location``; a
    cheater's true point is the home, anyone else's is None (the reported one).
    """
    rows = []
    for t, user_id, venue_id, lat, lon in zip(*plan):
        user = world.users[user_id - 1]
        reported = world.venues[venue_id - 1].location if math.isnan(lat) else GeoPoint(lat, lon)
        rows.append((t, user_id, venue_id, reported,
                     user.home if user.is_cheater_ground_truth else None))
    rows.sort(key=lambda row: (row[0], row[1]))
    return [(user_id, venue_id, reported, t, true) for t, user_id, venue_id, reported, true in rows]


def submit_one_by_one(world: World, plan) -> None:
    """``harness._submit_planned`` as it was: each of ``tuple_submissions``'
    rows through ``World.submit_checkin``, which checks it on its own."""
    for user_id, venue_id, reported, t, true in tuple_submissions(world, plan):
        world.submit_checkin(user_id, venue_id, reported, t, true)


def tuple_build_report(tables, events, thresholds) -> list[SuspicionRecord]:
    """``analytics.build_report`` with a (t, venue location) tuple per row in
    each user's trace, kept for the whole report and sorted by t."""
    points = tables.venue_points
    traces = defaultdict(list)
    for row in events:
        if row[2] not in points:
            raise UnknownVenue.in_row(row)
        if row[1] not in tables.users:
            raise UnknownUser.in_row(row)
        traces[row[1]].append((row[0], points[row[2]]))
    for trace in traces.values():
        trace.sort(key=lambda pair: pair[0])
    n_users = max(tables.users) if tables.users else 0
    report = []
    for user_id in sorted(tables.users):
        u = tables.users[user_id]
        age = account_age_days(user_id, n_users, thresholds)
        trace = traces.get(user_id, [])
        badge_flag = flag_badge_anomaly(u.total_checkins, u.total_badges, thresholds)
        infeasible = speed_feasibility(trace, thresholds.v_travel_m_per_s)
        clusters = dispersion(trace, thresholds.cluster_radius_m) if trace else 0
        reasons = tuple(name for name, fired in (
            ("badge_rate", badge_flag),
            ("daily_rate", flag_daily_rate(u.total_checkins, age, thresholds)),
            ("speed", infeasible > 0),
            ("dispersion", clusters >= thresholds.dispersion_min_clusters)) if fired)
        report.append(SuspicionRecord(
            user_id, u.recent_checkins / u.total_checkins if u.total_checkins else 0.0,
            badge_flag, u.total_checkins / age, infeasible, clusters, bool(reasons), reasons))
    report.sort(key=lambda r: (-len(r.reasons), r.user_id))
    return report


def by_user_mismatch_lines(directory, config) -> list[str]:
    """The mismatch lines ``verify-replay`` prints for a run directory whose
    log is in each user's time order, in log order: each user's rows replayed
    alone by ``brute_verdicts``, validity pinned to the logged ``valid``.

    A row mismatches when its rule flags (its flags but ``PresenceUnverified``)
    differ from the recomputed ones, or else when its ``valid`` is not
    exactly "no flags logged".
    """
    points = load_tables(directory).venue_points
    by_user: dict[int, list[tuple[int, EventRow]]] = defaultdict(list)
    for i, e in enumerate(load_events(Path(directory) / "events.jsonl")):
        by_user[e.user_id].append((i, e))
    lines = []
    for rows in by_user.values():
        trace = [(e.t, e.venue_id, points[e.venue_id], GeoPoint(e.reported_lat, e.reported_lon))
                 for _, e in rows]
        oracle = brute_verdicts(trace, config, prior_valid=[e.valid for _, e in rows])
        for (i, e), (_, flags) in zip(rows, oracle):
            logged = set(e.flags) - {"PresenceUnverified"}
            where = f"mismatch: user {e.user_id} t={e.t} venue {e.venue_id}: logged"
            if logged != flags:
                recomputed = [f.value for f in Flag if f.value in flags]  # firing order
                lines.append((i, f"{where} {sorted(logged)} recomputed {recomputed}"))
            elif e.valid != (not e.flags):
                lines.append((i, f"{where} valid={json.dumps(e.valid)} with flags {list(e.flags)}"))
    return [line for _, line in sorted(lines)]
