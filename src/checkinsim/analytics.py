"""Offline cheater detection over exported profiles and event logs.

Four detectors: badge-to-checkin anomaly, sustained daily check-in rate,
physically infeasible travel between consecutive check-ins, and geographic
dispersion of the check-in history. Everything here is recomputable from the
export files alone; ground truth never feeds a detector.
"""

from __future__ import annotations

import math
from array import array
from operator import itemgetter
from pathlib import Path
from typing import Iterable, NamedTuple, Optional, Sequence

from .config import Section, ranged
from .geo import EARTH_RADIUS_M, GeoPoint, distance_bounds_m, haversine_m
from .tables import PublicTables, UnknownUser, UnknownVenue, write_csv


class CurvePoint(NamedTuple):
    total_checkins: int
    mean_value: float
    n_users: int


class DetectionThresholds(Section):
    """Detector tuning; defaults separate the bundled honest/cheater fixtures."""

    v_travel_m_per_s: float = ranged(250.0, gt=0)
    cluster_radius_m: float = ranged(50_000.0, gt=0)
    dispersion_min_clusters: int = ranged(10, ge=1)  # 0 would flag every user
    badge_min_checkins: int = ranged(1000, ge=0)
    badge_max_badges: int = ranged(10, ge=0)
    daily_rate_max: float = ranged(16.0, ge=0)
    curve_max_total: int = ranged(2000, ge=0)
    registration_span_days: float = ranged(365.0, gt=0)
    min_account_age_days: float = ranged(30.0, ge=1)  # flag_daily_rate needs an age >= 1


class SuspicionRecord(NamedTuple):
    user_id: int
    recent_ratio: float
    badge_flag: bool
    daily_rate: float
    infeasible_pairs: int
    clusters: int
    suspicious: bool
    reasons: tuple[str, ...]


def compute_curve(tables: PublicTables, column: str,
                  max_total: int = DetectionThresholds.curve_max_total) -> list[CurvePoint]:
    """Mean of a ``UserRow`` column per total-check-in count (totals <= cap).

    ``column`` is ``"recent_checkins"`` for the recent-list curve or
    ``"total_badges"`` for the badge curve.
    """
    sums: dict[int, int] = {}
    counts: dict[int, int] = {}
    for u in tables.users.values():
        if u.total_checkins > max_total:
            continue
        sums[u.total_checkins] = sums.get(u.total_checkins, 0) + getattr(u, column)
        counts[u.total_checkins] = counts.get(u.total_checkins, 0) + 1
    return [
        CurvePoint(total, sums[total] / counts[total], counts[total])
        for total in sorted(sums)
    ]


def flag_badge_anomaly(
    total_checkins: int, total_badges: int, thresholds: DetectionThresholds = DetectionThresholds()
) -> bool:
    """Heavy check-in volume with almost no badges: rewards were withheld."""
    return total_checkins > thresholds.badge_min_checkins and total_badges < thresholds.badge_max_badges


def flag_daily_rate(
    total_checkins: int, account_age_days: float, thresholds: DetectionThresholds = DetectionThresholds()
) -> bool:
    """Average check-ins per day over the account lifetime above the bound."""
    if account_age_days < 1:
        raise ValueError("account age must be at least one day")
    return total_checkins / account_age_days > thresholds.daily_rate_max


def account_age_days(
    user_id: int, n_users: int, thresholds: DetectionThresholds = DetectionThresholds()
) -> float:
    """Estimated account age from the sequential user id.

    Ids are assumed to be handed out at a uniform rate over the registration
    span, so low ids are old accounts; a floor keeps brand-new accounts from
    producing divide-by-nothing rates.
    """
    if n_users < 1:
        return thresholds.min_account_age_days
    age = thresholds.registration_span_days * (n_users - user_id + 1) / n_users
    return max(thresholds.min_account_age_days, age)


def speed_feasibility(trace: Sequence[tuple[int, GeoPoint]],
                      v_travel_m_per_s: float = DetectionThresholds.v_travel_m_per_s) -> int:
    """Count consecutive check-in pairs no physical journey could connect.

    A pair at one shared point object (two check-ins at the same venue's
    ``venue_points`` entry) is 0 m apart, so feasible, and is settled
    without bounding or measuring it. Any other pair whose pace is at least
    ``v_travel_m_per_s`` by its low distance bound, or at most that by its
    high one (``distance_bounds_m``), is settled unmeasured: division
    rounds monotonically, so the pace by ``haversine_m`` lies on the same
    side.
    """
    infeasible = 0
    prev_t: Optional[int] = None
    prev_loc: Optional[GeoPoint] = None
    for t, loc in trace:
        if loc is not prev_loc and prev_loc is not None:
            dt = t - prev_t
            if dt <= 0:
                if haversine_m(prev_loc, loc) > 0.0:
                    infeasible += 1
            else:
                low, high = distance_bounds_m(prev_loc, loc)
                if low / dt > v_travel_m_per_s:
                    infeasible += 1
                elif not high / dt <= v_travel_m_per_s:
                    if haversine_m(prev_loc, loc) / dt > v_travel_m_per_s:
                        infeasible += 1
        prev_t, prev_loc = t, loc
    return infeasible


class CellTable(dict):
    """Each point's ``_cell_keys`` at one cluster radius, computed when a
    ``dispersion`` call first asks for them: ``build_report`` keeps one table
    for the whole report, so a venue point's cells are computed once, however
    many traces visit it."""

    def __init__(self, cluster_radius_m: float) -> None:
        super().__init__()
        chord = 2.0 * math.sin(min(cluster_radius_m / (2.0 * EARTH_RADIUS_M), math.pi / 2))
        self.cluster_radius_m = cluster_radius_m
        self.halves = 1.0 / (max(chord, 1e-9) * 1.001)  # half-cells per unit length

    def __missing__(self, p: GeoPoint) -> tuple[int, int]:
        keys = self[p] = _cell_keys(p, self.halves)
        return keys


def dispersion(trace: Sequence[tuple[int, GeoPoint]],
               cluster_radius_m: float = DetectionThresholds.cluster_radius_m,
               cells: Optional[CellTable] = None) -> int:
    """Number of geographic clusters in a check-in history.

    Greedy leader clustering over a canonical ordering (time, then position),
    so duplicates and reordering of same-time points cannot change the count:
    a point joins the clusters if some leader lies within ``cluster_radius_m``
    (``haversine_m``), and otherwise becomes a leader itself.

    The count depends only on whether *some* leader is that close, not on
    which, so any candidate set holding every leader within the radius gives
    the same answer. Points are placed by their unit vector
    (cos lat cos lon, cos lat sin lon, sin lat) in cube cells 2.002 chords of
    the radius wide (at least 2.002e-9; a wider cell only adds candidates).
    A chord grows with the great-circle distance, so a point within the
    radius of a leader differs from it by less than half a cell on each axis
    and lies in the 2x2x2 block of cells on the leader's side of its own
    cell. Each leader is listed in the eight cells of its block, so a point
    reads one list, with no pole or antimeridian case. ``haversine_m`` stays
    the accept test; the cells only choose which leaders it sees, and
    ``distance_bounds_m`` settles, unmeasured, a pair that the bounds place
    on one side of the radius.

    Three shortcuts skip the lookup: the first point is a leader; a location
    already seen in the trace is skipped, since it is a leader or lies within
    the radius of one and leaders are never removed (this needs a radius
    > 0); and the leader the previous point matched is tried first.
    Non-finite coordinates raise ``ValueError``.

    A point's cell keys are computed once per ``cells`` table: pass one
    ``CellTable(cluster_radius_m)`` to many calls and a point that many
    traces share is placed once for all of them. Without one, the call
    keeps its own. A table built for another radius raises ``ValueError``.
    """
    if not trace:
        raise ValueError("dispersion needs a non-empty trace")
    if not cluster_radius_m > 0:
        raise ValueError(f"cluster_radius_m must be > 0, got {cluster_radius_m!r}")
    if cells is None:
        cells = CellTable(cluster_radius_m)
    elif cells.cluster_radius_m != cluster_radius_m:
        raise ValueError(f"a cell table for cluster_radius_m {cells.cluster_radius_m!r} "
                         f"cannot serve {cluster_radius_m!r}")
    ordered = sorted(trace)  # (t, (lat, lon)) pairs: by time, then position
    leaders: dict[int, list[GeoPoint]] = {}
    last = ordered[0][1]
    _list_leader(leaders, last, cells[last][1])
    seen = {last}
    clusters = 1
    for _, loc in ordered:
        if loc in seen:
            continue
        seen.add(loc)
        if _within(last, loc, cluster_radius_m):
            continue
        home, corner = cells[loc]
        for leader in leaders.get(home, ()):
            if _within(leader, loc, cluster_radius_m):
                last = leader
                break
        else:
            _list_leader(leaders, loc, corner)
            last = loc
            clusters += 1
    return clusters


def _within(a: GeoPoint, b: GeoPoint, radius_m: float) -> bool:
    """``haversine_m(a, b) <= radius_m``, measured only when the bounds cannot tell."""
    low, high = distance_bounds_m(a, b)
    return high <= radius_m or (not low > radius_m and haversine_m(a, b) <= radius_m)


# A cell key packs the three cell indices as digits of base 2**31; cells are
# at least 2.002e-9 wide, so each index stays below 2**30 in magnitude.
_CELL_BASE = 1 << 31
_CELL_BLOCK = tuple((dx * _CELL_BASE + dy) * _CELL_BASE + dz
                    for dx in (0, 1) for dy in (0, 1) for dz in (0, 1))


def _cell_keys(p: GeoPoint, halves: float) -> tuple[int, int]:
    """Key of ``p``'s own cell and of the low corner of its 2x2x2 block.

    Along each axis the block starts one cell lower when ``p`` lies in the
    low half of its cell (an even half-cell index).
    """
    lat = math.radians(p[0])
    lon = math.radians(p[1])
    if not (math.isfinite(lat) and math.isfinite(lon)):
        raise ValueError(f"dispersion needs finite coordinates, got {tuple(p)}")
    cos_lat = math.cos(lat)
    hx = math.floor(cos_lat * math.cos(lon) * halves)
    hy = math.floor(cos_lat * math.sin(lon) * halves)
    hz = math.floor(math.sin(lat) * halves)
    home = ((hx >> 1) * _CELL_BASE + (hy >> 1)) * _CELL_BASE + (hz >> 1)
    low = ((1 - (hx & 1)) * _CELL_BASE + 1 - (hy & 1)) * _CELL_BASE + 1 - (hz & 1)
    return home, home - low


def _list_leader(cells: dict[int, list[GeoPoint]], leader: GeoPoint, corner: int) -> None:
    for offset in _CELL_BLOCK:
        cells.setdefault(corner + offset, []).append(leader)


_BY_TIME = itemgetter(0)  # traces sort by t alone, so same-t rows keep their order


def user_traces(tables: PublicTables,
                events: Iterable[Sequence]) -> dict[int, tuple[array, list[GeoPoint]]]:
    """Per user, the ``t`` and venue location of each of their rows of
    ``build_report``, in row order: an int64 ``array`` (a ``t`` outside it
    raises, as ``load_events`` refuses it) and a list of the shared
    ``venue_points``. A row whose venue VenueInfo.csv lacks raises
    ``UnknownVenue``, and a user's first row, when UserInfo.csv lacks the
    user, ``UnknownUser``: each names its id, and the row is the first one
    holding it."""
    points, users = tables.venue_points, tables.users
    traces: dict[int, tuple] = {}
    for row in events:
        point = points.get(row[2])
        if point is None:
            raise UnknownVenue.in_row(row)
        trace = traces.get(row[1])
        if trace is None:
            if row[1] not in users:
                raise UnknownUser.in_row(row)
            trace = traces[row[1]] = (array("q"), [])
        trace[0].append(row[0])
        trace[1].append(point)
    return traces


def build_report(tables: PublicTables, events: Iterable[Sequence],
                 thresholds: DetectionThresholds = DetectionThresholds()) -> list[SuspicionRecord]:
    """Run every detector for every user; rank by reason count, then id.

    ``events`` are rows that start with ``t``, ``user_id`` and ``venue_id``,
    read once: ``run`` and ``detect`` pass a ``CheckInLog``'s three columns
    zipped. A user's time-ordered (t, venue location) trace is built only
    while that user is scored. Every trace holds the shared ``venue_points``,
    and one ``CellTable`` serves the whole report, so each venue point's
    dispersion cells are computed once per report.
    """
    traces = user_traces(tables, events)
    cells = CellTable(thresholds.cluster_radius_m)
    n_users = max(tables.users) if tables.users else 0
    report: list[SuspicionRecord] = []
    for user_id in sorted(tables.users):
        u = tables.users[user_id]
        ratio = u.recent_checkins / u.total_checkins if u.total_checkins else 0.0

        reasons: list[str] = []
        badge_flag = flag_badge_anomaly(u.total_checkins, u.total_badges, thresholds)
        if badge_flag:
            reasons.append("badge_rate")
        age = account_age_days(user_id, n_users, thresholds)
        rate = u.total_checkins / age
        if flag_daily_rate(u.total_checkins, age, thresholds):
            reasons.append("daily_rate")

        trace = sorted(zip(*traces.get(user_id, ((), ()))), key=_BY_TIME)
        infeasible = speed_feasibility(trace, thresholds.v_travel_m_per_s)
        clusters = dispersion(trace, thresholds.cluster_radius_m, cells) if trace else 0
        if infeasible > 0:
            reasons.append("speed")
        if clusters >= thresholds.dispersion_min_clusters:
            reasons.append("dispersion")

        report.append(SuspicionRecord(
            user_id=user_id,
            recent_ratio=ratio,
            badge_flag=badge_flag,
            daily_rate=rate,
            infeasible_pairs=infeasible,
            clusters=clusters,
            suspicious=bool(reasons),
            reasons=tuple(reasons),
        ))
    report.sort(key=lambda r: (-len(r.reasons), r.user_id))
    return report


def write_report_csv(report: Sequence[SuspicionRecord], path: str | Path) -> Path:
    header = ["user_id", "recent_ratio", "badge_flag", "daily_rate",
              "infeasible_pairs", "clusters", "suspicious", "reasons"]
    rows = ([r.user_id, f"{r.recent_ratio:.6f}", int(r.badge_flag), f"{r.daily_rate:.4f}",
             r.infeasible_pairs, r.clusters, int(r.suspicious), ";".join(r.reasons)]
            for r in report)
    return write_csv(Path(path), header, rows)


def write_curve_csv(curve: Sequence[CurvePoint], path: str | Path, value_name: str) -> Path:
    rows = ([p.total_checkins, f"{p.mean_value:.6f}", p.n_users] for p in curve)
    return write_csv(Path(path), ["total_checkins", value_name, "n_users"], rows)
