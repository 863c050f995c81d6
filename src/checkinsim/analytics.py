"""Offline cheater detection over exported profiles and event logs.

Four detectors: badge-to-checkin anomaly, sustained daily check-in rate,
physically infeasible travel between consecutive check-ins, and geographic
dispersion of the check-in history. Everything here is recomputable from the
export files alone; ground truth never feeds a detector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple, Optional, Sequence

from .geo import EARTH_RADIUS_M, GeoPoint, haversine_m
from .tables import EventRow, PublicTables, write_csv


class CurvePoint(NamedTuple):
    total_checkins: int
    mean_value: float
    n_users: int


@dataclass(frozen=True)
class DetectionThresholds:
    """Detector tuning; defaults separate the bundled honest/cheater fixtures."""

    v_travel_m_per_s: float = 250.0
    cluster_radius_m: float = 50_000.0
    dispersion_min_clusters: int = 10
    badge_min_checkins: int = 1000
    badge_max_badges: int = 10
    daily_rate_max: float = 16.0
    curve_max_total: int = 2000
    registration_span_days: float = 365.0
    min_account_age_days: float = 30.0


@dataclass(frozen=True)
class SuspicionRecord:
    user_id: int
    recent_ratio: float
    badge_flag: bool
    daily_rate: float
    infeasible_pairs: int
    clusters: int
    suspicious: bool
    reasons: tuple[str, ...]


def compute_curve(tables: PublicTables, column: str, max_total: int = 2000) -> list[CurvePoint]:
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


def speed_feasibility(
    trace: Sequence[tuple[int, GeoPoint]], v_travel_m_per_s: float = 250.0
) -> int:
    """Count consecutive check-in pairs no physical journey could connect."""
    infeasible = 0
    prev_t: Optional[int] = None
    prev_loc: Optional[GeoPoint] = None
    for t, loc in trace:
        if prev_loc is not None:
            dist = haversine_m(prev_loc, loc)
            dt = t - prev_t
            if dt <= 0:
                if dist > 0.0:
                    infeasible += 1
            elif dist / dt > v_travel_m_per_s:
                infeasible += 1
        prev_t, prev_loc = t, loc
    return infeasible


def dispersion(
    trace: Sequence[tuple[int, GeoPoint]], cluster_radius_m: float = 50_000.0
) -> int:
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
    the only accept test; the cells only choose which leaders it sees.

    Three shortcuts skip the lookup: the first point is a leader; a location
    already seen in the trace is skipped, since it is a leader or lies within
    the radius of one and leaders are never removed (this needs a radius
    > 0); and the leader the previous point matched is tried first.
    Non-finite coordinates raise ``ValueError``.
    """
    if not trace:
        raise ValueError("dispersion needs a non-empty trace")
    if not cluster_radius_m > 0:
        raise ValueError(f"cluster_radius_m must be > 0, got {cluster_radius_m!r}")
    ordered = sorted(trace)  # (t, (lat, lon)) pairs: by time, then position
    chord = 2.0 * math.sin(min(cluster_radius_m / (2.0 * EARTH_RADIUS_M), math.pi / 2))
    halves = 1.0 / (max(chord, 1e-9) * 1.001)  # half-cells per unit length
    cells: dict[int, list[GeoPoint]] = {}
    last = ordered[0][1]
    _list_leader(cells, last, _cell_keys(last, halves)[1])
    seen = {last}
    clusters = 1
    for _, loc in ordered:
        if loc in seen:
            continue
        seen.add(loc)
        if haversine_m(last, loc) <= cluster_radius_m:
            continue
        home, corner = _cell_keys(loc, halves)
        for leader in cells.get(home, ()):
            if haversine_m(leader, loc) <= cluster_radius_m:
                last = leader
                break
        else:
            _list_leader(cells, loc, corner)
            last = loc
            clusters += 1
    return clusters


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


def user_traces(
    tables: PublicTables, events: Sequence[EventRow]
) -> dict[int, list[tuple[int, GeoPoint]]]:
    """Per-user, time-ordered (t, venue location) traces from the event log.

    Raises ``ValueError`` for a row whose venue is not in ``VenueInfo.csv``.
    """
    location = tables.event_location
    traces: dict[int, list[tuple[int, GeoPoint]]] = {}
    for e in events:
        traces.setdefault(e.user_id, []).append((e.t, location(e)))
    for trace in traces.values():
        trace.sort(key=lambda row: row[0])
    return traces


def build_report(
    tables: PublicTables,
    events: Sequence[EventRow],
    thresholds: DetectionThresholds = DetectionThresholds(),
) -> list[SuspicionRecord]:
    """Run every detector for every user; rank by reason count, then id."""
    traces = user_traces(tables, events)
    n_users = max(tables.users) if tables.users else 0
    report: list[SuspicionRecord] = []
    for user_id in sorted(tables.users):
        u = tables.users[user_id]
        if u.recent_checkins > u.total_checkins:
            raise ValueError(f"UserInfo row for user {user_id}: recent_checkins "
                             f"{u.recent_checkins} exceeds total_checkins {u.total_checkins}")
        ratio = u.recent_checkins / u.total_checkins if u.total_checkins else 0.0

        reasons: list[str] = []
        badge_flag = flag_badge_anomaly(u.total_checkins, u.total_badges, thresholds)
        if badge_flag:
            reasons.append("badge_rate")
        age = account_age_days(user_id, n_users, thresholds)
        rate = u.total_checkins / age
        if flag_daily_rate(u.total_checkins, age, thresholds):
            reasons.append("daily_rate")

        trace = traces.get(user_id, [])
        infeasible = speed_feasibility(trace, thresholds.v_travel_m_per_s)
        clusters = dispersion(trace, thresholds.cluster_radius_m) if trace else 0
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
