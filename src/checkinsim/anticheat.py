"""Server-side check-in validation rules.

Four rules run on every submitted check-in: a same-venue cooldown, an implied
travel-speed bound, a rapid-fire cluster rule, and a reported-GPS distance
check. Rules see only reported data, never simulation ground truth, and only
previously *valid* check-ins feed their state.

``UserRuleState`` is the one rule engine: the world feeds it live
submissions, and ``offline_verdicts`` replays a recorded trace through it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping, Optional, Sequence

from .config import Section, ranged
from .geo import (GeoPoint, MILE_M, OutOfProjectionRange, distance_bounds_m, fits_square,
                  haversine_m)

# Relative slack so an exactly-at-the-limit pace is never flagged by float noise.
_SPEED_SLACK = 1e-9


class Flag(str, Enum):
    FREQUENT_CHECKIN = "FrequentCheckin"
    SUPER_HUMAN_SPEED = "SuperHumanSpeed"
    RAPID_FIRE = "RapidFire"
    GPS_MISMATCH = "GpsMismatch"


@dataclass(frozen=True)
class RuleConfig(Section):
    """Tunable rule thresholds (SI units, seconds/meters)."""

    frequent_window_s: int = ranged(3600, gt=0)
    max_speed_m_per_s: float = ranged(MILE_M / 300.0, gt=0)  # one mile per five minutes
    rapidfire_side_m: float = ranged(180.0, gt=0)
    rapidfire_window_s: int = ranged(60, gt=0)
    rapidfire_count: int = ranged(4, gt=0)
    gps_radius_m: float = ranged(500.0, gt=0)


_EMPTY_DETAIL: dict = {}


@dataclass(frozen=True, slots=True)
class RuleVerdict:
    valid: bool
    flags: tuple[Flag, ...] = ()
    detail: Mapping[Flag, float] = field(default_factory=lambda: _EMPTY_DETAIL)

    def flag_names(self) -> list[str]:
        return [f.value for f in self.flags]


VALID_VERDICT = RuleVerdict(True)


def _cluster_fits(points: list[GeoPoint], side_m: float) -> bool:
    try:
        return fits_square(points, side_m)
    except OutOfProjectionRange:
        # spread beyond the local projection range cannot fit any small square
        return False


class UserRuleState:
    """Streaming per-user rule state: O(1) evaluation per submission.

    Holds only what the rules need from valid history: the last valid
    check-in time per venue, the most recent valid check-in, and a
    time-ordered list of the valid check-ins inside the rapid-fire window.
    Submissions must arrive in time order: the window's expired prefix is
    dropped as it slides forward.
    """

    __slots__ = ("last_valid_t_by_venue", "last_valid", "recent")

    def __init__(self) -> None:
        self.last_valid_t_by_venue: dict[int, int] = {}
        self.last_valid: Optional[tuple[int, GeoPoint]] = None
        self.recent: list[tuple[int, GeoPoint]] = []

    def evaluate_next(
        self,
        venue_id: int,
        venue_location: GeoPoint,
        reported_gps: GeoPoint,
        t: int,
        config: RuleConfig,
    ) -> RuleVerdict:
        # Fired rules in firing order, built when the first one fires.
        detail: Optional[dict[Flag, float]] = None

        prev_t = self.last_valid_t_by_venue.get(venue_id)
        if prev_t is not None and t - prev_t < config.frequent_window_s:
            detail = {Flag.FREQUENT_CHECKIN: float(t - prev_t)}

        last = self.last_valid
        # From the venue's own point the distance is 0.0, which no pace exceeds.
        if last is not None and last[1] is not venue_location:
            t_prev, loc_prev = last
            dt = t - t_prev
            if dt <= 0:
                if haversine_m(loc_prev, venue_location) > 0.0:
                    detail = detail or {}
                    detail[Flag.SUPER_HUMAN_SPEED] = float("inf")
            else:
                # haversine_m <= high, and division rounds monotonically, so
                # high / dt <= limit means the measured pace is within it too.
                limit = config.max_speed_m_per_s * (1.0 + _SPEED_SLACK)
                if not distance_bounds_m(loc_prev, venue_location)[1] / dt <= limit:
                    speed = haversine_m(loc_prev, venue_location) / dt
                    if speed > limit:
                        detail = detail or {}
                        detail[Flag.SUPER_HUMAN_SPEED] = speed

        recent = self.recent
        window_start = t - config.rapidfire_window_s
        if recent and recent[0][0] <= window_start:
            k = 1
            while k < len(recent) and recent[k][0] <= window_start:
                k += 1
            del recent[:k]
        if len(recent) >= config.rapidfire_count - 1:
            points = [loc for _, loc in recent]
            points.append(venue_location)
            if _cluster_fits(points, config.rapidfire_side_m):
                detail = detail or {}
                detail[Flag.RAPID_FIRE] = float(len(points))

        # The venue's own point is 0.0 m off; a high bound within the radius
        # means the measured offset is too.
        if (reported_gps is not venue_location and
                not distance_bounds_m(reported_gps, venue_location)[1] <= config.gps_radius_m):
            offset = haversine_m(reported_gps, venue_location)
            if offset > config.gps_radius_m:
                detail = detail or {}
                detail[Flag.GPS_MISMATCH] = offset

        if detail is None:
            return VALID_VERDICT
        return RuleVerdict(valid=False, flags=tuple(detail), detail=detail)

    def record_valid(self, venue_id: int, venue_location: GeoPoint, t: int) -> None:
        """Fold an accepted check-in into the rule state."""
        self.last_valid_t_by_venue[venue_id] = t
        self.last_valid = (t, venue_location)
        self.recent.append((t, venue_location))


def offline_verdicts(
    trace: Sequence[tuple[int, int, GeoPoint, GeoPoint]],
    config: RuleConfig,
    prior_valid: Optional[Sequence[bool]] = None,
) -> list[RuleVerdict]:
    """Recompute every verdict of a full trace through a fresh ``UserRuleState``.

    ``trace`` rows are (t, venue_id, venue_location, reported_gps), time
    ordered. By default validity chains through the recomputed verdicts;
    passing ``prior_valid`` pins each row's validity-for-state to a recorded
    outcome instead (used when replaying logs whose acceptance was also
    gated by presence attestation).
    """
    state = UserRuleState()
    verdicts: list[RuleVerdict] = []
    for i, (t, venue_id, venue_location, reported_gps) in enumerate(trace):
        verdict = state.evaluate_next(venue_id, venue_location, reported_gps, t, config)
        verdicts.append(verdict)
        if verdict.valid if prior_valid is None else prior_valid[i]:
            state.record_valid(venue_id, venue_location, t)
    return verdicts
