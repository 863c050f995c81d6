"""Server-side check-in validation rules.

Four rules run on every submitted check-in: a same-venue cooldown, an implied
travel-speed bound, a rapid-fire cluster rule, and a reported-GPS distance
check. Rules see only reported data, never simulation ground truth, and only
previously *valid* check-ins feed their state.

``UserRuleState`` is the one rule engine. The world feeds it live
submissions. ``offline_verdicts`` replays a recorded log through it in one
pass, in log order, keeping one state per user as the world does; a row
that reports its venue's own coordinates reports that venue's shared point,
so the GPS rule's ``is`` shortcut holds offline too. A ``RuleVerdict`` is a
tuple, built without its Python-level ``__new__``.
"""

from __future__ import annotations

from enum import Enum
from functools import partial
from typing import Container, Mapping, MutableMapping, NamedTuple, Optional

from .config import Section, ranged
from .geo import (GeoPoint, MILE_M, OutOfProjectionRange, distance_bounds_m, fits_square,
                  haversine_m)
from .tables import CheckInLog, UnknownUser, UnknownVenue

# Relative slack so an exactly-at-the-limit pace is never flagged by float noise.
_SPEED_SLACK = 1e-9


class Flag(str, Enum):
    FREQUENT_CHECKIN = "FrequentCheckin"
    SUPER_HUMAN_SPEED = "SuperHumanSpeed"
    RAPID_FIRE = "RapidFire"
    GPS_MISMATCH = "GpsMismatch"


# An Enum class attribute is a slow lookup; the rules read the members from here.
_FREQUENT_CHECKIN, _SUPER_HUMAN_SPEED, _RAPID_FIRE, _GPS_MISMATCH = Flag


class RuleConfig(Section):
    """Tunable rule thresholds (SI units, seconds/meters)."""

    frequent_window_s: int = ranged(3600, gt=0)
    max_speed_m_per_s: float = ranged(MILE_M / 300.0, gt=0)  # one mile per five minutes
    rapidfire_side_m: float = ranged(180.0, gt=0)
    rapidfire_window_s: int = ranged(60, gt=0)
    rapidfire_count: int = ranged(4, gt=0)
    gps_radius_m: float = ranged(500.0, gt=0)


_EMPTY_DETAIL: dict = {}


class RuleVerdict(NamedTuple):
    valid: bool
    flags: tuple[Flag, ...] = ()
    detail: Mapping[Flag, float] = _EMPTY_DETAIL

    def flag_names(self) -> list[str]:
        return [f.value for f in self.flags]


VALID_VERDICT = RuleVerdict(True)
_new_verdict = partial(tuple.__new__, RuleVerdict)  # skips the Python-level __new__
_new_point = partial(tuple.__new__, GeoPoint)


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
            detail = {_FREQUENT_CHECKIN: float(t - prev_t)}

        last = self.last_valid
        # From the venue's own point the distance is 0.0, which no pace exceeds.
        if last is not None and last[1] is not venue_location:
            t_prev, loc_prev = last
            dt = t - t_prev
            if dt <= 0:
                if haversine_m(loc_prev, venue_location) > 0.0:
                    detail = detail or {}
                    detail[_SUPER_HUMAN_SPEED] = float("inf")
            else:
                # haversine_m <= high, and division rounds monotonically, so
                # high / dt <= limit means the measured pace is within it too.
                limit = config.max_speed_m_per_s * (1.0 + _SPEED_SLACK)
                if not distance_bounds_m(loc_prev, venue_location)[1] / dt <= limit:
                    speed = haversine_m(loc_prev, venue_location) / dt
                    if speed > limit:
                        detail = detail or {}
                        detail[_SUPER_HUMAN_SPEED] = speed

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
                detail[_RAPID_FIRE] = float(len(points))

        # The venue's own point is 0.0 m off; a high bound within the radius
        # means the measured offset is too.
        if (reported_gps is not venue_location and
                not distance_bounds_m(reported_gps, venue_location)[1] <= config.gps_radius_m):
            offset = haversine_m(reported_gps, venue_location)
            if offset > config.gps_radius_m:
                detail = detail or {}
                detail[_GPS_MISMATCH] = offset

        if detail is None:
            return VALID_VERDICT
        return _new_verdict((False, tuple(detail), detail))

    def record_valid(self, venue_id: int, venue_location: GeoPoint, t: int) -> None:
        """Fold an accepted check-in into the rule state."""
        self.last_valid_t_by_venue[venue_id] = t
        self.last_valid = (t, venue_location)
        self.recent.append((t, venue_location))


class RowOutOfOrder(ValueError):
    """A log row earlier than its user's previous row; ``index`` is the row's."""

    def __init__(self, t: int, user_id: int, previous_t: int, index: int) -> None:
        super().__init__(f"user {user_id} at t={t} is earlier than the user's previous "
                         f"row at t={previous_t}")
        self.previous_t = previous_t
        self.index = index


class ReplayState(UserRuleState):
    """A user's rule state in a replay, with ``last_t``, the time of the user's
    last row (valid or not), which ``offline_verdicts`` sets at every row."""

    __slots__ = ("last_t",)


def offline_verdicts(
    log: CheckInLog,
    rows: range,
    venue_points: Mapping[int, GeoPoint],
    user_ids: Container[int],
    config: RuleConfig,
    states: Optional[MutableMapping[int, ReplayState]] = None,
) -> list[RuleVerdict]:
    """Recompute the verdict of the ``rows`` (a range of row indexes) of a
    check-in log, in one pass in log order.

    ``venue_points`` maps each venue to its point, and ``user_ids`` holds
    the users the log may name. Each user's rows replay through that
    user's ``ReplayState`` in ``states``, made at the user's first row;
    passing the same dict to consecutive calls over consecutive ranges of a
    log replays it as one call over the whole log would. A row feeds later
    rules when its logged ``valid`` is true, as presence attestation gated it.

    The first row at a venue ``venue_points`` lacks raises ``UnknownVenue``,
    the first row of a user ``user_ids`` lacks ``UnknownUser`` (each the
    first row holding its id), and the first row earlier than its user's
    previous row ``RowOutOfOrder`` with its index; no later row is replayed.
    """
    if states is None:
        states = {}
    valid_of = [valid for valid, _ in log.outcomes]
    verdicts: list[RuleVerdict] = []
    append = verdicts.append
    start = rows.start
    for t, user_id, venue_id, lat, lon, outcome in zip(*[c[start:rows.stop] for c in log.columns]):
        point = venue_points.get(venue_id)
        if point is None:
            raise UnknownVenue.in_row((t, user_id, venue_id))
        state = states.get(user_id)
        if state is None:
            if user_id not in user_ids:
                raise UnknownUser.in_row((t, user_id, venue_id))
            state = states[user_id] = ReplayState()
        elif t < state.last_t:
            raise RowOutOfOrder(t, user_id, state.last_t, start + len(verdicts))
        state.last_t = t
        reported = point if lat == point[0] and lon == point[1] else _new_point((lat, lon))
        verdict = state.evaluate_next(venue_id, point, reported, t, config)
        append(verdict)
        if valid_of[outcome]:
            state.record_valid(venue_id, point, t)
    return verdicts
