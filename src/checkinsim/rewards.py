"""Progressive reward mechanics: points, achievement badges, and the
60-day mayorship competition.

Mutated only from the world's submissions, in two halves that need
nothing of each other: ``on_valid_checkin`` applies a run of one user's
valid check-ins (points and badges), and ``recompute_mayor`` a run of one
venue's (the mayorship stamps and the mayor). The world keeps the one
record of which venues each user has visited, in the user's rule state,
and passes its size with each user's run.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from enum import Enum
from typing import Iterable, Optional, Sequence

from .config import InvalidConfig, Section, ranged
from .tables import T_END

DAY_S = 86_400
BASE_POINTS = 1  # flat points per valid check-in
MAYOR_WINDOW_DAYS = 60


class BadgeKind(str, Enum):
    DISTINCT_VENUES = "distinct_venues"
    CHECKINS_IN_WINDOW = "checkins_in_window"


class BadgeSpec(Section):
    badge_id: str
    kind: BadgeKind
    threshold: int = ranged(ge=1)
    window_days: Optional[int] = ranged(None, ge=1)

    def check(self) -> None:
        if (self.kind == BadgeKind.CHECKINS_IN_WINDOW) != (self.window_days is not None):
            raise InvalidConfig("must be set exactly for checkins_in_window badges, got "
                                f"{self.window_days!r}", "window_days")


DEFAULT_BADGE_CATALOG: tuple[BadgeSpec, ...] = (
    BadgeSpec("adventurer", BadgeKind.DISTINCT_VENUES, 10),
    BadgeSpec("marathon-month", BadgeKind.CHECKINS_IN_WINDOW, 30, window_days=30),
)


class MayorState:
    """Per-venue mayorship bookkeeping, kept up to date per check-in by
    ``RewardsEngine.recompute_mayor``, which holds it in locals for a run.

    ``days`` maps user id to a time-ordered list of the latest check-in
    timestamp of each day (``t // DAY_S``) of the user's valid check-ins at
    this venue; the window prune bisects the stamps so partial days age out
    correctly, and drops a user's expired prefix in one slice. After each
    prune ``days`` holds exactly the users with a day in the window.

    ``_expiry`` is a FIFO of (t, user id) with one record for every stamp
    stored, a same-day update included. The prune pops the records at or
    before the window start and visits only their users; a record whose
    timestamp a later same-day check-in replaced finds nothing to expire.
    ``_buckets`` maps a distinct-day count to the users holding it, and
    ``_best`` is the highest count held (0 with no users), so the leader is
    read without scanning the visitors.
    """

    __slots__ = ("mayor_id", "days", "_expiry", "_buckets", "_best")

    def __init__(self) -> None:
        self.mayor_id: Optional[int] = None
        self.days: dict[int, list[int]] = {}
        self._expiry: deque[tuple[int, int]] = deque()
        self._buckets: dict[int, set[int]] = {}
        self._best = 0


class RewardsEngine:
    """Applies points, badges and mayorship updates for valid check-ins, in
    runs: per user (``on_valid_checkin``) and per venue (``recompute_mayor``).

    ``_windows`` maps a user to a time-ordered list of the valid check-in
    times not yet pruned for each window badge not yet earned; an earned
    badge's list is deleted.
    """

    def __init__(self, catalog: Iterable[BadgeSpec] = DEFAULT_BADGE_CATALOG) -> None:
        self.catalog = tuple(catalog)
        if len({spec.badge_id for spec in self.catalog}) != len(self.catalog):
            raise InvalidConfig("must have distinct badge ids", "badges")
        self._window_badges = tuple(s for s in self.catalog if s.window_days is not None)
        self._windows: dict[int, dict[str, list[int]]] = {}
        self._mayors: dict[int, MayorState] = {}

    # -- mayorship ----------------------------------------------------------

    def mayor_state(self, venue_id: int) -> MayorState:
        state = self._mayors.get(venue_id)
        if state is None:
            state = MayorState()
            self._mayors[venue_id] = state
        return state

    def recompute_mayor(self, venue_id: int, user_ids: Sequence[int],
                        times: Sequence[int]) -> int:
        """The venue half of the rewards: stamp a run of valid check-ins at a
        venue, by ``user_ids[k]`` at ``times[k]`` in log order, and recompute
        the 60-day mayor after each. Returns the mayor after the run.

        The title goes to the user with the most distinct check-in days in
        the trailing window (t - 60 days, t]; an incumbent keeps it on ties,
        otherwise the lowest user id wins. The stamp at t is in the window,
        so some user always qualifies. Times must not decrease: a time before
        the venue's last stamp raises ``ValueError``, leaving the earlier rows
        of the run applied. ``World`` never sends one (see ``SimClock``).
        """
        state = self.mayor_state(venue_id)
        days, expiry, buckets = state.days, state._expiry, state._buckets
        best, mayor = state._best, state.mayor_id
        last = expiry[-1][0] if expiry else -T_END
        span = MAYOR_WINDOW_DAYS * DAY_S
        try:
            for user_id, t in zip(user_ids, times):
                if t < last:
                    raise ValueError(f"check-in by user {user_id} at t={t} is earlier than "
                                     f"the venue's last one at t={last}")
                last = t
                expiry.append((t, user_id))
                visits = days.get(user_id)
                if visits is None:
                    days[user_id] = [t]
                    count = 1
                elif visits[-1] // DAY_S == t // DAY_S:
                    visits[-1] = t
                    count = 0  # a same-day stamp: no count moves
                else:
                    visits.append(t)
                    count = len(visits)
                if count:  # the user moves from the count - 1 bucket to the count one
                    if count > 1:
                        bucket = buckets[count - 1]
                        bucket.discard(user_id)
                        if not bucket:
                            del buckets[count - 1]
                    bucket = buckets.get(count)
                    if bucket is None:
                        buckets[count] = {user_id}
                    else:
                        bucket.add(user_id)
                    if count > best:
                        best = count
                window_start = t - span
                if expiry[0][0] <= window_start:  # the stamp at t stops the prune
                    while expiry[0][0] <= window_start:
                        user_id = expiry.popleft()[1]
                        visits = days.get(user_id)
                        if visits is None:
                            continue
                        expired = bisect_right(visits, window_start)
                        if expired:  # the user moves down from the len(visits) bucket
                            bucket = buckets[len(visits)]
                            bucket.discard(user_id)
                            if not bucket:
                                del buckets[len(visits)]
                            del visits[:expired]
                            if not visits:
                                del days[user_id]
                            else:
                                bucket = buckets.get(len(visits))
                                if bucket is None:
                                    buckets[len(visits)] = {user_id}
                                else:
                                    bucket.add(user_id)
                    while best not in buckets:
                        best -= 1
                if len(days.get(mayor, ())) != best:
                    mayor = min(buckets[best])
        finally:
            state.mayor_id, state._best = mayor, best
        return mayor

    # -- the user half -------------------------------------------------------

    def on_valid_checkin(self, user, times: Sequence[int],
                         distinct_venues: int) -> tuple[str, ...]:
        """The user half of the rewards: apply a run of one user's valid
        check-ins at ``times``, in time order, after which the user has valid
        check-ins at ``distinct_venues`` venues: a point each, and each
        catalog badge whose predicate held after any of them (for good).

        Returns the newly granted badge ids; ``user.badges`` holds every
        granted one, in catalog order.
        """
        user.points += BASE_POINTS * len(times)
        held = user.badges
        windows = self._windows.get(user.user_id)
        if windows is None:
            windows = self._windows[user.user_id] = {s.badge_id: [] for s in self._window_badges}
        granted: list[str] = []
        for spec in self.catalog:
            badge_id = spec.badge_id
            if badge_id in held:
                continue
            if spec.window_days is None:
                if distinct_venues >= spec.threshold:
                    granted.append(badge_id)
                continue
            window, span, threshold = windows[badge_id], spec.window_days * DAY_S, spec.threshold
            for t in times:
                window.append(t)
                if window[0] <= t - span:
                    del window[:bisect_right(window, t - span)]
                if len(window) >= threshold:
                    granted.append(badge_id)
                    del windows[badge_id]  # never read again
                    break
        if granted:
            user.badges = tuple(s.badge_id for s in self.catalog
                                if s.badge_id in held or s.badge_id in granted)
        return tuple(granted)

