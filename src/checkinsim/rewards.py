"""Progressive reward mechanics: points, achievement badges, and the
60-day mayorship competition.

Mutated only from the world's single submission sequence. The world keeps
the one record of which venues each user has visited, in the user's rule
state, and passes its size with each valid check-in.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from enum import Enum
from typing import Iterable, Optional

from .config import InvalidConfig, Section, ranged

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
    """Per-venue mayorship bookkeeping, kept up to date per check-in.

    ``days`` maps user id to a time-ordered list of the latest check-in
    timestamp of each day (``t // DAY_S``) of the user's valid check-ins at
    this venue; the window prune bisects the stamps so partial days age out
    correctly, and drops a user's expired prefix in one slice. After each
    prune ``days`` holds exactly the users with a day in the window.

    ``_expiry`` is a FIFO of (t, user id) with one record for every
    timestamp ``note_checkin`` stores, a same-day update included. The prune
    pops the records at or before the window start and visits only their
    users; a record whose timestamp a later same-day check-in replaced finds
    nothing to expire. ``_buckets`` maps a distinct-day count to the users
    holding it, and ``_best`` is the highest count held (0 with no users),
    so the leader is read without scanning the visitors.

    ``note_checkin`` needs non-decreasing timestamps, which keep the FIFO
    time-sorted, and raises ``ValueError`` on an earlier one. ``World``
    never sends one, because ``SimClock.advance`` refuses a regression.
    """

    __slots__ = ("mayor_id", "days", "_expiry", "_buckets", "_best")

    def __init__(self) -> None:
        self.mayor_id: Optional[int] = None
        self.days: dict[int, list[int]] = {}
        self._expiry: deque[tuple[int, int]] = deque()
        self._buckets: dict[int, set[int]] = {}
        self._best = 0

    def note_checkin(self, user_id: int, t: int) -> None:
        expiry = self._expiry
        if expiry and t < expiry[-1][0]:
            raise ValueError(f"check-in by user {user_id} at t={t} is earlier than "
                             f"the venue's last one at t={expiry[-1][0]}")
        expiry.append((t, user_id))
        visits = self.days.get(user_id)
        if visits is None:
            self.days[user_id] = [t]
            count = 1
        elif visits[-1] // DAY_S == t // DAY_S:
            visits[-1] = t
            return
        else:
            visits.append(t)
            count = len(visits)
        self._move(user_id, count - 1, count)
        if count > self._best:
            self._best = count

    def _move(self, user_id: int, old: int, new: int) -> None:
        """Move a user from the ``old`` count bucket to ``new`` (0: none)."""
        buckets = self._buckets
        if old:
            bucket = buckets[old]
            bucket.discard(user_id)
            if not bucket:
                del buckets[old]
        if new:
            bucket = buckets.get(new)
            if bucket is None:
                buckets[new] = {user_id}
            else:
                bucket.add(user_id)

    def _prune(self, window_start: int) -> None:
        expiry = self._expiry
        if not expiry or expiry[0][0] > window_start:
            return  # nothing expires, and ``_best`` is still held
        days = self.days
        while expiry and expiry[0][0] <= window_start:
            user_id = expiry.popleft()[1]
            visits = days.get(user_id)
            if visits is None:
                continue
            expired = bisect_right(visits, window_start)
            if expired:
                before = len(visits)
                del visits[:expired]
                self._move(user_id, before, before - expired)
                if not visits:
                    del days[user_id]
        while self._best and self._best not in self._buckets:
            self._best -= 1


class RewardsEngine:
    """Applies points, badges and mayorship updates for valid check-ins.

    ``_windows`` maps a user to a time-ordered list of the valid check-in
    times not yet pruned for each window badge not yet earned; an earned
    badge's list is deleted.
    """

    def __init__(self, catalog: Iterable[BadgeSpec] = DEFAULT_BADGE_CATALOG) -> None:
        self.catalog = tuple(catalog)
        if len({spec.badge_id for spec in self.catalog}) != len(self.catalog):
            raise InvalidConfig("must have distinct badge ids", "badges")
        self._window_badges = tuple(s for s in self.catalog if s.window_days is not None)
        self._venue_badges = tuple(s for s in self.catalog if s.window_days is None)
        self._windows: dict[int, dict[str, list[int]]] = {}
        self._mayors: dict[int, MayorState] = {}

    # -- mayorship ----------------------------------------------------------

    def mayor_state(self, venue_id: int) -> MayorState:
        state = self._mayors.get(venue_id)
        if state is None:
            state = MayorState()
            self._mayors[venue_id] = state
        return state

    def recompute_mayor(self, venue_id: int, t: int,
                        state: Optional[MayorState] = None) -> Optional[int]:
        """Recompute the 60-day mayor for a venue at time t.

        The title goes to the user with the most distinct check-in days in
        the trailing window; an incumbent keeps it on ties, otherwise the
        lowest user id wins. With no qualifying days at all the incumbent
        retains the title. ``state`` is the venue's ``mayor_state``, when
        the caller holds it already.
        """
        if state is None:
            state = self.mayor_state(venue_id)
        state._prune(t - MAYOR_WINDOW_DAYS * DAY_S)
        best_count = state._best
        incumbent = state.mayor_id
        if best_count == 0:
            return incumbent
        if incumbent is not None:
            visits = state.days.get(incumbent)
            if visits is not None and len(visits) == best_count:
                return incumbent
        best_user = min(state._buckets[best_count])
        state.mayor_id = best_user
        return best_user

    # -- pipeline hook -------------------------------------------------------

    def on_valid_checkin(self, user, venue_id: int, t: int,
                         distinct_venues: int) -> tuple[int, tuple[str, ...], Optional[int]]:
        """Apply all reward effects of one valid check-in by a user with valid
        check-ins at ``distinct_venues`` venues, this one included: a point,
        the catalog badges whose predicate now holds (for good), the mayor.

        Returns (points awarded, newly granted badge ids, mayor after update).
        """
        user.points += BASE_POINTS
        windows = self._windows.get(user.user_id)
        if windows is None:
            windows = self._windows[user.user_id] = {s.badge_id: [] for s in self._window_badges}
        badges: list[str] = []
        for spec in self._venue_badges:
            if distinct_venues >= spec.threshold and spec.badge_id not in user.badges:
                user.badges.add(spec.badge_id)
                badges.append(spec.badge_id)
        for spec in self._window_badges:
            if spec.badge_id in user.badges:
                continue
            window = windows[spec.badge_id]
            window.append(t)
            window_start = t - spec.window_days * DAY_S
            if window[0] <= window_start:
                del window[:bisect_right(window, window_start)]
            if len(window) >= spec.threshold:
                user.badges.add(spec.badge_id)
                badges.append(spec.badge_id)
                del windows[spec.badge_id]  # never read again
        state = self.mayor_state(venue_id)
        state.note_checkin(user.user_id, t)
        return BASE_POINTS, tuple(badges), self.recompute_mayor(venue_id, t, state)
