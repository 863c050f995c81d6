"""Progressive reward mechanics: points, achievement badges, and the
60-day mayorship competition.

Mutated only from the world's single submission sequence.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Mapping, Optional, Sequence

DAY_S = 86_400
BASE_POINTS = 1  # flat points per valid check-in
MAYOR_WINDOW_DAYS = 60


class BadgeKind(str, Enum):
    DISTINCT_VENUES = "distinct_venues"
    CHECKINS_IN_WINDOW = "checkins_in_window"


@dataclass(frozen=True)
class BadgeSpec:
    badge_id: str
    kind: BadgeKind
    threshold: int
    window_days: Optional[int] = None

    def __post_init__(self) -> None:
        if self.threshold < 1:
            raise ValueError("badge threshold must be >= 1")
        if (self.kind == BadgeKind.CHECKINS_IN_WINDOW) != (self.window_days is not None):
            raise ValueError("window_days is required exactly for checkins_in_window badges")

    @classmethod
    def from_dict(cls, data: Mapping) -> "BadgeSpec":
        return cls(
            badge_id=data["badge_id"],
            kind=BadgeKind(data["kind"]),
            threshold=int(data["threshold"]),
            window_days=None if data.get("window_days") is None else int(data["window_days"]),
        )

    def to_dict(self) -> dict:
        d = {"badge_id": self.badge_id, "kind": self.kind.value, "threshold": self.threshold}
        if self.window_days is not None:
            d["window_days"] = self.window_days
        return d


DEFAULT_BADGE_CATALOG: tuple[BadgeSpec, ...] = (
    BadgeSpec("adventurer", BadgeKind.DISTINCT_VENUES, 10),
    BadgeSpec("marathon-month", BadgeKind.CHECKINS_IN_WINDOW, 30, window_days=30),
)


class _BadgeProgress:
    __slots__ = ("venues", "windows", "complete")

    def __init__(self, window_badges: Sequence[BadgeSpec]) -> None:
        self.venues: set[int] = set()
        self.windows: dict[str, deque[int]] = {spec.badge_id: deque() for spec in window_badges}
        self.complete = False


class MayorState:
    """Per-venue mayorship bookkeeping, kept up to date per check-in.

    ``days`` maps user id to a deque of (day, latest check-in timestamp that
    day) for the user's valid check-ins at this venue; the window prune keys
    off the stored timestamps so partial days age out correctly. After each
    prune ``days`` holds exactly the users with a day in the window.

    ``_expiry`` is a FIFO of (t, user id) with one record for every
    timestamp ``note_checkin`` stores, a same-day update included. The prune
    pops the records at or before the window start and visits only their
    users; a record whose timestamp a later same-day check-in replaced finds
    nothing to expire. ``_buckets`` maps a distinct-day count to the users
    holding it, and ``_best`` is the highest count held (0 with no users),
    so the leader is read without scanning the visitors.

    Precondition: ``note_checkin`` sees non-decreasing timestamps, which
    keeps the FIFO time-sorted. ``World`` guarantees it, because
    ``SimClock.advance`` refuses a regression.
    """

    __slots__ = ("mayor_id", "days", "_expiry", "_buckets", "_best")

    def __init__(self) -> None:
        self.mayor_id: Optional[int] = None
        self.days: dict[int, deque[tuple[int, int]]] = {}
        self._expiry: deque[tuple[int, int]] = deque()
        self._buckets: dict[int, set[int]] = {}
        self._best = 0

    def note_checkin(self, user_id: int, t: int) -> None:
        day = t // DAY_S
        dq = self.days.get(user_id)
        if dq is None:
            dq = deque()
            self.days[user_id] = dq
        self._expiry.append((t, user_id))
        if dq and dq[-1][0] == day:
            dq[-1] = (day, t)
            return
        dq.append((day, t))
        count = len(dq)
        self._move(user_id, count - 1, count)
        if count > self._best:
            self._best = count

    def distinct_day_counts(self, t: int) -> dict[int, int]:
        """Distinct check-in days per user within (t - window, t]."""
        self._prune(t - MAYOR_WINDOW_DAYS * DAY_S)
        return {user_id: len(dq) for user_id, dq in self.days.items()}

    def _move(self, user_id: int, old: int, new: int) -> None:
        """Move a user from the ``old`` count bucket to ``new`` (0: none)."""
        buckets = self._buckets
        if old:
            bucket = buckets[old]
            bucket.discard(user_id)
            if not bucket:
                del buckets[old]
        if new:
            buckets.setdefault(new, set()).add(user_id)

    def _prune(self, window_start: int) -> None:
        expiry = self._expiry
        days = self.days
        while expiry and expiry[0][0] <= window_start:
            user_id = expiry.popleft()[1]
            dq = days.get(user_id)
            if dq is None:
                continue
            before = len(dq)
            while dq and dq[0][1] <= window_start:
                dq.popleft()
            if len(dq) != before:
                self._move(user_id, before, len(dq))
                if not dq:
                    del days[user_id]
        while self._best and self._best not in self._buckets:
            self._best -= 1


class RewardsEngine:
    """Applies points, badges and mayorship updates for valid check-ins."""

    def __init__(self, catalog: Iterable[BadgeSpec] = DEFAULT_BADGE_CATALOG) -> None:
        self.catalog = tuple(catalog)
        if len({spec.badge_id for spec in self.catalog}) != len(self.catalog):
            raise ValueError("duplicate badge ids in catalog")
        self._window_badges = tuple(
            s for s in self.catalog if s.kind == BadgeKind.CHECKINS_IN_WINDOW
        )
        self._venue_badges = tuple(
            s for s in self.catalog if s.kind == BadgeKind.DISTINCT_VENUES
        )
        self._progress: dict[int, _BadgeProgress] = {}
        self._mayors: dict[int, MayorState] = {}

    # -- badges ------------------------------------------------------------

    def update_badges(self, user, t: int) -> tuple[str, ...]:
        """Grant any catalog badges whose predicate now holds. Permanent."""
        progress = self._progress.get(user.user_id)
        if progress is None or progress.complete:
            return ()
        new: list[str] = []
        for spec in self._venue_badges:
            if spec.badge_id not in user.badges and len(progress.venues) >= spec.threshold:
                user.badges.add(spec.badge_id)
                new.append(spec.badge_id)
        for spec in self._window_badges:
            if spec.badge_id in user.badges:
                continue
            dq = progress.windows[spec.badge_id]
            window_start = t - spec.window_days * DAY_S
            while dq and dq[0] <= window_start:
                dq.popleft()
            if len(dq) >= spec.threshold:
                user.badges.add(spec.badge_id)
                new.append(spec.badge_id)
        if len(user.badges) >= len(self.catalog):
            progress.complete = True
        return tuple(new)

    # -- mayorship ----------------------------------------------------------

    def mayor_state(self, venue_id: int) -> MayorState:
        state = self._mayors.get(venue_id)
        if state is None:
            state = MayorState()
            self._mayors[venue_id] = state
        return state

    def recompute_mayor(self, venue_id: int, t: int) -> Optional[int]:
        """Recompute the 60-day mayor for a venue at time t.

        The title goes to the user with the most distinct check-in days in
        the trailing window; an incumbent keeps it on ties, otherwise the
        lowest user id wins. With no qualifying days at all the incumbent
        retains the title.
        """
        state = self.mayor_state(venue_id)
        state._prune(t - MAYOR_WINDOW_DAYS * DAY_S)
        best_count = state._best
        incumbent = state.mayor_id
        if best_count == 0:
            return incumbent
        if incumbent is not None:
            dq = state.days.get(incumbent)
            if dq is not None and len(dq) == best_count:
                return incumbent
        best_user = min(state._buckets[best_count])
        state.mayor_id = best_user
        return best_user

    # -- pipeline hook -------------------------------------------------------

    def on_valid_checkin(self, user, venue_id: int, t: int) -> tuple[int, tuple[str, ...], Optional[int]]:
        """Apply all reward effects of one valid check-in.

        Returns (points awarded, newly granted badge ids, mayor after update).
        """
        user.points += BASE_POINTS
        progress = self._progress.get(user.user_id)
        if progress is None:
            progress = _BadgeProgress(self._window_badges)
            self._progress[user.user_id] = progress
        if not progress.complete:
            progress.venues.add(venue_id)
            for dq in progress.windows.values():
                dq.append(t)
        badges = self.update_badges(user, t)
        self.mayor_state(venue_id).note_checkin(user.user_id, t)
        mayor = self.recompute_mayor(venue_id, t)
        return BASE_POINTS, badges, mayor
