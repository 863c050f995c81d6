"""Authoritative simulated-service state.

Holds venues, users and the append-only check-in log, and runs every
submission through the anticheat -> attestation -> rewards pipeline. All
mutation flows through a single logical submission sequence; exports and
analytics read immutable projections.

The log (``World.events``) is a ``tables.CheckInLog``. A row's true point,
attestation and verdict ``detail`` are not kept in it: ``submit_checkin``
returns them in the row's ``CheckInRecord``.

Rows go in through one pipeline body (``World._submit``) that has no
argument checks of its own, by one of two doors: ``submit_checkin`` checks
one row's arguments and returns its ``CheckInRecord``, and ``submit_planned``
checks planned ``array`` columns once (``_check_planned``), before any
state changes, raising what ``submit_checkin`` raises for the first bad value.
"""

from __future__ import annotations

import io
import json
import random
from array import array
from collections import Counter
from collections.abc import Sequence
from functools import partial
from itertools import chain
from math import isnan
from operator import gt
from pathlib import Path
from typing import Iterable, NamedTuple, Optional

from .anticheat import VALID_VERDICT, RuleConfig, RuleVerdict, UserRuleState
from .config import dump
from .geo import GeoPoint, validate_point
from .rewards import BadgeSpec, DAY_S, DEFAULT_BADGE_CATALOG, MAYOR_WINDOW_DAYS, RewardsEngine
from .tables import (T_END, CheckInLog, PublicTables, UnknownUser, UnknownVenue, json_object,
                     write_events, write_tables)
from .verify import RouterRegistration, attest_checkin

# Flag string used in exports for check-ins rejected by strict presence
# verification; not part of the anticheat rule set.
PRESENCE_UNVERIFIED = "PresenceUnverified"

_SNAPSHOT_FORMAT = "checkinsim-snapshot"
_SNAPSHOT_VERSION = 11  # 11: CheckInLog moved to tables and keeps six columns
# Every global a saved world references; load_state refuses any other, so a
# crafted payload cannot call into the rest of the interpreter.
_SNAPSHOT_GLOBALS = frozenset(
    [("checkinsim.world", name)
     for name in ("World", "SimClock", "Venue", "UserProfile")]
    + [("checkinsim.anticheat", name) for name in ("RuleConfig", "Flag", "UserRuleState")]
    + [("checkinsim.rewards", name)
       for name in ("RewardsEngine", "MayorState", "BadgeSpec", "BadgeKind")]
    + [("checkinsim.geo", "GeoPoint"), ("checkinsim.verify", "RouterRegistration"),
       ("checkinsim.tables", "CheckInLog"),
       ("array", "array"), ("array", "_array_reconstructor"), ("collections", "deque"),
       ("random", "Random")])
RECENT_LIST_LEN = 10  # a venue's public recent-visitor list, most recent first


class ClockRegression(Exception):
    """Submission timestamp earlier than the simulation clock."""


class CorruptSnapshot(Exception):
    """Snapshot file is truncated, malformed, or fails its checksum."""


class SimClock:
    __slots__ = ("now",)

    def __init__(self, now: int = 0) -> None:
        self.now = now

    def advance(self, t: int) -> None:
        if t.__class__ is not int or t >= T_END:
            raise ValueError(f"t={t!r} is not an integer below 2**63")
        if t < self.now:
            raise ClockRegression(f"t={t} is before simulation clock {self.now}")
        self.now = t


class Venue:
    __slots__ = ("venue_id", "name", "location", "has_mayor_special", "total_checkins",
                 "mayor_id", "recent_visitors", "unique_visitors")

    def __init__(self, venue_id: int, name: str, location: GeoPoint,
                 has_mayor_special: bool = False) -> None:
        self.venue_id, self.name, self.location = venue_id, name, location
        self.has_mayor_special = has_mayor_special
        self.total_checkins, self.mayor_id, self.unique_visitors = 0, None, 0
        self.recent_visitors: list[int] = []  # most recent first


class UserProfile:
    __slots__ = ("user_id", "home", "total_checkins", "points", "badges", "total_mayorships",
                 "is_cheater_ground_truth")

    def __init__(self, user_id: int, home: GeoPoint, is_cheater_ground_truth: bool = False) -> None:
        self.user_id, self.home = user_id, home
        self.is_cheater_ground_truth = is_cheater_ground_truth
        self.total_checkins = self.points = self.total_mayorships = 0
        self.badges: set[str] = set()


class CheckInRecord(NamedTuple):
    t: int
    user_id: int
    venue_id: int
    reported_gps: GeoPoint
    true_gps: GeoPoint
    verdict: RuleVerdict
    attested: Optional[bool] = None
    accepted: bool = False


_new_record = partial(tuple.__new__, CheckInRecord)  # skips the Python-level __new__
_new_point = partial(tuple.__new__, GeoPoint)


# The planned columns: name, typecode, and what submit_checkin raises for a
# value of another type.
_PLANNED = (("t", "q", ValueError), ("user_id", "I", UnknownUser),
            ("venue_id", "I", UnknownVenue), ("lat", "d", ValueError), ("lon", "d", ValueError))


def _check_planned(world: "World", t: array, user_id: array, venue_id: array, lat: array,
                   lon: array, order: Sequence[int]) -> None:
    """Refuse planned columns holding a value ``submit_checkin`` refuses,
    with the class it raises, naming the first bad row. Each check is one
    pass over a column (the last one over ``order``) and builds no list."""
    columns = (t, user_id, venue_id, lat, lon)
    for column, (name, code, error) in zip(columns, _PLANNED):
        if not isinstance(column, array) or column.typecode != code:
            raise error(f"the {name} column must be an array of typecode {code!r}, got "
                        f"{getattr(column, 'typecode', type(column).__name__)!r}")
    if len({len(column) for column in columns}) > 1:
        raise ValueError(f"planned columns differ in length: {[len(c) for c in columns]}")
    for column, count, what, error in ((user_id, len(world.users), "user", UnknownUser),
                                       (venue_id, len(world.venues), "venue", UnknownVenue)):
        if column and (0 in column or max(column) > count):  # 'I' holds no negative id
            i = next(i for i, v in enumerate(column) if not 1 <= v <= count)
            raise error(f"row {i}: {what} {column[i]} is not registered")
    for column, bound, what in ((lat, 90.0, "latitude"), (lon, 180.0, "longitude")):
        # NaN fails every comparison, so it neither raises nor lowers these
        if max(chain((-bound,), column)) > bound or min(chain((bound,), column)) < -bound:
            i = next(i for i, v in enumerate(column) if v > bound or v < -bound)
            raise ValueError(f"row {i}: {what} {column[i]} outside [{-bound:g}, {bound:g}]")
    if any(map(gt, map(isnan, lon), map(isnan, lat))):
        i = next(i for i, v in enumerate(lon) if isnan(v) and not isnan(lat[i]))
        raise ValueError(f"row {i}: longitude nan with latitude {lat[i]}")
    now, before = world.clock.now, None
    for i in order:  # an index with no row raises IndexError here
        row_t = t[i]
        if row_t < now:
            raise ClockRegression(f"row {i}: t={row_t} is before "
                                  + (f"simulation clock {now}" if before is None
                                     else f"t={now} of row {before}, submitted before it"))
        now, before = row_t, i


class World:
    """One simulated deployment of the service."""

    def __init__(self, rule_config: Optional[RuleConfig] = None,
                 badge_catalog: Iterable[BadgeSpec] = DEFAULT_BADGE_CATALOG,
                 seed: int = 0, strict_verify: bool = False) -> None:
        self.rule_config = rule_config or RuleConfig()
        self.rewards = RewardsEngine(badge_catalog)
        self.strict_verify = strict_verify
        self.run: Optional[dict] = None  # run.json's document; harness.build_world sets it
        self.clock = SimClock()
        self.rng = random.Random(seed)
        self.venues: list[Venue] = []
        self.users: list[UserProfile] = []
        self.events = CheckInLog()
        self.routers: dict[int, RouterRegistration] = {}
        self._rule_states: dict[int, UserRuleState] = {}
        self._outcome_of: dict[tuple, int] = {}  # (verdict flags, accepted) -> log outcome

    # -- registration --------------------------------------------------------

    def register_venue(self, name: str, location: GeoPoint, has_mayor_special: bool = False) -> int:
        venue_id = len(self.venues) + 1
        self.venues.append(Venue(venue_id, name, validate_point(location), has_mayor_special))
        return venue_id

    def register_user(self, home: GeoPoint, is_cheater: bool = False) -> int:
        user_id = len(self.users) + 1
        self.users.append(UserProfile(user_id, validate_point(home),
                                      is_cheater_ground_truth=is_cheater))
        return user_id

    def register_router(self, router: RouterRegistration) -> None:
        self.venue(router.venue_id)  # must refer to a known venue
        self.routers[router.venue_id] = router

    def venue(self, venue_id: int) -> Venue:
        if venue_id.__class__ is not int or not 1 <= venue_id <= len(self.venues):
            raise UnknownVenue(f"venue {venue_id!r} is not registered")
        return self.venues[venue_id - 1]

    def user(self, user_id: int) -> UserProfile:
        if user_id.__class__ is not int or not 1 <= user_id <= len(self.users):
            raise UnknownUser(f"user {user_id!r} is not registered")
        return self.users[user_id - 1]

    # -- check-in pipeline -----------------------------------------------------

    def submit_checkin(self, user_id: int, venue_id: int, reported_gps: GeoPoint, t: int,
                       true_gps: Optional[GeoPoint] = None) -> CheckInRecord:
        """Submit one check-in: evaluate rules, then apply counters and rewards.

        The rules receive only reported data. ``true_gps`` (defaulting to the
        reported position) exists for ground-truth bookkeeping and presence
        attestation only. Returns the row's record, its verdict with ``detail``.
        """
        user = self.user(user_id)
        venue = self.venue(venue_id)
        if true_gps is None or true_gps is reported_gps:
            true_gps = reported_gps = validate_point(reported_gps)
        else:
            reported_gps, true_gps = validate_point(reported_gps), validate_point(true_gps)
        self.clock.advance(t)
        attested = attest_checkin(venue_id, true_gps, self.routers) if self.routers else None
        verdict = self._submit(user, venue, reported_gps, attested, t)
        log = self.events
        return _new_record((t, user_id, venue_id, reported_gps, true_gps, verdict, attested,
                            log.outcomes[log.outcome[-1]][0]))

    def submit_planned(self, t: array, user_id: array, venue_id: array, lat: array, lon: array,
                       order: Sequence[int]) -> None:
        """Submit planned rows, given as columns, in ``order`` (row indexes).

        A row whose ``lat`` is NaN reports its venue's own ``location``
        object; a ground-truth cheater's true point is the home, anyone
        else's the reported point. The columns are checked once, before any
        state changes (see ``_check_planned``); the clock ends at the last row's ``t``.
        """
        _check_planned(self, t, user_id, venue_id, lat, lon, order)
        users, venues, submit, routers = self.users, self.venues, self._submit, self.routers
        i = None
        try:
            for i in order:
                user = users[user_id[i] - 1]
                venue = venues[venue_id[i] - 1]
                row_lat = lat[i]
                reported = venue.location if row_lat != row_lat else _new_point((row_lat, lon[i]))
                true = user.home if user.is_cheater_ground_truth else reported
                submit(user, venue, reported,
                       attest_checkin(venue.venue_id, true, routers) if routers else None, t[i])
        finally:
            if i is not None:  # the clock is never behind a row in the log
                self.clock.now = t[i]

    def _submit(self, user: UserProfile, venue: Venue, reported: GeoPoint,
                attested: Optional[bool], t: int) -> RuleVerdict:
        """The pipeline body for one row whose arguments are checked, whose
        ``t`` is not before any logged row's and whose presence attestation
        is made (None when the world has no router): rules, the log, the
        counters, rewards and the mayor. Returns the rules' verdict."""
        user_id, venue_id = user.user_id, venue.venue_id  # the world's own int objects
        state = self._rule_states.get(user_id)
        if state is None:
            state = self._rule_states[user_id] = UserRuleState()
        verdict = state.evaluate_next(venue_id, venue.location, reported, t, self.rule_config)
        accepted = verdict.valid and (not self.strict_verify or bool(attested))

        outcome = 0  # an accepted valid row, the common one
        if verdict is not VALID_VERDICT or not accepted:
            key = (verdict.flags, accepted)
            outcome = self._outcome_of.get(key)
            if outcome is None:
                # a valid verdict is VALID_VERDICT, here only on a row not accepted
                flags = verdict.flag_names() + [PRESENCE_UNVERIFIED] * verdict.valid
                outcome = self._outcome_of[key] = self.events.outcome_of(accepted, tuple(flags))
        self.events.append(t, user_id, venue_id, reported[0], reported[1], outcome)
        user.total_checkins += 1
        if accepted:
            visited = state.last_valid_t_by_venue  # the one record of who visited where
            if venue_id not in visited:
                venue.unique_visitors += 1
            state.record_valid(venue_id, venue.location, t)
            venue.total_checkins += 1
            recent = venue.recent_visitors
            if user_id in recent:
                recent.remove(user_id)
            recent.insert(0, user_id)
            del recent[RECENT_LIST_LEN:]
            _, _, mayor = self.rewards.on_valid_checkin(user, venue_id, t, len(visited))
            self._apply_mayor(venue, mayor)
        return verdict

    def _apply_mayor(self, venue: Venue, mayor: Optional[int]) -> None:
        old = venue.mayor_id
        if mayor == old:
            return
        if old is not None:
            self.users[old - 1].total_mayorships -= 1
        if mayor is not None:
            self.users[mayor - 1].total_mayorships += 1
        venue.mayor_id = mayor

    def mayor_of(self, venue_id: int, t: Optional[int] = None) -> Optional[int]:
        """Current mayor, recomputed lazily at time t (default: clock now)."""
        venue = self.venue(venue_id)
        mayor = self.rewards.recompute_mayor(venue_id, self.clock.now if t is None else t)
        self._apply_mayor(venue, mayor)
        return mayor

    # -- exports ---------------------------------------------------------------

    def export_public_profiles(self, destination: str | Path,
                               tables: PublicTables) -> dict[str, Path]:
        """Write the crawlable projection of ``tables``, this world's
        ``tables_from_world``: UserInfo, VenueInfo, RecentCheckin. Recent-visitor
        rows carry no timestamp, and nothing derived from ground truth is written.
        """
        return write_tables(tables, destination)

    def export_events(self, path: str | Path) -> Path:
        """Write the append-only event log as JSON lines."""
        return write_events(self.events, path)

    # -- snapshots ---------------------------------------------------------------

    def save_state(self, path: str | Path) -> Path:
        """Persist the full world (including RNG and clock) with a checksum."""
        import hashlib  # only snapshots and fingerprint() pay for these imports
        import pickle
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = pickle.dumps(self, protocol=pickle.HIGHEST_PROTOCOL)
        header = json.dumps({"format": _SNAPSHOT_FORMAT, "version": _SNAPSHOT_VERSION,
                             "payload_bytes": len(payload),
                             "sha256": hashlib.sha256(payload).hexdigest()}, sort_keys=True)
        with open(path, "wb") as fh:
            fh.writelines((header.encode("utf-8"), b"\n", payload))
        return path

    @staticmethod
    def load_state(path: str | Path) -> "World":
        import hashlib
        import pickle
        file_name = Path(path).name
        with open(path, "rb") as fh:
            header_line = fh.readline()
            payload = fh.read()
        try:  # a byte that is not UTF-8 decodes to U+FFFD, which the header check refuses
            header = json_object(f"{file_name}: unreadable snapshot header",
                                 header_line.decode("utf-8", "replace"))
        except ValueError as exc:
            raise CorruptSnapshot(str(exc)) from exc
        if header.get("format") != _SNAPSHOT_FORMAT or header.get("version") != _SNAPSHOT_VERSION:
            raise CorruptSnapshot(f"{file_name}: unsupported snapshot header: {header}")
        if len(payload) != header.get("payload_bytes"):
            raise CorruptSnapshot(f"{file_name}: truncated snapshot: expected "
                                  f"{header.get('payload_bytes')} bytes, got {len(payload)}")
        if hashlib.sha256(payload).hexdigest() != header.get("sha256"):
            raise CorruptSnapshot(f"{file_name}: snapshot checksum mismatch")

        class WorldUnpickler(pickle.Unpickler):
            def find_class(self, module, name):
                if (module, name) not in _SNAPSHOT_GLOBALS:
                    raise CorruptSnapshot(f"{file_name}: snapshot payload references "
                                          f"{module}.{name}, which no saved world holds")
                return super().find_class(module, name)

        world = WorldUnpickler(io.BytesIO(payload)).load()
        if not isinstance(world, World):
            raise CorruptSnapshot(f"{file_name}: snapshot payload is not a world")
        return world

    # -- integrity helpers ----------------------------------------------------------

    def fingerprint(self) -> str:
        """Stable digest of all observable state; equal worlds hash equal.

        It reads the rewards engine too: per user, each unearned window
        badge's times, and per venue, the ``MayorState`` incumbent and each
        user's stamps, leaving out what a prune as of ``clock.now`` drops."""
        import hashlib
        h = hashlib.sha256()

        def feed(obj) -> None:
            h.update(repr(obj).encode("utf-8"))

        feed(("clock", self.clock.now))
        feed(("rng", self.rng.getstate()))
        feed(("config", dump(self.rule_config), self.strict_verify, self.run))
        # The rewards engine, canonically: only what is still inside a window
        # as of the clock, so a lazy prune (a mayor_of read) changes nothing.
        now, rewards = self.clock.now, self.rewards
        window_badges = [(spec.badge_id, now - spec.window_days * DAY_S)
                         for spec in rewards.catalog if spec.window_days is not None]
        for u in self.users:
            windows = rewards._windows.get(u.user_id, {})
            feed((u.user_id, u.home, u.total_checkins, u.points, sorted(u.badges),
                  u.total_mayorships, u.is_cheater_ground_truth,
                  [[t for t in windows.get(badge_id, ()) if t > start]
                   for badge_id, start in window_badges if badge_id not in u.badges]))
        mayor_start = now - MAYOR_WINDOW_DAYS * DAY_S
        for v in self.venues:
            state = rewards._mayors.get(v.venue_id)
            stamps = [] if state is None else [
                (uid, kept) for uid, days in sorted(state.days.items())
                if (kept := [t for t in days if t > mayor_start])]
            feed((v.venue_id, v.name, v.location, v.has_mayor_special, v.total_checkins,
                  v.unique_visitors, v.mayor_id, v.recent_visitors,
                  None if state is None else state.mayor_id, stamps))
        feed(("log", self.events.outcomes))
        for column in self.events.columns:
            h.update(column)
        for uid in sorted(self._rule_states):
            s = self._rule_states[uid]
            feed((uid, sorted(s.last_valid_t_by_venue.items()), s.last_valid, list(s.recent)))
        for vid, router in sorted(self.routers.items()):
            feed((vid, router))
        return h.hexdigest()

    def valid_count(self) -> int:
        outcomes = self.events.outcomes
        return sum(n for i, n in Counter(self.events.outcome).items() if outcomes[i][0])

    def invalid_by_flag(self) -> dict[str, int]:
        outcomes = self.events.outcomes
        counts: Counter[str] = Counter()
        for i, n in Counter(self.events.outcome).items():  # outcomes in order of first use
            valid, flags = outcomes[i]
            if not valid:
                counts.update(dict.fromkeys(flags, n))
        return dict(counts)
