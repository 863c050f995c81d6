"""Authoritative simulated-service state.

Holds venues, users and the append-only check-in log, and runs every
submission through the anticheat -> attestation -> rewards pipeline. All
mutation flows through the submissions, and ends as if they had gone in one
at a time in log order; exports and analytics read immutable projections.

The log (``World.events``) is a ``tables.CheckInLog``. A row's true point,
attestation and verdict ``detail`` are not kept in it: ``submit_checkin``
returns them in the row's ``CheckInRecord``.

The pipeline body has two halves with no argument checks of their own,
each over a run of rows: the user half (``World._user_half``: the rules,
attestation, the user's counts, points and badges) takes one user's rows in
time order, and the venue half (``World._venue_half``: the venue's counts,
recent list and mayor) one venue's accepted rows in log order. Neither
reads what the other writes, so rows may go in per user and then per venue.
There are two doors: ``submit_checkin`` checks one row's arguments, runs it
through both halves as a run of one and returns its ``CheckInRecord``, and
``submit_planned`` checks planned ``array`` columns once
(``_check_planned``), before any state changes, raising what
``submit_checkin`` raises for the first bad value, and submits the rows to
the log in one stable sort by ``t``, by three passes. A venue's mayor is
recomputed only at a valid check-in there.
"""

from __future__ import annotations

import io
import json
import random
from array import array
from collections import Counter
from functools import partial
from itertools import chain, compress, groupby, islice
from math import isnan
from operator import gt
from pathlib import Path
from typing import Iterable, NamedTuple, Optional, Sequence

from .anticheat import VALID_VERDICT, RuleConfig, RuleVerdict, UserRuleState
from .config import dump
from .geo import GeoPoint, validate_point
from .rewards import BadgeSpec, DEFAULT_BADGE_CATALOG, RewardsEngine
from .tables import (T_END, CheckInLog, PublicTables, UnknownUser, UnknownVenue, json_object,
                     write_events, write_tables)
from .verify import RouterRegistration, attest_checkin

# Flag string used in exports for check-ins rejected by strict presence
# verification; not part of the anticheat rule set.
PRESENCE_UNVERIFIED = "PresenceUnverified"


def logged_outcome(flags: tuple, accepted: bool) -> tuple[bool, tuple[str, ...]]:
    """The (valid, flags) a world logs for a row whose rules fired ``flags``
    and which ``accepted`` says went in: the rule flags when any fired,
    otherwise none, or PresenceUnverified for a row strict verification refused."""
    if flags:
        return False, tuple(f.value for f in flags)
    return (True, ()) if accepted else (False, (PRESENCE_UNVERIFIED,))


_SNAPSHOT_FORMAT = "checkinsim-snapshot"
_SNAPSHOT_VERSION = 12  # 12: badges in catalog order, pickled in the same order
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
_NAN = float("nan")
_ACCEPTED = bytes((1, 1)) + bytes(254)  # a row's mark -> 1 when it was accepted


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
        self.badges: tuple[str, ...] = ()  # in catalog order, one shared empty tuple at first


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
                   lon: array) -> None:
    """Refuse planned columns holding a value ``submit_checkin`` refuses,
    with the class it raises, naming the first bad row. Each check is one
    pass over a column and builds no list."""
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
    now = world.clock.now
    if min(t, default=now) < now:
        i = t.index(min(t))  # the first row submitted
        raise ClockRegression(f"row {i}: t={t[i]} is before simulation clock {now}")


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
        self._rejected_keys: dict[tuple, int] = {}  # a rejected row's rule flags -> its key

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
        It is a run of one through both halves of the pipeline.
        """
        user = self.user(user_id)
        venue = self.venue(venue_id)
        if true_gps is None or true_gps is reported_gps:
            true_gps = reported_gps = validate_point(reported_gps)
            true = None
        else:
            reported_gps = validate_point(reported_gps)
            true = true_gps = validate_point(true_gps)
        self.clock.advance(t)
        row, times, venue_ids, user_ids = (0,), (t,), (venue.venue_id,), (user.user_id,)
        # the row as a planned one: a NaN lat reports the venue's own point
        lat, lon = (([_NAN], [_NAN]) if reported_gps is venue.location
                    else ([reported_gps[0]], [reported_gps[1]]))
        marks = bytearray(1)
        verdict, attested = self._user_half(user, row, times, venue_ids, lat, lon, true, marks)
        self._log_rows(row, times, user_ids, venue_ids, lat, lon, marks)
        accepted = marks[0] < 2
        if accepted:
            self._venue_half(venue, user_ids, times, marks[0])
        return _new_record((t, user_id, venue_id, reported_gps, true_gps, verdict, attested,
                            accepted))

    def submit_planned(self, t: array, user_id: array, venue_id: array, lat: array,
                       lon: array) -> None:
        """Submit planned rows, given as columns, to the log sorted by ``t``
        with ties in row order.

        A row whose ``lat`` is NaN reports its venue's own ``location``
        object; a ground-truth cheater's true point is the home, anyone
        else's the reported point. The columns are checked once, before any
        state changes (see ``_check_planned``); the clock ends at the latest
        row's ``t``. The world ends as if each row had gone through
        ``submit_checkin`` in log order, by three passes:

        1. the user half (``_user_half``) per user, over the user's rows in
           log order, marking each row;
        2. the log, one column at a time (``_log_rows``);
        3. the venue half (``_venue_half``) per venue, over the venue's
           accepted rows in log order.

        Past the checks only a bug or a ``MemoryError`` can raise. That
        leaves the clock at the latest row's ``t``, and the world part-way:
        some users' rule state, counts and rewards, perhaps the log, and
        some venues' counts and mayors hold the plan's rows. Discard it.
        """
        _check_planned(self, t, user_id, venue_id, lat, lon)
        if not t:
            return
        self.clock.now = max(t)
        n = len(t)
        order = array("I", sorted(range(n), key=t.__getitem__))
        lat, lon = array("d", lat), array("d", lon)  # pass 1 writes the venue points in
        marks = bytearray(n)
        users, venues, t_of = self.users, self.venues, t.__getitem__
        by_user = array("I", sorted(range(n), key=user_id.__getitem__))
        for uid, rows in groupby(by_user, user_id.__getitem__):
            user = users[uid - 1]
            self._user_half(user, sorted(rows, key=t_of), t, venue_id, lat, lon,
                            user.home if user.is_cheater_ground_truth else None, marks)
        del by_user
        in_log = self._log_rows(order, t, user_id, venue_id, lat, lon, marks)
        del lat, lon
        ids = [0, *(user.user_id for user in users)]  # the world's own id objects
        by_venue = array("I", sorted(compress(order, in_log.translate(_ACCEPTED)),
                                     key=venue_id.__getitem__))
        for vid, rows in groupby(by_venue, venue_id.__getitem__):
            rows = list(rows)
            user_ids = list(map(ids.__getitem__, map(user_id.__getitem__, rows)))
            self._venue_half(venues[vid - 1], user_ids, list(map(t_of, rows)),
                             sum(map(marks.__getitem__, rows)))

    def _user_half(self, user: UserProfile, rows: Sequence[int], t, venue_id, lat, lon,
                   true: Optional[GeoPoint],
                   marks: bytearray) -> tuple[RuleVerdict, Optional[bool]]:
        """The user half of the pipeline, over ``rows`` of one user in time
        order: indexes into columns as ``submit_planned`` takes them, with a
        NaN ``lat`` for the venue's own point, which is written into ``lat``
        and ``lon``. Per row: the rules, then presence attestation of
        ``true`` (the reported point when None; none without a router). Then
        ``total_checkins``, and the points and badges of the accepted rows.

        Marks each row: 0 or 1 when accepted (1: the user's first accepted
        row at that venue), else twice the key of its rule flags in
        ``_rejected_keys``. Returns the last row's verdict and attestation.
        """
        user_id = user.user_id  # the world's own int objects key the state
        state = self._rule_states.get(user_id)
        if state is None:
            state = self._rule_states[user_id] = UserRuleState()
        visited = state.last_valid_t_by_venue  # the one record of who visited where
        venues, routers, config = self.venues, self.routers, self.rule_config
        keys, strict = self._rejected_keys, self.strict_verify
        evaluate, record = state.evaluate_next, state.record_valid
        accepted: list[int] = []
        verdict = attested = None
        for i in rows:
            row_t = t[i]
            venue = venues[venue_id[i] - 1]
            vid, location = venue.venue_id, venue.location
            row_lat = lat[i]
            if row_lat != row_lat:
                reported = location
                lat[i], lon[i] = location
            else:
                reported = _new_point((row_lat, lon[i]))
            if routers:
                attested = attest_checkin(vid, reported if true is None else true, routers)
            verdict = evaluate(vid, location, reported, row_t, config)
            if verdict is VALID_VERDICT and (attested or not strict):
                marks[i] = vid not in visited
                record(vid, location, row_t)
                accepted.append(row_t)
            else:
                key = keys.get(verdict.flags)
                if key is None:
                    key = keys[verdict.flags] = len(keys) + 1
                marks[i] = key << 1
        user.total_checkins += len(rows)
        if accepted:
            self.rewards.on_valid_checkin(user, accepted, len(visited))
        return verdict, attested

    def _log_rows(self, order, t, user_id, venue_id, lat, lon, marks: bytearray) -> bytes:
        """Append the rows ``order`` names, in that order, to the log, each
        with the outcome its mark (see ``_user_half``) stands for; a new
        outcome is numbered by its first use in log order. Returns the marks
        in log order."""
        log = self.events
        in_log = bytes(map(marks.__getitem__, order))
        outcome_of = bytearray(256)  # mark -> log outcome; an accepted row's is 0
        for first, key, flags in sorted((in_log.find(key << 1), key, flags)
                                        for flags, key in self._rejected_keys.items()):
            if first >= 0:
                outcome_of[key << 1] = log.outcome_of(*logged_outcome(flags, False))
        for column, source in zip(log.columns, (t, user_id, venue_id, lat, lon)):
            column.extend(map(source.__getitem__, order))
        log.outcome.extend(in_log.translate(outcome_of))
        return in_log

    def _venue_half(self, venue: Venue, user_ids: Sequence[int], times: Sequence[int],
                    new_visitors: int) -> None:
        """The venue half of the pipeline, over a run of accepted rows at
        ``venue`` in log order, by ``user_ids`` at ``times``, ``new_visitors``
        of them a user's first there: the counters, the recent list (the
        latest distinct users, most recent first) and the mayor."""
        venue.total_checkins += len(user_ids)
        venue.unique_visitors += new_visitors
        venue.recent_visitors = list(islice(dict.fromkeys(
            chain(reversed(user_ids), venue.recent_visitors)), RECENT_LIST_LEN))
        old = venue.mayor_id
        mayor = self.rewards.recompute_mayor(venue.venue_id, user_ids, times)
        if mayor != old:
            if old is not None:
                self.users[old - 1].total_mayorships -= 1
            self.users[mayor - 1].total_mayorships += 1
            venue.mayor_id = mayor

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

        It reads the rewards engine too, as held: per user, each unearned
        window badge's times, and per venue, the ``MayorState`` incumbent and
        each user's stamps."""
        import hashlib
        h = hashlib.sha256()

        def feed(obj) -> None:
            h.update(repr(obj).encode("utf-8"))

        feed(("clock", self.clock.now))
        feed(("rng", self.rng.getstate()))
        feed(("config", dump(self.rule_config), self.strict_verify, self.run))
        rewards = self.rewards
        for u in self.users:
            feed((u.user_id, u.home, u.total_checkins, u.points, sorted(u.badges),
                  u.total_mayorships, u.is_cheater_ground_truth, rewards._windows.get(u.user_id)))
        for v in self.venues:
            state = rewards._mayors.get(v.venue_id)
            feed((v.venue_id, v.name, v.location, v.has_mayor_special, v.total_checkins,
                  v.unique_visitors, v.mayor_id, v.recent_visitors,
                  None if state is None else (state.mayor_id, sorted(state.days.items()))))
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
