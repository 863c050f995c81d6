"""Authoritative simulated-service state.

Holds venues, users and the append-only check-in log, and runs every
submission through the anticheat -> attestation -> rewards pipeline. All
mutation flows through a single logical submission sequence; exports and
analytics read immutable projections.

The log (``CheckInLog``, ``World.events``) keeps one value per row in each
of its ``array`` columns and no object per row: ``t``, ``user_id``,
``venue_id``, reported and true ``lat``/``lon``, ``kind`` (an index into a
small table of flags and whether each reported coordinate is an int),
``attested`` (-1 when no router was asked, else 0 or 1) and ``accepted``. A
rejected verdict's ``detail`` is not kept; ``offline_verdicts`` recomputes it.
"""

from __future__ import annotations

import io
import json
import random
from array import array
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import partial
from itertools import compress
from operator import not_
from pathlib import Path
from typing import Iterable, NamedTuple, Optional

from .anticheat import VALID_VERDICT, RuleConfig, RuleVerdict, UserRuleState
from .config import dump
from .geo import GeoPoint, validate_point
from .rewards import BadgeSpec, DEFAULT_BADGE_CATALOG, RewardsEngine
from .tables import PublicTables, write_events, write_tables
from .verify import RouterRegistration, attest_checkin

# Flag string used in exports for check-ins rejected by strict presence
# verification; not part of the anticheat rule set.
PRESENCE_UNVERIFIED = "PresenceUnverified"

_SNAPSHOT_FORMAT = "checkinsim-snapshot"
_SNAPSHOT_VERSION = 6
# Every global a saved world references; load_state refuses any other, so a
# crafted payload cannot call into the rest of the interpreter.
_SNAPSHOT_GLOBALS = frozenset(
    [("checkinsim.world", name)
     for name in ("World", "SimClock", "Venue", "UserProfile", "CheckInLog")]
    + [("checkinsim.anticheat", name)
       for name in ("RuleConfig", "RuleVerdict", "Flag", "UserRuleState")]
    + [("checkinsim.rewards", name)
       for name in ("RewardsEngine", "MayorState", "_BadgeProgress", "BadgeSpec", "BadgeKind")]
    + [("checkinsim.geo", "GeoPoint"), ("checkinsim.verify", "RouterRegistration"),
       ("array", "array"), ("array", "_array_reconstructor"), ("collections", "deque"),
       ("random", "Random")])
_T_END = 1 << 63  # the log's t column is a signed 64-bit integer
RECENT_LIST_LEN = 10  # a venue's public recent-visitor list, most recent first


class UnknownUser(Exception):
    pass


class UnknownVenue(Exception):
    pass


class ClockRegression(Exception):
    """Submission timestamp earlier than the simulation clock."""


class CorruptSnapshot(Exception):
    """Snapshot file is truncated, malformed, or fails its checksum."""


@dataclass(slots=True)
class SimClock:
    now: int = 0

    def advance(self, t: int) -> None:
        if t.__class__ is not int or t >= _T_END:
            raise ValueError(f"t={t!r} is not an integer below 2**63")
        if t < self.now:
            raise ClockRegression(f"t={t} is before simulation clock {self.now}")
        self.now = t


@dataclass(slots=True)
class Venue:
    venue_id: int
    name: str
    location: GeoPoint
    has_mayor_special: bool = False
    total_checkins: int = 0
    mayor_id: Optional[int] = None
    recent_visitors: list[int] = field(default_factory=list)
    visitor_ids: set[int] = field(default_factory=set)


@dataclass(slots=True)
class UserProfile:
    user_id: int
    home: GeoPoint
    total_checkins: int = 0
    points: int = 0
    badges: set[str] = field(default_factory=set)
    total_mayorships: int = 0
    is_cheater_ground_truth: bool = False


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
_ATTESTED = (False, True, None)  # by the attested column's value: 0, 1 or -1


class CheckInLog(Sequence):
    """The check-in log's columns (see the module doc). ``kinds`` holds each
    row kind, (verdict, reported lat is an int, reported lon is an int), in
    order of first use. As a sequence the log is read-only: item ``i`` is
    row ``i``'s ``CheckInRecord``, built when asked for."""

    def __init__(self) -> None:
        self.columns = tuple(map(array, "qIIddddBbB"))
        (self.t, self.user_id, self.venue_id, self.reported_lat, self.reported_lon,
         self.true_lat, self.true_lon, self.kind, self.attested, self.accepted) = self.columns
        self.kinds: list[tuple[RuleVerdict, bool, bool]] = [(VALID_VERDICT, False, False)]
        self._kind_of: dict[tuple, int] = {((), False, False): 0}

    def append(self, record: CheckInRecord) -> None:
        """Add a record, one value per column; a value no column holds raises and adds nothing."""
        t, user_id, venue_id, (lat, lon), true_gps, verdict, attested, accepted = record
        kind = 0  # a valid verdict and float coordinates, the common row
        if verdict.flags or lat.__class__ is not float or lon.__class__ is not float:
            key = (verdict.flags, lat.__class__ is int, lon.__class__ is int)
            kind = self._kind_of.get(key)
            if kind is None:
                kind = self._kind_of[key] = len(self.kinds)
                self.kinds.append((RuleVerdict(verdict.valid, verdict.flags), *key[1:]))
        try:
            self.t.append(t)
            self.user_id.append(user_id)
            self.venue_id.append(venue_id)
            self.reported_lat.append(lat)
            self.reported_lon.append(lon)
            self.true_lat.append(true_gps[0])
            self.true_lon.append(true_gps[1])
            self.kind.append(kind)
            self.attested.append(-1 if attested is None else attested)
            self.accepted.append(accepted)
        except (TypeError, OverflowError):
            for column in self.columns:  # the last column holds the rows before this one
                del column[len(self.accepted):]
            raise

    def export_flags(self, kind: int, accepted: bool) -> list[str]:
        """The events.jsonl flags of a row of this kind."""
        verdict = self.kinds[kind][0]
        return verdict.flag_names() + [PRESENCE_UNVERIFIED] * (verdict.valid and not accepted)

    def __len__(self) -> int:
        return len(self.t)

    def __getitem__(self, i: int) -> CheckInRecord:
        verdict, lat_is_int, lon_is_int = self.kinds[self.kind[i]]
        lat, lon = self.reported_lat[i], self.reported_lon[i]
        reported = GeoPoint(int(lat) if lat_is_int else lat, int(lon) if lon_is_int else lon)
        return _new_record((self.t[i], self.user_id[i], self.venue_id[i], reported,
                            GeoPoint(self.true_lat[i], self.true_lon[i]), verdict,
                            _ATTESTED[self.attested[i]], self.accepted[i] == 1))


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

    # -- registration --------------------------------------------------------

    def register_venue(self, name: str, location: GeoPoint, has_mayor_special: bool = False) -> int:
        validate_point(location)
        venue_id = len(self.venues) + 1
        self.venues.append(Venue(venue_id, name, GeoPoint(*location), has_mayor_special))
        return venue_id

    def register_user(self, home: GeoPoint, is_cheater: bool = False) -> int:
        validate_point(home)
        user_id = len(self.users) + 1
        self.users.append(UserProfile(user_id, GeoPoint(*home), is_cheater_ground_truth=is_cheater))
        return user_id

    def register_router(self, router: RouterRegistration) -> None:
        self.venue(router.venue_id)  # must refer to a known venue
        self.routers[router.venue_id] = router

    def venue(self, venue_id: int) -> Venue:
        if not 1 <= venue_id <= len(self.venues):
            raise UnknownVenue(f"venue {venue_id} is not registered")
        return self.venues[venue_id - 1]

    def user(self, user_id: int) -> UserProfile:
        if not 1 <= user_id <= len(self.users):
            raise UnknownUser(f"user {user_id} is not registered")
        return self.users[user_id - 1]

    # -- check-in pipeline -----------------------------------------------------

    def submit_checkin(self, user_id: int, venue_id: int, reported_gps: GeoPoint, t: int,
                       true_gps: Optional[GeoPoint] = None) -> CheckInRecord:
        """Submit one check-in: evaluate rules, then apply counters and rewards.

        The rules receive only reported data. ``true_gps`` (defaulting to the
        reported position) exists for ground-truth bookkeeping and presence
        attestation only.
        """
        user = self.user(user_id)
        venue = self.venue(venue_id)
        validate_point(reported_gps)
        if true_gps is None:
            true_gps = reported_gps
        elif true_gps is not reported_gps:
            validate_point(true_gps)
        self.clock.advance(t)

        state = self._rule_states.get(user_id)
        if state is None:
            state = UserRuleState()
            self._rule_states[user_id] = state
        verdict = state.evaluate_next(venue_id, venue.location, reported_gps, t, self.rule_config)

        attested: Optional[bool] = None
        if self.routers:
            attested = attest_checkin(venue_id, true_gps, self.routers)
        accepted = verdict.valid and (not self.strict_verify or bool(attested))

        record = _new_record((t, user_id, venue_id, reported_gps, true_gps, verdict, attested,
                              accepted))
        self.events.append(record)
        user.total_checkins += 1
        if accepted:
            state.record_valid(venue_id, venue.location, t)
            venue.total_checkins += 1
            venue.visitor_ids.add(user_id)
            recent = venue.recent_visitors
            if user_id in recent:
                recent.remove(user_id)
            recent.insert(0, user_id)
            del recent[RECENT_LIST_LEN:]
            _, _, mayor = self.rewards.on_valid_checkin(user, venue_id, t)
            self._apply_mayor(venue, mayor)
        return record

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
        with open(path, "rb") as fh:
            header_line = fh.readline()
            payload = fh.read()
        try:
            header = json.loads(header_line.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CorruptSnapshot(f"unreadable snapshot header: {exc}") from exc
        if header.get("format") != _SNAPSHOT_FORMAT or header.get("version") != _SNAPSHOT_VERSION:
            raise CorruptSnapshot(f"unsupported snapshot header: {header}")
        if len(payload) != header.get("payload_bytes"):
            raise CorruptSnapshot(f"truncated snapshot: expected {header.get('payload_bytes')} "
                                  f"bytes, got {len(payload)}")
        if hashlib.sha256(payload).hexdigest() != header.get("sha256"):
            raise CorruptSnapshot("snapshot checksum mismatch")

        class WorldUnpickler(pickle.Unpickler):
            def find_class(self, module, name):
                if (module, name) not in _SNAPSHOT_GLOBALS:
                    raise CorruptSnapshot(f"snapshot payload references {module}.{name}, "
                                          f"which no saved world holds")
                return super().find_class(module, name)

        world = WorldUnpickler(io.BytesIO(payload)).load()
        if not isinstance(world, World):
            raise CorruptSnapshot("snapshot payload is not a world")
        return world

    # -- integrity helpers ----------------------------------------------------------

    def fingerprint(self) -> str:
        """Stable digest of all observable state; equal worlds hash equal."""
        import hashlib
        h = hashlib.sha256()

        def feed(obj) -> None:
            h.update(repr(obj).encode("utf-8"))

        feed(("clock", self.clock.now))
        feed(("rng", self.rng.getstate()))
        feed(("config", dump(self.rule_config), self.strict_verify, self.run))
        for u in self.users:
            feed((u.user_id, u.home, u.total_checkins, u.points, sorted(u.badges),
                  u.total_mayorships, u.is_cheater_ground_truth))
        for v in self.venues:
            feed((v.venue_id, v.name, v.location, v.has_mayor_special, v.total_checkins,
                  len(v.visitor_ids), v.mayor_id, v.recent_visitors))
        feed(("log", self.events.kinds))
        for column in self.events.columns:
            h.update(column)
        for uid in sorted(self._rule_states):
            s = self._rule_states[uid]
            feed((uid, sorted(s.last_valid_t_by_venue.items()), s.last_valid, list(s.recent)))
        for vid, router in sorted(self.routers.items()):
            feed((vid, router))
        return h.hexdigest()

    def valid_count(self) -> int:
        return self.events.accepted.count(1)

    def invalid_by_flag(self) -> dict[str, int]:
        log = self.events
        counts: Counter[str] = Counter()
        for kind, n in Counter(compress(log.kind, map(not_, log.accepted))).items():
            counts.update(dict.fromkeys(log.export_flags(kind, False), n))
        return dict(counts)
