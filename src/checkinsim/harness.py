"""Population generator, scenario runner, and experiment plumbing.

Generates seeded synthetic worlds (clustered venues, home-anchored honest
users, cheater overlays), runs scripted attacks, exports every public
artifact, and feeds the exports back through the offline detectors. A
(config, seed) pair fully determines every output byte.

Planning draws every random number and keeps no object per check-in: each
planned row is one value in each of the ``array`` columns ``t``, ``user_id``,
``venue_id`` and reported ``lat``/``lon``, where NaN marks a row that
reports its venue's own point and is submitted with the venue's
``location`` object itself. No true point is planned: it is the home for a
cheater and the reported point for anyone else. Rows are submitted in one
sort by (t, user_id) that keeps planning order among ties, through
``World.submit_planned``, which checks the columns once, not once per row.
"""

from __future__ import annotations

import contextlib
import gc
import json
import math
from array import array
from itertools import repeat
from pathlib import Path
from typing import Literal, NamedTuple, Optional, Sequence, Union

from . import __version__, analytics
from .anticheat import RuleConfig
from .attacker import (START_DELAY_S, TOUR_STEP_DEG, BBox, TargetCriteria, build_schedule, execute,
                       plan_mayor_denial, plan_tour, select_targets)
from .config import InvalidConfig, Section, dump, load, ranged
from .geo import GeoPoint, METERS_PER_DEG
from .rewards import BadgeSpec, DAY_S, DEFAULT_BADGE_CATALOG, RewardsEngine
from .spatial import VenueGridIndex
from .tables import T_END, PublicTables, tables_from_world
from .tables import load_events, load_tables  # unused; perfbench/spans.py wraps these names here
from .verify import RouterRegistration
from .world import World

DEFAULT_REGION = BBox(32.0, -120.0, 45.0, -75.0)
RUN_FILE = "run.json"  # the resolved scenario beside a run's exports

_CHAINS = (
    "Starbucks", "Bean Scene", "Burger Barn", "Noodle House", "Corner Mart",
    "City Gym", "Book Nook", "Pizza Palace", "Taco Stand", "Cinema Plaza",
)

_TIER_ZERO, _TIER_LOW, _TIER_MID, _TIER_HEAVY = range(4)
_POOL_SIZE = 12  # an honest user's venue pool: the venues nearest home, within its radius
_VENUE_POINT = math.nan  # a planned row's lat/lon when it reports its venue's own point


class PopulationConfig(Section):
    n_users: int = ranged(ge=0)
    n_venues: int = ranged(ge=1)
    seed: int = 0
    # Activity mixture: share of users with zero, 1-5, mid-range, and >= 1000
    # lifetime check-ins.
    zero_frac: float = ranged(0.363, ge=0, le=1)
    low_frac: float = ranged(0.204, ge=0, le=1)
    mid_frac: float = ranged(0.431, ge=0, le=1)
    heavy_frac: float = ranged(0.002, ge=0, le=1)
    cheater_fraction: float = ranged(0.0, ge=0, le=1)
    cheater_strategy: Literal["naive_teleport", "scheduled_evader"] = "naive_teleport"
    mayor_special_fraction: float = ranged(0.10, ge=0, le=1)
    region: BBox = DEFAULT_REGION
    # at most ~2,700 years, so every planned time stays exact in a float and far below 2**63
    duration_days: int = ranged(180, ge=1, le=1_000_000)
    venues_per_city: int = ranged(40, ge=1)
    city_sigma_m: float = ranged(1000.0, ge=0)
    home_radius_m: float = ranged(1000.0, ge=0)
    venue_pool_radius_m: float = ranged(2500.0, ge=0)
    gps_noise_m: float = ranged(10.0, ge=0)
    # Each (low, high) pair bounds a uniform or power-law draw.
    low_range: tuple[int, int] = ranged((1, 5), ge=0)
    mid_range: tuple[int, int] = ranged((6, 999), ge=1)
    heavy_range: tuple[int, int] = ranged((1000, 1800), ge=0)
    mid_alpha: float = ranged(2.5, gt=1)
    cheater_checkins: tuple[int, int] = ranged((30, 90), ge=0)
    evader_venues: tuple[int, int] = ranged((12, 30), ge=1)

    def check(self) -> None:
        fracs = (self.zero_frac, self.low_frac, self.mid_frac, self.heavy_frac)
        if abs(sum(fracs) - 1.0) > 1e-9:
            raise InvalidConfig(f"activity fractions must sum to 1, got {list(fracs)}")
        if self.region.min_lat >= self.region.max_lat or self.region.min_lon >= self.region.max_lon:
            raise InvalidConfig(f"must have min < max, got {list(self.region)}", "region")
        for name in ("low_range", "mid_range", "heavy_range", "cheater_checkins", "evader_venues"):
            if getattr(self, name)[0] > getattr(self, name)[1]:
                raise InvalidConfig(f"must be [low, high], got {list(getattr(self, name))}", name)


class RouterEntry(Section):
    venue_id: int = ranged(ge=1)  # at most n_venues, which ScenarioConfig checks
    range_m: Optional[float] = ranged(None, gt=0)  # None: the routers' range_m


class Routers(Section):
    coverage: Literal["none", "full", "listed"] = "none"
    entries: tuple[RouterEntry, ...] = ()  # only under "listed" coverage
    range_m: float = ranged(100.0, gt=0)
    strict: bool = False


class _Attack(Section, kw_only=True):
    kind: str
    # ScenarioConfig requires a true_location; attack-plan plans without one.
    true_location: Optional[GeoPoint] = None
    start_delay_s: int = ranged(START_DELAY_S, ge=0)


class Tour(_Attack, kw_only=True):  # a virtual tour of `steps` venues from `start` or venue 1
    kind: Literal["tour"] = "tour"
    start: Optional[GeoPoint] = None
    steps: int = ranged(25, ge=1)
    step_deg: float = ranged(TOUR_STEP_DEG, gt=0)


class VacancySweep(_Attack, kw_only=True):  # check into the first `limit` venues that match
    kind: Literal["vacancy_sweep"] = "vacancy_sweep"
    require_mayor_special: bool = True
    require_vacant_mayor: bool = True
    name_filter: Optional[str] = None
    limit: int = ranged(100, ge=1)


class MayorDenial(_Attack, kw_only=True):  # check in wherever `victim` shows in the public tables
    kind: Literal["mayor_denial"] = "mayor_denial"
    victim: int = ranged(ge=1)


class ScenarioConfig(Section):
    population: PopulationConfig
    rules: RuleConfig = RuleConfig()
    badges: tuple[BadgeSpec, ...] = DEFAULT_BADGE_CATALOG
    routers: Routers = Routers()
    attacks: tuple[Union[Tour, VacancySweep, MayorDenial], ...] = ()
    detection: analytics.DetectionThresholds = analytics.DetectionThresholds()

    def check(self) -> None:
        RewardsEngine(self.badges)  # refuses a repeated badge id while the config loads
        n_users, n_venues = self.population.n_users, self.population.n_venues
        if self.routers.entries and self.routers.coverage != "listed":
            raise InvalidConfig(f'must be empty unless coverage is "listed", got coverage '
                                f'{self.routers.coverage!r}', "routers.entries")
        listed: set[int] = set()
        for i, entry in enumerate(self.routers.entries):
            path = f"routers.entries[{i}].venue_id"
            _at_most(entry.venue_id, n_venues, "n_venues", path)
            if entry.venue_id in listed:
                raise InvalidConfig(f"venue {entry.venue_id} is listed twice", path)
            listed.add(entry.venue_id)
        for i, attack in enumerate(self.attacks):
            if attack.true_location is None:
                raise InvalidConfig("is required", f"attacks[{i}].true_location")
            if isinstance(attack, Tour):
                _at_most(attack.steps, n_venues, "n_venues", f"attacks[{i}].steps")
            elif isinstance(attack, MayorDenial):  # a user generated or an earlier attacker
                _at_most(attack.victim, n_users + i, "the users before it", f"attacks[{i}].victim")

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioConfig":
        return load(cls, data)


def _at_most(value: int, most: int, what: str, path: str) -> None:
    if value > most:
        raise InvalidConfig(f"must be at most {what} ({most}), got {value}", path)


def load_scenario(path: str | Path) -> ScenarioConfig:
    """The scenario JSON document at ``path`` (see ``_read_scenario``)."""
    return _read_scenario(Path(path))


def _read_scenario(path: Path, key: str = "") -> ScenarioConfig:
    """The scenario a JSON document holds: the whole document or, given
    ``key``, the value under that key of the document's object. A file that
    cannot be read, is not UTF-8 JSON, or holds a refused value raises
    ``InvalidConfig`` starting ``<path>: ``."""
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
        if key:
            if not isinstance(data, dict):
                raise InvalidConfig(f"must be an object, got {data!r}")
            data = data.get(key)
        return load(ScenarioConfig, data, key)
    except OSError as exc:
        raise InvalidConfig(f"{path}: {exc.strerror or exc}") from None
    except (ValueError, RecursionError) as exc:  # InvalidConfig is a ValueError
        raise InvalidConfig(f"{path}: {exc}") from None


def largest_remainder(fractions: Sequence[float], n: int) -> list[int]:
    """Integer quotas for the fractions, summing exactly to n."""
    raw = [f * n for f in fractions]
    counts = [int(math.floor(x)) for x in raw]
    short = n - sum(counts)
    order = sorted(range(len(raw)), key=lambda i: (counts[i] - raw[i], i))
    for i in order[:short]:
        counts[i] += 1
    return counts


# ---------------------------------------------------------------------------
# population generation
# ---------------------------------------------------------------------------

def _register_venues(world: World, config: PopulationConfig) -> None:
    rng = world.rng
    region = config.region
    n_cities = max(1, config.n_venues // config.venues_per_city)
    sigma_deg = config.city_sigma_m / METERS_PER_DEG
    centers = [
        GeoPoint(rng.uniform(region.min_lat, region.max_lat),
                 rng.uniform(region.min_lon, region.max_lon))
        for _ in range(n_cities)
    ]
    for i in range(config.n_venues):
        center = centers[rng.randrange(n_cities)]
        lat = min(region.max_lat, max(region.min_lat, center.lat + rng.gauss(0.0, sigma_deg)))
        lon_sigma = sigma_deg / max(0.2, math.cos(math.radians(center.lat)))
        lon = min(region.max_lon, max(region.min_lon, center.lon + rng.gauss(0.0, lon_sigma)))
        name = f"{_CHAINS[rng.randrange(len(_CHAINS))]} #{i + 1}"
        world.register_venue(name, GeoPoint(lat, lon),
                             has_mayor_special=rng.random() < config.mayor_special_fraction)


def venue_index(world: World) -> VenueGridIndex:
    return VenueGridIndex((v.venue_id, v.location) for v in world.venues)


def _jitter(rng, p: GeoPoint, radius_m: float) -> GeoPoint:
    r = radius_m * math.sqrt(rng.random())
    theta = rng.uniform(0.0, 2.0 * math.pi)
    dlat = r * math.cos(theta) / METERS_PER_DEG
    dlon = r * math.sin(theta) / (METERS_PER_DEG * max(0.2, math.cos(math.radians(p.lat))))
    return GeoPoint(min(90.0, max(-90.0, p.lat + dlat)), min(180.0, max(-180.0, p.lon + dlon)))


def _sample_mid(rng, config: PopulationConfig) -> int:
    lo, hi = config.mid_range
    alpha = config.mid_alpha
    u = rng.random()
    tail = 1.0 - (lo / hi) ** (alpha - 1.0)
    x = lo * (1.0 - u * tail) ** (-1.0 / (alpha - 1.0))
    return min(hi, max(lo, int(x)))


class _Plan(NamedTuple):
    """Planned check-ins, one value per row in each column (see the module doc)."""
    t: array
    user_id: array
    venue_id: array
    lat: array
    lon: array


def _plan_rows(plan: _Plan, user_id: int, times: list, venue_ids: list,
               lats: Sequence[float] = (), lons: Sequence[float] = ()) -> None:
    """Add one user's rows; without ``lats``/``lons`` each reports its venue's point."""
    plan.t.extend(times)
    plan.user_id.extend(repeat(user_id, len(times)))
    plan.venue_id.extend(venue_ids)
    plan.lat.extend(lats or repeat(_VENUE_POINT, len(times)))
    plan.lon.extend(lons or repeat(_VENUE_POINT, len(times)))


def _honest_checkins(rng, user_id: int, count: int, pool, duration_s: float,
                     noise_m: float, cos_lat: float, plan: _Plan) -> None:
    if count == 0 or not pool:
        return
    t = rng.uniform(0.0, DAY_S)
    gap_mean = max(600.0, duration_s / count - 3600.0)
    n_pool = len(pool)
    lat_noise = noise_m / METERS_PER_DEG
    lon_noise = noise_m / (METERS_PER_DEG * cos_lat)
    times: list[int] = []
    venue_ids: list[int] = []
    lats: list[float] = []
    lons: list[float] = []
    for _ in range(count):
        venue_id, vloc = pool[rng.randrange(n_pool)]
        if noise_m > 0.0:
            # clamped, for venues at a pole or the antimeridian
            lats.append(min(90.0, max(-90.0, vloc.lat + rng.gauss(0.0, lat_noise))))
            lons.append(min(180.0, max(-180.0, vloc.lon + rng.gauss(0.0, lon_noise))))
        times.append(int(t))
        venue_ids.append(venue_id)
        t += 3600.0 + rng.expovariate(1.0 / gap_mean)
    _plan_rows(plan, user_id, times, venue_ids, lats, lons)


def _teleport_checkins(rng, user_id: int, config: PopulationConfig, venues,
                       plan: _Plan) -> None:
    count = rng.randint(*config.cheater_checkins)
    t = rng.uniform(0.0, DAY_S)
    n_venues = len(venues)
    times: list[int] = []
    venue_ids: list[int] = []
    for _ in range(count):
        venue_ids.append(venues[rng.randrange(n_venues)].venue_id)
        times.append(int(t))
        t += rng.uniform(60.0, 900.0)
    _plan_rows(plan, user_id, times, venue_ids)


def _evader_checkins(rng, user_id: int, config: PopulationConfig, venues,
                     plan: _Plan) -> None:
    m = min(rng.randint(*config.evader_venues), len(venues))
    chosen = rng.sample(range(len(venues)), m)
    seq = [(venues[i].venue_id, venues[i].location) for i in chosen]
    schedule = build_schedule(seq, start_time=int(rng.uniform(0.0, DAY_S)))
    _plan_rows(plan, user_id, [e.fire_time for e in schedule.entries],
               [e.venue_id for e in schedule.entries])


@contextlib.contextmanager
def gc_paused():
    """Run the block with the cyclic garbage collector off, then restore the
    caller's setting, also when the block raises.

    The submit loop grows the world's per-user and per-venue state (rule
    states, whose venue times are the one record of who visited where,
    badge-window lists, mayorship records, recent-visitor lists) to millions
    of containers at the acceptance size, and the collector re-scans them
    again and again while they grow. ``build_world`` (and so
    ``generate_population``), ``run_scenario`` and every CLI command run
    under it. Those phases make no reference cycle per row, so reference
    counting frees what they drop.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def generate_population(config: PopulationConfig) -> World:
    """Build a seeded world: venues, users, and their full check-in history."""
    return build_world(ScenarioConfig(population=config))[0]


def seeded(scenario: ScenarioConfig, seed: Optional[int]) -> ScenarioConfig:
    """The scenario with ``seed``, when given, as its population seed."""
    if seed is None:
        return scenario
    return scenario.replace(population=scenario.population.replace(seed=seed))


@gc_paused()
def build_world(scenario: ScenarioConfig) -> tuple[World, VenueGridIndex]:
    """Register venues, install routers, index venues and generate check-ins.

    Returns the world, carrying its ``run.json`` document, and its venue
    index, which attacks plan against.
    """
    population = scenario.population
    world = World(rule_config=scenario.rules, badge_catalog=scenario.badges,
                  seed=population.seed, strict_verify=scenario.routers.strict)
    world.run = {"version": __version__, "scenario": dump(scenario)}
    _register_venues(world, population)
    _install_routers(world, scenario.routers)
    index = venue_index(world)
    _submit_planned(world, _plan_checkins(world, population, index))
    return world, index


def _plan_checkins(world: World, config: PopulationConfig, index: VenueGridIndex) -> _Plan:
    """Register the users and plan their check-ins, drawing every random number."""
    rng = world.rng
    venues = world.venues
    duration_s = float(config.duration_days * DAY_S)

    tier_counts = largest_remainder(
        (config.zero_frac, config.low_frac, config.mid_frac, config.heavy_frac), config.n_users
    )
    tiers: list[int] = []
    for tier, count in enumerate(tier_counts):
        tiers.extend([tier] * count)
    rng.shuffle(tiers)

    n_cheaters = round(config.cheater_fraction * config.n_users)
    cheaters = set(rng.sample(range(1, config.n_users + 1), n_cheaters)) if n_cheaters else set()

    plan = _Plan(array("q"), array("I"), array("I"), array("d"), array("d"))
    for i in range(config.n_users):
        anchor = venues[rng.randrange(len(venues))].location
        home = _jitter(rng, anchor, config.home_radius_m)
        user_id = world.register_user(home, is_cheater=(i + 1) in cheaters)

        if user_id in cheaters:
            if config.cheater_strategy == "naive_teleport":
                _teleport_checkins(rng, user_id, config, venues, plan)
            else:
                _evader_checkins(rng, user_id, config, venues, plan)
            continue

        tier = tiers[i]
        if tier == _TIER_ZERO:
            continue
        if tier == _TIER_LOW:
            count = rng.randint(*config.low_range)
        elif tier == _TIER_MID:
            count = _sample_mid(rng, config)
        else:
            count = rng.randint(*config.heavy_range)
        pool = [(vid, venues[vid - 1].location)
                for vid, _ in index.within_radius(home, config.venue_pool_radius_m, _POOL_SIZE)]
        if not pool:
            nearest = index.nearest(home)
            pool = [(nearest[0], venues[nearest[0] - 1].location)]
        cos_lat = max(0.2, math.cos(math.radians(home.lat)))
        _honest_checkins(rng, user_id, count, pool, duration_s, config.gps_noise_m, cos_lat, plan)
    return plan


def _submission_order(plan: _Plan) -> array:
    """Row indexes sorted by (t, user_id), ties in planning order.

    Planning adds each user's rows after those of every lower id, so the row
    index orders (user_id, planning order) and one stable sort by t does it.
    """
    return array("I", sorted(range(len(plan.t)), key=plan.t.__getitem__))


def _submit_planned(world: World, plan: _Plan) -> None:
    """Submit the planned check-ins in ``_submission_order`` (``World.submit_planned``)."""
    world.submit_planned(*plan, _submission_order(plan))


# ---------------------------------------------------------------------------
# attack scripts
# ---------------------------------------------------------------------------

def plan(attack: _Attack, world: World, index: VenueGridIndex) -> list[int]:
    """The venue ids ``attack`` checks into, in order."""
    if isinstance(attack, Tour):
        start = attack.start if attack.start is not None else world.venues[0].location
        return plan_tour(index, start, attack.steps, step_deg=attack.step_deg)
    if isinstance(attack, VacancySweep):
        criteria = TargetCriteria(attack.require_mayor_special, attack.require_vacant_mayor,
                                  name_filter=attack.name_filter)
        return select_targets(world.venues, criteria)[: attack.limit]
    return plan_mayor_denial(attack.victim, tables_from_world(world))


def _run_attack(world: World, attack: _Attack, index: VenueGridIndex, i: int) -> dict:
    attacker_id = world.register_user(attack.true_location, is_cheater=True)
    venue_ids = plan(attack, world, index)
    records = []
    if venue_ids:
        schedule = build_schedule([(vid, world.venue(vid).location) for vid in venue_ids],
                                  world.clock.now + attack.start_delay_s)
        if schedule.entries[-1].fire_time >= T_END:  # as attack-plan checks --start-time
            raise InvalidConfig(f"must put every check-in below 2**63 after the clock "
                                f"({world.clock.now}), got {attack.start_delay_s}",
                                f"attacks[{i}].start_delay_s")
        records = execute(world, attacker_id, schedule, attack.true_location)
    attacker = world.user(attacker_id)
    summary = {"kind": attack.kind, "user_id": attacker_id, "checkins": len(records),
               "valid": sum(1 for r in records if r.accepted), "points": attacker.points,
               "badges": sorted(attacker.badges), "mayorships": attacker.total_mayorships}
    if isinstance(attack, MayorDenial) and venue_ids:  # an empty plan's summary names no victim
        summary["victim"] = attack.victim
    return summary


# ---------------------------------------------------------------------------
# scenario runner
# ---------------------------------------------------------------------------

class ScenarioResult(NamedTuple):
    world: World
    out_dir: Path
    metrics: dict
    paths: dict[str, Path]


@gc_paused()
def run_scenario(scenario: ScenarioConfig, out_dir: str | Path,
                 seed: Optional[int] = None) -> ScenarioResult:
    """Generate, attack, export, detect; write every artifact under out_dir.

    Detection runs in memory, on the ``tables_from_world`` projection that
    ``write_exports`` wrote and on the log's ``t``, ``user_id`` and
    ``venue_id`` columns, which hold what the exports would read back. The
    cyclic garbage collector is paused for the whole run.
    """
    out = Path(out_dir)
    scenario = seeded(scenario, seed)
    world, index = build_world(scenario)
    attack_summaries = [_run_attack(world, attack, index, i)
                        for i, attack in enumerate(scenario.attacks)]
    tables, paths = write_exports(world, out)
    log = world.events
    report = analytics.build_report(tables, zip(log.t, log.user_id, log.venue_id),
                                    scenario.detection)
    paths["report"] = analytics.write_report_csv(report, out / "report.csv")
    paths["recent_curve"] = analytics.write_curve_csv(
        analytics.compute_curve(tables, "recent_checkins", scenario.detection.curve_max_total),
        out / "recent_ratio_curve.csv", "mean_recent_checkins")
    paths["badge_curve"] = analytics.write_curve_csv(
        analytics.compute_curve(tables, "total_badges", scenario.detection.curve_max_total),
        out / "badge_curve.csv", "mean_badges")

    metrics = _metrics(world, report, attack_summaries)
    paths["metrics"] = out / "metrics.json"
    paths["metrics"].write_text(json.dumps(metrics, indent=2, sort_keys=True) + "\n",
                                encoding="utf-8")
    return ScenarioResult(world=world, out_dir=out, metrics=metrics, paths=paths)


def write_exports(world: World, out: str | Path) -> tuple[PublicTables, dict[str, Path]]:
    """Write the public profiles, ``events.jsonl`` and, if the world carries
    one, its run document as ``run.json`` under ``out``.

    Returns the world's ``tables_from_world`` projection, the one written,
    and the paths.
    """
    out = Path(out)
    tables = tables_from_world(world)
    paths = world.export_public_profiles(out, tables)
    paths["events"] = world.export_events(out / "events.jsonl")
    if world.run is not None:
        paths["run"] = out / RUN_FILE
        paths["run"].write_text(json.dumps(world.run, indent=2, sort_keys=True) + "\n",
                                encoding="utf-8")
    return tables, paths


def load_run_file(directory: str | Path) -> Optional[ScenarioConfig]:
    """The scenario recorded in ``directory``'s ``run.json``; None without one."""
    path = Path(directory) / RUN_FILE
    return _read_scenario(path, "scenario") if path.is_file() else None


def _install_routers(world: World, routers: Routers) -> None:
    if routers.coverage == "full":
        for venue in world.venues:
            world.register_router(RouterRegistration(venue.venue_id, venue.location,
                                                     range_m=float(routers.range_m)))
    for entry in routers.entries:
        venue = world.venue(entry.venue_id)
        range_m = routers.range_m if entry.range_m is None else entry.range_m
        world.register_router(RouterRegistration(venue.venue_id, venue.location, float(range_m)))


def _metrics(world: World, report, attack_summaries: list[dict]) -> dict:
    truth = {u.user_id for u in world.users if u.is_cheater_ground_truth}
    flagged = {r.user_id for r in report if r.suspicious}
    tp = len(flagged & truth)
    fp = len(flagged - truth)
    fn = len(truth - flagged)
    honest = len(world.users) - len(truth)
    return {
        "n_users": len(world.users),
        "n_venues": len(world.venues),
        "total_checkins": len(world.events),
        "valid_checkins": world.valid_count(),
        "invalid_by_flag": world.invalid_by_flag(),
        "mayors_count": sum(1 for v in world.venues if v.mayor_id is not None),
        "attacks": attack_summaries,
        "detector": {
            "true_cheaters": len(truth),
            "flagged": len(flagged),
            "true_positives": tp,
            "false_positives": fp,
            "false_negatives": fn,
            "precision": tp / (tp + fp) if (tp + fp) else None,
            "recall": tp / len(truth) if truth else None,
            "false_positive_rate": fp / honest if honest else 0.0,
        },
    }
