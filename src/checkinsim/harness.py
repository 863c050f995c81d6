"""Population generator, scenario runner, and experiment plumbing.

Generates seeded synthetic worlds (clustered venues, home-anchored honest
users, cheater overlays), runs scripted attacks, exports every public
artifact, and feeds the exports back through the offline detectors. A
(config, seed) pair fully determines every output byte.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

from . import analytics
from .anticheat import RuleConfig
from .attacker import (
    START_DELAY_S,
    SWEEP_LIMIT,
    TOUR_STEP_DEG,
    TOUR_STEPS,
    BBox,
    TargetCriteria,
    build_schedule,
    execute,
    plan_mayor_denial,
    plan_tour,
    select_targets,
)
from .geo import GeoPoint, METERS_PER_DEG
from .rewards import BadgeSpec, DAY_S, DEFAULT_BADGE_CATALOG
from .spatial import VenueGridIndex
from .tables import PublicTables, tables_from_world
from .tables import load_events, load_tables  # unused; perfbench/spans.py wraps these names here
from .verify import RouterRegistration
from .world import World

DEFAULT_REGION = BBox(32.0, -120.0, 45.0, -75.0)

_CHAINS = (
    "Starbucks", "Bean Scene", "Burger Barn", "Noodle House", "Corner Mart",
    "City Gym", "Book Nook", "Pizza Palace", "Taco Stand", "Cinema Plaza",
)

_TIER_ZERO, _TIER_LOW, _TIER_MID, _TIER_HEAVY = range(4)


class InvalidConfig(Exception):
    pass


@dataclass(frozen=True)
class PopulationConfig:
    n_users: int
    n_venues: int
    seed: int = 0
    # Activity mixture: share of users with zero, 1-5, mid-range, and >= 1000
    # lifetime check-ins.
    zero_frac: float = 0.363
    low_frac: float = 0.204
    mid_frac: float = 0.431
    heavy_frac: float = 0.002
    cheater_fraction: float = 0.0
    cheater_strategy: str = "naive_teleport"
    mayor_special_fraction: float = 0.10
    region: BBox = DEFAULT_REGION
    duration_days: int = 180
    venues_per_city: int = 40
    city_sigma_m: float = 1000.0
    home_radius_m: float = 1000.0
    venue_pool_radius_m: float = 2500.0
    gps_noise_m: float = 10.0
    low_range: tuple[int, int] = (1, 5)
    mid_range: tuple[int, int] = (6, 999)
    heavy_range: tuple[int, int] = (1000, 1800)
    mid_alpha: float = 2.5
    cheater_checkins: tuple[int, int] = (30, 90)
    evader_venues: tuple[int, int] = (12, 30)

    def validate(self) -> None:
        if self.n_users < 0 or self.n_venues < 1:
            raise InvalidConfig("need n_users >= 0 and n_venues >= 1")
        fracs = (self.zero_frac, self.low_frac, self.mid_frac, self.heavy_frac)
        if any(f < 0 for f in fracs) or abs(sum(fracs) - 1.0) > 1e-9:
            raise InvalidConfig(f"activity fractions must be >= 0 and sum to 1, got {fracs}")
        if not 0.0 <= self.cheater_fraction <= 1.0:
            raise InvalidConfig("cheater_fraction must be in [0, 1]")
        if self.cheater_strategy not in ("naive_teleport", "scheduled_evader"):
            raise InvalidConfig(f"unknown cheater strategy {self.cheater_strategy!r}")
        if not 0.0 <= self.mayor_special_fraction <= 1.0:
            raise InvalidConfig("mayor_special_fraction must be in [0, 1]")
        region = self.region
        if region.min_lat >= region.max_lat or region.min_lon >= region.max_lon:
            raise InvalidConfig(f"degenerate region {region}")
        if self.duration_days < 1:
            raise InvalidConfig("duration_days must be >= 1")

    @classmethod
    def from_dict(cls, data: dict) -> "PopulationConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise InvalidConfig(f"unknown population config keys: {sorted(unknown)}")
        kwargs = dict(data)
        if "region" in kwargs:
            kwargs["region"] = BBox(*kwargs["region"])
        for key in ("low_range", "mid_range", "heavy_range", "cheater_checkins", "evader_venues"):
            if key in kwargs:
                kwargs[key] = tuple(kwargs[key])
        try:
            cfg = cls(**kwargs)
        except TypeError as exc:
            raise InvalidConfig(str(exc)) from exc
        cfg.validate()
        return cfg


_SCENARIO_KEYS = {"population", "rules", "badges", "routers", "attacks", "detection"}
_ROUTER_KEYS = {"coverage", "entries", "range_m", "strict"}
_ROUTER_ENTRY_KEYS = {"venue_id", "range_m", "processing_delay_s"}
_DETECTION_KEYS = {f.name for f in dataclasses.fields(analytics.DetectionThresholds)}
# Keys each attack kind reads, besides "kind", "true_location" and "start_delay_s".
_ATTACK_KEYS = {
    "tour": {"start", "steps", "step_deg"},
    "vacancy_sweep": {"require_mayor_special", "require_vacant_mayor", "name_filter", "limit"},
    "mayor_denial": {"victim"},
}


@dataclass(frozen=True)
class ScenarioConfig:
    population: PopulationConfig
    rules: RuleConfig = RuleConfig()
    badges: tuple[BadgeSpec, ...] = DEFAULT_BADGE_CATALOG
    router_coverage: str = "none"  # none | full | listed
    router_entries: tuple = ()
    router_range_m: float = 100.0
    strict_verify: bool = False
    attacks: tuple = ()
    thresholds: analytics.DetectionThresholds = analytics.DetectionThresholds()

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioConfig":
        unknown = set(data) - _SCENARIO_KEYS
        if unknown:
            raise InvalidConfig(f"unknown scenario config keys: {sorted(unknown)}")
        if "population" not in data:
            raise InvalidConfig("scenario config needs a 'population' section")
        population = PopulationConfig.from_dict(data["population"])
        try:
            rules = RuleConfig.from_dict(data.get("rules", {}))
        except ValueError as exc:
            raise InvalidConfig(str(exc)) from exc
        badges = tuple(BadgeSpec.from_dict(b) for b in data["badges"]) if "badges" in data \
            else DEFAULT_BADGE_CATALOG
        routers = data.get("routers", {})
        unknown = set(routers) - _ROUTER_KEYS
        if unknown:
            raise InvalidConfig(f"unknown routers config keys: {sorted(unknown)}")
        coverage = routers.get("coverage", "none")
        if coverage not in ("none", "full", "listed"):
            raise InvalidConfig(f"unknown router coverage {coverage!r}")
        router_range_m = _config_number("routers.range_m", routers.get("range_m", 100.0))
        entries = routers.get("entries", [])
        if not isinstance(entries, list):
            raise InvalidConfig(f"routers.entries must be a list, got {entries!r}")
        for i, entry in enumerate(entries):
            if not isinstance(entry, dict):
                raise InvalidConfig(f"routers.entries[{i}] must be an object, got {entry!r}")
            unknown = set(entry) - _ROUTER_ENTRY_KEYS
            if unknown:
                raise InvalidConfig(f"routers.entries[{i}]: unknown keys {sorted(unknown)}")
            venue_id = entry.get("venue_id")
            if type(venue_id) is not int or not 1 <= venue_id <= population.n_venues:
                raise InvalidConfig(f"routers.entries[{i}].venue_id must be a venue id in "
                                    f"[1, {population.n_venues}], got {venue_id!r}")
            if "range_m" in entry:
                _config_number(f"routers.entries[{i}].range_m", entry["range_m"])
            if "processing_delay_s" in entry:
                _config_number(f"routers.entries[{i}].processing_delay_s",
                               entry["processing_delay_s"], allow_zero=True)
        strict = routers.get("strict", False)
        if type(strict) is not bool:
            raise InvalidConfig(f"routers.strict must be true or false, got {strict!r}")
        detection = data.get("detection", {})
        unknown = set(detection) - _DETECTION_KEYS
        if unknown:
            raise InvalidConfig(f"unknown detection config keys: {sorted(unknown)}")
        for key, value in detection.items():
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise InvalidConfig(f"detection.{key} must be a number, got {value!r}")
        for key in ("cluster_radius_m", "v_travel_m_per_s"):
            if key in detection:
                _config_number(f"detection.{key}", detection[key])
        thresholds = analytics.DetectionThresholds(**detection)
        attacks = data.get("attacks", [])
        _check_attacks(attacks)
        return cls(
            population=population,
            rules=rules,
            badges=badges,
            router_coverage=coverage,
            router_entries=tuple(entries),
            router_range_m=float(router_range_m),
            strict_verify=strict,
            attacks=tuple(attacks),
            thresholds=thresholds,
        )


def _config_number(where: str, value, allow_zero: bool = False):
    """``value`` if it is a finite int or float (not a bool) above 0, or at
    least 0 with ``allow_zero``; otherwise ``InvalidConfig`` naming ``where``."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or not (0 <= value if allow_zero else 0 < value) or not math.isfinite(value):
        raise InvalidConfig(f"{where} must be a finite number {'>= 0' if allow_zero else '> 0'}, "
                            f"got {value!r}")
    return value


def load_scenario(path: str | Path) -> ScenarioConfig:
    path = Path(path)
    if not path.is_file():
        raise InvalidConfig(f"config file not found: {path}")
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise InvalidConfig(f"config is not valid JSON: {exc}") from exc
    return ScenarioConfig.from_dict(data)


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


def venue_index(world: World, cell_size_deg: float = 0.02) -> VenueGridIndex:
    return VenueGridIndex(((v.venue_id, v.location) for v in world.venues), cell_size_deg)


def _jitter(rng, p: GeoPoint, radius_m: float) -> GeoPoint:
    r = radius_m * math.sqrt(rng.random())
    theta = rng.uniform(0.0, 2.0 * math.pi)
    dlat = r * math.cos(theta) / METERS_PER_DEG
    dlon = r * math.sin(theta) / (METERS_PER_DEG * max(0.2, math.cos(math.radians(p.lat))))
    return GeoPoint(p.lat + dlat, p.lon + dlon)


def _sample_mid(rng, config: PopulationConfig) -> int:
    lo, hi = config.mid_range
    alpha = config.mid_alpha
    u = rng.random()
    tail = 1.0 - (lo / hi) ** (alpha - 1.0)
    x = lo * (1.0 - u * tail) ** (-1.0 / (alpha - 1.0))
    return min(hi, max(lo, int(x)))


def _honest_checkins(rng, user_id: int, count: int, pool, duration_s: float,
                     noise_m: float, cos_lat: float, out: list) -> None:
    if count == 0 or not pool:
        return
    t = rng.uniform(0.0, DAY_S)
    gap_mean = max(600.0, duration_s / count - 3600.0)
    n_pool = len(pool)
    lat_noise = noise_m / METERS_PER_DEG
    lon_noise = noise_m / (METERS_PER_DEG * cos_lat)
    for _ in range(count):
        venue_id, vloc = pool[rng.randrange(n_pool)]
        if noise_m > 0.0:
            reported = GeoPoint(vloc.lat + rng.gauss(0.0, lat_noise),
                                vloc.lon + rng.gauss(0.0, lon_noise))
        else:
            reported = vloc
        out.append((int(t), user_id, venue_id, reported, reported))
        t += 3600.0 + rng.expovariate(1.0 / gap_mean)


def _teleport_checkins(rng, user_id: int, home: GeoPoint, config: PopulationConfig,
                       venues, out: list) -> None:
    count = rng.randint(*config.cheater_checkins)
    t = rng.uniform(0.0, DAY_S)
    n_venues = len(venues)
    for _ in range(count):
        venue = venues[rng.randrange(n_venues)]
        out.append((int(t), user_id, venue.venue_id, venue.location, home))
        t += rng.uniform(60.0, 900.0)


def _evader_checkins(rng, user_id: int, home: GeoPoint, config: PopulationConfig,
                     venues, out: list) -> None:
    m = min(rng.randint(*config.evader_venues), len(venues))
    chosen = rng.sample(range(len(venues)), m)
    seq = [(venues[i].venue_id, venues[i].location) for i in chosen]
    schedule = build_schedule(seq, start_time=int(rng.uniform(0.0, DAY_S)))
    for venue_id, fire_time in schedule.entries:
        out.append((fire_time, user_id, venue_id, venues[venue_id - 1].location, home))


def generate_population(config: PopulationConfig) -> World:
    """Build a seeded world: venues, users, and their full check-in history."""
    world, _ = build_world(ScenarioConfig(population=config))
    return world


def build_world(scenario: ScenarioConfig,
                seed: Optional[int] = None) -> tuple[World, VenueGridIndex]:
    """Register venues, install routers, index venues and generate check-ins.

    ``seed`` overrides the population seed. Returns the world and its venue
    index, which attacks plan against.
    """
    population = scenario.population
    if seed is not None:
        population = dataclasses.replace(population, seed=seed)
    population.validate()
    world = World(rule_config=scenario.rules, badge_catalog=scenario.badges,
                  seed=population.seed, strict_verify=scenario.strict_verify)
    _register_venues(world, population)
    _install_routers(world, scenario)
    index = venue_index(world)
    _generate_checkins(world, population, index)
    return world, index


def _generate_checkins(world: World, config: PopulationConfig, index: VenueGridIndex) -> None:
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

    events: list[tuple] = []
    for i in range(config.n_users):
        anchor = venues[rng.randrange(len(venues))].location
        home = _jitter(rng, anchor, config.home_radius_m)
        user_id = world.register_user(home, is_cheater=(i + 1) in cheaters)

        if user_id in cheaters:
            if config.cheater_strategy == "naive_teleport":
                _teleport_checkins(rng, user_id, home, config, venues, events)
            else:
                _evader_checkins(rng, user_id, home, config, venues, events)
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
                for vid, _ in index.within_radius(home, config.venue_pool_radius_m)[:12]]
        if not pool:
            nearest = index.nearest(home)
            pool = [(nearest[0], venues[nearest[0] - 1].location)]
        cos_lat = max(0.2, math.cos(math.radians(home.lat)))
        _honest_checkins(rng, user_id, count, pool, duration_s, config.gps_noise_m, cos_lat, events)

    events.sort(key=lambda e: (e[0], e[1]))
    submit = world.submit_checkin
    for t, user_id, venue_id, reported, true in events:
        submit(user_id, venue_id, reported, t, true)


# ---------------------------------------------------------------------------
# attack scripts
# ---------------------------------------------------------------------------

def _check_attacks(attacks) -> None:
    """Refuse ``attacks`` unless it is a list of objects of known kinds and keys."""
    if not isinstance(attacks, (list, tuple)):
        raise InvalidConfig(f"attacks must be a list, got {attacks!r}")
    for i, spec in enumerate(attacks):
        if not isinstance(spec, dict):
            raise InvalidConfig(f"attacks[{i}] must be an object, got {spec!r}")
        kind = spec.get("kind")
        if not isinstance(kind, str) or kind not in _ATTACK_KEYS:
            raise InvalidConfig(f"attacks[{i}]: unknown attack kind {kind!r}")
        unknown = set(spec) - {"kind", "true_location", "start_delay_s"} - _ATTACK_KEYS[kind]
        if unknown:
            raise InvalidConfig(f"attacks[{i}]: unknown {kind!r} attack keys: {sorted(unknown)}")
        if "true_location" not in spec:
            raise InvalidConfig(f"attacks[{i}]: attack {kind!r} needs a true_location")
        if kind == "mayor_denial" and "victim" not in spec:
            raise InvalidConfig(f"attacks[{i}]: attack 'mayor_denial' needs a victim")


def _run_attack(world: World, spec: dict, index: VenueGridIndex) -> dict:
    kind = spec["kind"]
    true_location = GeoPoint(*spec["true_location"])
    attacker_id = world.register_user(true_location, is_cheater=True)
    start_time = world.clock.now + int(spec.get("start_delay_s", START_DELAY_S))

    if kind == "tour":
        start = GeoPoint(*spec["start"]) if "start" in spec else world.venues[0].location
        venue_ids = plan_tour(index, start, int(spec.get("steps", TOUR_STEPS)),
                              step_deg=float(spec.get("step_deg", TOUR_STEP_DEG)))
    elif kind == "vacancy_sweep":
        criteria = TargetCriteria(
            require_mayor_special=bool(spec.get("require_mayor_special", True)),
            require_vacant_mayor=bool(spec.get("require_vacant_mayor", True)),
            name_filter=spec.get("name_filter"),
        )
        venue_ids = select_targets(world.venues, criteria)[: int(spec.get("limit", SWEEP_LIMIT))]
    else:  # mayor_denial
        victim = int(spec["victim"])
        venue_ids = plan_mayor_denial(victim, tables_from_world(world))

    if not venue_ids:
        return {"kind": kind, "user_id": attacker_id, "checkins": 0, "valid": 0,
                "points": 0, "badges": [], "mayorships": 0}

    schedule = build_schedule([(vid, world.venue(vid).location) for vid in venue_ids], start_time)
    records = execute(world, attacker_id, schedule, true_location)
    attacker = world.user(attacker_id)
    summary = {
        "kind": kind,
        "user_id": attacker_id,
        "checkins": len(records),
        "valid": sum(1 for r in records if r.accepted),
        "points": attacker.points,
        "badges": sorted(attacker.badges),
        "mayorships": attacker.total_mayorships,
    }
    if kind == "mayor_denial":
        summary["victim"] = int(spec["victim"])
    return summary


# ---------------------------------------------------------------------------
# scenario runner
# ---------------------------------------------------------------------------

@contextlib.contextmanager
def gc_paused():
    """Run the block with the cyclic garbage collector off, then restore the
    caller's setting, also when the block raises.

    The bulk phases keep about a million long-lived records at the
    acceptance size, and the collector re-scans them again and again while
    they are built: on a 2-vCPU host a 100k-user run took 101 s with it on
    and 59 s with it off. Those phases make no reference cycle per row, so
    reference counting alone frees what they drop.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


@dataclass
class ScenarioResult:
    world: World
    out_dir: Path
    metrics: dict
    paths: dict[str, Path] = field(default_factory=dict)


@gc_paused()
def run_scenario(scenario: ScenarioConfig, out_dir: str | Path,
                 seed: Optional[int] = None) -> ScenarioResult:
    """Generate, attack, export, detect; write every artifact under out_dir.

    Detection runs in memory, on the ``tables_from_world`` projection that
    ``write_exports`` wrote and on the world's check-in records themselves,
    so the exports are not re-read: the tables equal what ``load_tables``
    reads back, and each record has the ``t``, ``user_id`` and ``venue_id``
    of its events.jsonl row. The cyclic garbage collector is paused for the
    whole run.
    """
    out = Path(out_dir)
    _check_attacks(scenario.attacks)
    world, index = build_world(scenario, seed)
    attack_summaries = [_run_attack(world, spec, index) for spec in scenario.attacks]
    tables, paths = write_exports(world, out)
    report = analytics.build_report(tables, world.events, scenario.thresholds)
    paths["report"] = analytics.write_report_csv(report, out / "report.csv")
    paths["recent_curve"] = analytics.write_curve_csv(
        analytics.compute_curve(tables, "recent_checkins", scenario.thresholds.curve_max_total),
        out / "recent_ratio_curve.csv", "mean_recent_checkins")
    paths["badge_curve"] = analytics.write_curve_csv(
        analytics.compute_curve(tables, "total_badges", scenario.thresholds.curve_max_total),
        out / "badge_curve.csv", "mean_badges")

    metrics = _metrics(world, report, attack_summaries)
    paths["metrics"] = out / "metrics.json"
    paths["metrics"].write_text(json.dumps(metrics, indent=2, sort_keys=True) + "\n",
                                encoding="utf-8")
    return ScenarioResult(world=world, out_dir=out, metrics=metrics, paths=paths)


def write_exports(world: World, out: str | Path) -> tuple[PublicTables, dict[str, Path]]:
    """Write the public profiles and ``events.jsonl`` under ``out``.

    Returns the world's ``tables_from_world`` projection, the one written,
    and the paths.
    """
    out = Path(out)
    tables = tables_from_world(world)
    paths = world.export_public_profiles(out, tables)
    paths["events"] = world.export_events(out / "events.jsonl")
    return tables, paths


def _install_routers(world: World, scenario: ScenarioConfig) -> None:
    if scenario.router_coverage == "none":
        return
    if scenario.router_coverage == "full":
        for venue in world.venues:
            world.register_router(RouterRegistration(venue.venue_id, venue.location,
                                                     range_m=scenario.router_range_m))
        return
    for entry in scenario.router_entries:
        venue = world.venue(entry["venue_id"])
        world.register_router(RouterRegistration(
            venue.venue_id, venue.location,
            range_m=float(entry.get("range_m", scenario.router_range_m)),
            processing_delay_s=float(entry.get("processing_delay_s", 2e-6)),
        ))


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
