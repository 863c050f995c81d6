"""Acceptance suite: one test per release criterion. Each records a
PASS/FAIL line; conftest's terminal-summary hook prints them after the run
(and they are visible live under ``pytest -s``).

The two 100k-user scenario runs are session fixtures shared by the
detection-quality and generator-calibration criteria.
"""

import random
import sys
import time

import pytest

from checkinsim.anticheat import RuleConfig, UserRuleState
from checkinsim.attacker import TargetCriteria, build_schedule, execute, plan_tour, select_targets
from checkinsim.geo import GeoPoint, MILE_M, haversine_m, offset_point
from checkinsim.harness import PopulationConfig, ScenarioConfig, run_scenario, venue_index
from checkinsim.verify import RouterRegistration, passes_by_rtt, verify_presence
from checkinsim.world import World

CFG = RuleConfig()
CITY = GeoPoint(40.0, -100.0)
FAIRBANKS = GeoPoint(64.8378, -147.7164)  # ~4,100 km from CITY
ACCEPTANCE_SEED = 20100831


RESULTS: list[str] = []


def report(criterion: int, passed: bool, detail: str) -> None:
    line = f"[{'PASS' if passed else 'FAIL'}] criterion {criterion}: {detail}"
    RESULTS.append(line)
    print(line, file=sys.stderr)
    assert passed, line


def city_grid_world(rows=36, cols=36, spacing_m=140.0, **world_kwargs) -> World:
    world = World(**world_kwargs)
    origin = offset_point(offset_point(CITY, 180, rows * spacing_m / 2), 270,
                          cols * spacing_m / 2)
    for r in range(rows):
        for c in range(cols):
            p = offset_point(offset_point(origin, 0, r * spacing_m), 90, c * spacing_m)
            world.register_venue(f"Grid {r}-{c}", p)
    return world


# ---------------------------------------------------------------------------
# criterion 1: cheater-code rule fidelity
# ---------------------------------------------------------------------------

def test_criterion_1_rule_fidelity():
    t0 = time.time()
    failures = []

    # same-venue cooldown boundary
    world = World()
    world.register_venue("V", CITY)
    u1 = world.register_user(CITY)
    u2 = world.register_user(CITY)
    world.submit_checkin(u1, 1, CITY, 0)
    if world.submit_checkin(u1, 1, CITY, 1800).accepted:
        failures.append("re-check-in at +30min accepted")
    world.submit_checkin(u2, 1, CITY, 2000)
    if not world.submit_checkin(u2, 1, CITY, 2000 + 3600).accepted:
        failures.append("re-check-in at +3600s rejected")

    # rapid-fire: 3rd valid, 4th invalid inside a 180m box within 60s
    world = World()
    for i, bearing in enumerate((0, 90, 180, 270)):
        world.register_venue(f"C{i}", offset_point(CITY, bearing, 60))
    uid = world.register_user(CITY)
    records = [world.submit_checkin(uid, vid, world.venue(vid).location, t)
               for vid, t in ((1, 0), (2, 20), (3, 40), (4, 55))]
    if not records[2].accepted:
        failures.append("3rd clustered check-in rejected")
    if records[3].accepted:
        failures.append("4th clustered check-in inside 60s accepted")

    # travel-speed boundary: one mile in five minutes passes, 160km/10min fails
    world = World()
    a = world.register_venue("A", CITY)
    b = world.register_venue("B", offset_point(CITY, 90, MILE_M))
    far = world.register_venue("far", offset_point(CITY, 0, 160_000))
    uid = world.register_user(CITY)
    world.submit_checkin(uid, a, world.venue(a).location, 0)
    if not world.submit_checkin(uid, b, world.venue(b).location, 300).accepted:
        failures.append("one-mile/5-min pace rejected")
    uid2 = world.register_user(CITY)
    world.submit_checkin(uid2, a, world.venue(a).location, 1000)
    if world.submit_checkin(uid2, far, world.venue(far).location, 1600).accepted:
        failures.append("160km/10min accepted")

    elapsed = time.time() - t0
    if elapsed >= 1.0:
        failures.append(f"took {elapsed:.2f}s (budget 1s)")
    report(1, not failures, f"rule fidelity, {elapsed * 1000:.0f}ms"
           + (f" failures: {failures}" if failures else ""))


# ---------------------------------------------------------------------------
# criterion 2: automated tour attack reproduction
# ---------------------------------------------------------------------------

def tour_world_and_schedule(**world_kwargs):
    world = city_grid_world(**world_kwargs)
    index = venue_index(world)
    tour = plan_tour(index, CITY, 25, step_deg=0.005)
    schedule = build_schedule([(vid, world.venue(vid).location) for vid in tour], 600)
    return world, tour, schedule


def test_criterion_2_tour_attack():
    t0 = time.time()
    world, tour, schedule = tour_world_and_schedule()
    attacker = world.register_user(FAIRBANKS, is_cheater=True)
    assert haversine_m(FAIRBANKS, CITY) > 1_500_000

    records = execute(world, attacker, schedule, FAIRBANKS)
    deltas = [b.fire_time - a.fire_time
              for a, b in zip(schedule.entries, schedule.entries[1:])]
    user = world.user(attacker)
    elapsed = time.time() - t0

    ok = (
        len(records) == 25
        and len(set(tour)) == 25
        and all(r.accepted for r in records)
        and user.points == 25
        and "adventurer" in user.badges
        and all(d == 300 for d in deltas)
        and elapsed < 5.0
    )
    report(2, ok, f"25-venue tour: {sum(r.accepted for r in records)}/25 valid, "
                  f"{user.points} points, badges={sorted(user.badges)}, "
                  f"intervals={sorted(set(deltas))}, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# criterion 3: mayorship capture
# ---------------------------------------------------------------------------

def test_criterion_3_mayorships():
    # four distinct days at one uncontested venue
    world = World()
    world.register_venue("Wharf Sign", CITY)
    uid = world.register_user(FAIRBANKS, is_cheater=True)
    for day in range(4):
        world.submit_checkin(uid, 1, CITY, day * 86_400 + 600, true_gps=FAIRBANKS)
    four_day_mayor = world.venue(1).mayor_id == uid

    # vacancy sweep: one check-in each over 100 vacant special venues
    world = World(seed=1)
    rng = random.Random(ACCEPTANCE_SEED)
    for i in range(100):
        loc = offset_point(CITY, rng.uniform(0, 360), rng.uniform(1_000, 700_000))
        world.register_venue(f"Special {i}", loc, has_mayor_special=True)
    for i in range(40):  # decoys without specials
        loc = offset_point(CITY, rng.uniform(0, 360), rng.uniform(1_000, 700_000))
        world.register_venue(f"Decoy {i}", loc)
    attacker = world.register_user(FAIRBANKS, is_cheater=True)
    targets = select_targets(world.venues,
                             TargetCriteria(require_mayor_special=True, require_vacant_mayor=True))
    schedule = build_schedule([(vid, world.venue(vid).location) for vid in targets[:100]], 600)
    records = execute(world, attacker, schedule, FAIRBANKS)
    sweep_ok = (len(records) == 100 and all(r.accepted for r in records)
                and world.user(attacker).total_mayorships == 100)

    report(3, four_day_mayor and sweep_ok,
           f"4-day mayorship={four_day_mayor}, vacancy sweep mayorships="
           f"{world.user(attacker).total_mayorships}/100")


# ---------------------------------------------------------------------------
# criterion 4: evasion soundness / naive-teleport detectability
# ---------------------------------------------------------------------------

def replay_flags(trace, config=CFG):
    state = UserRuleState()
    flags = 0
    for t, venue_id, loc, reported in trace:
        verdict = state.evaluate_next(venue_id, loc, reported, t, config)
        if verdict.valid:
            state.record_valid(venue_id, loc, t)
        else:
            flags += len(verdict.flags)
    return flags


def test_criterion_4_evasion_soundness():
    t0 = time.time()
    rng = random.Random(ACCEPTANCE_SEED)
    venues = [(i + 1, offset_point(CITY, rng.uniform(0, 360), rng.uniform(0, 400_000)))
              for i in range(300)]
    locations = dict(venues)

    clean = 0
    for _ in range(1000):
        seq = [venues[rng.randrange(len(venues))] for _ in range(rng.randint(2, 15))]
        schedule = build_schedule(seq, rng.randint(0, 50_000))
        trace = [(t, vid, locations[vid], locations[vid]) for vid, t in schedule.entries]
        if replay_flags(trace) == 0:
            clean += 1

    detected = missed = with_fast_pair = 0
    for _ in range(1000):
        trace = []
        t = rng.randint(0, 20_000)
        for _ in range(rng.randint(2, 20)):
            vid, loc = venues[rng.randrange(len(venues))]
            trace.append((t, vid, loc, loc))
            t += rng.randint(30, 1200)
        fast = any(
            haversine_m(a[2], b[2]) / max(b[0] - a[0], 1) > CFG.max_speed_m_per_s
            for a, b in zip(trace, trace[1:])
        )
        if fast:
            with_fast_pair += 1
            if replay_flags(trace) >= 1:
                detected += 1
            else:
                missed += 1

    elapsed = time.time() - t0
    ok = clean == 1000 and missed == 0 and with_fast_pair > 900 and elapsed < 60.0
    report(4, ok, f"{clean}/1000 schedules clean, {detected}/{with_fast_pair} "
                  f"teleport traces flagged, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criteria 5 + 6: detection quality and generator calibration at 100k users
# ---------------------------------------------------------------------------

@pytest.fixture(scope="session")
def big_cheater_run(tmp_path_factory):
    population = PopulationConfig(n_users=100_000, n_venues=20_000, seed=ACCEPTANCE_SEED,
                                  cheater_fraction=0.05)
    t0 = time.time()
    result = run_scenario(ScenarioConfig(population=population),
                          tmp_path_factory.mktemp("accept_cheaters"))
    return result, time.time() - t0


@pytest.fixture(scope="session")
def big_honest_run(tmp_path_factory):
    population = PopulationConfig(n_users=100_000, n_venues=20_000, seed=ACCEPTANCE_SEED)
    t0 = time.time()
    result = run_scenario(ScenarioConfig(population=population),
                          tmp_path_factory.mktemp("accept_honest"))
    return result, time.time() - t0


def test_criterion_5_detection_quality(big_cheater_run, big_honest_run):
    result, elapsed = big_cheater_run
    detector = result.metrics["detector"]
    honest_result, _ = big_honest_run
    honest_fpr = honest_result.metrics["detector"]["false_positive_rate"]

    ok = (
        detector["true_cheaters"] == 5000
        and detector["precision"] >= 0.9
        and detector["recall"] >= 0.9
        and honest_fpr <= 0.02
        and elapsed < 300.0
    )
    report(5, ok, f"precision={detector['precision']:.3f} recall={detector['recall']:.3f} "
                  f"honest FPR={honest_fpr:.4f}, run took {elapsed:.0f}s")


def test_criterion_6_generator_calibration(big_honest_run):
    result, _ = big_honest_run
    users = result.world.users
    n = len(users)
    zero = sum(1 for u in users if u.total_checkins == 0) / n
    low = sum(1 for u in users if 1 <= u.total_checkins <= 5) / n
    heavy = sum(1 for u in users if u.total_checkins >= 1000) / n

    ok = (abs(zero - 0.363) <= 0.010
          and abs(low - 0.204) <= 0.010
          and abs(heavy - 0.002) <= 0.0005)
    report(6, ok, f"shares at n={n}: zero={zero:.4f} (36.3%±1), "
                  f"1-5={low:.4f} (20.4%±1), >=1000={heavy:.4f} (0.2%±0.05)")


# ---------------------------------------------------------------------------
# criterion 7: venue-side verification
# ---------------------------------------------------------------------------

def test_criterion_7_venue_verification():
    world, tour, schedule = tour_world_and_schedule(strict_verify=True)
    for venue in world.venues:
        world.register_router(RouterRegistration(venue.venue_id, venue.location, range_m=100.0))
    attacker = world.register_user(FAIRBANKS, is_cheater=True)
    records = execute(world, attacker, schedule, FAIRBANKS)
    attacker_valid = sum(1 for r in records if r.accepted)

    honest = world.register_user(CITY)
    target = world.venue(tour[0])
    honest_record = world.submit_checkin(
        honest, target.venue_id, target.location, world.clock.now + 900,
        true_gps=offset_point(target.location, 45, 40),
    )

    rng = random.Random(ACCEPTANCE_SEED)
    agreements = 0
    for _ in range(10_000):
        router = RouterRegistration(1, CITY, range_m=rng.uniform(5, 400))
        device = offset_point(CITY, rng.uniform(0, 360), rng.uniform(0, 1500))
        check = verify_presence(router, device)
        agreements += check.passed == passes_by_rtt(router, check.rtt_s)

    ok = attacker_valid == 0 and honest_record.accepted and agreements == 10_000
    report(7, ok, f"strict mode: attacker {attacker_valid}/25 valid, honest user "
                  f"accepted={honest_record.accepted}, RTT/distance agreement "
                  f"{agreements}/10000")


# ---------------------------------------------------------------------------
# criterion 8: determinism
# ---------------------------------------------------------------------------

def test_criterion_8_determinism(tmp_path):
    scenario = ScenarioConfig(
        population=PopulationConfig(n_users=1_500, n_venues=400, seed=ACCEPTANCE_SEED,
                                    cheater_fraction=0.04, duration_days=90),
        attacks=({"kind": "tour", "steps": 12, "true_location": [64.8378, -147.7164]},
                 {"kind": "vacancy_sweep", "limit": 10, "true_location": [48.85, 2.35]}),
    )
    run_scenario(scenario, tmp_path / "a")
    run_scenario(scenario, tmp_path / "b")
    files = ("events.jsonl", "UserInfo.csv", "VenueInfo.csv", "RecentCheckin.csv",
             "report.csv", "recent_ratio_curve.csv", "badge_curve.csv", "metrics.json")
    diffs = [name for name in files
             if (tmp_path / "a" / name).read_bytes() != (tmp_path / "b" / name).read_bytes()]
    report(8, not diffs, "byte-identical outputs" if not diffs else f"differing files: {diffs}")
