import math
import random

import pytest

from checkinsim.anticheat import Flag, RuleConfig, UserRuleState, offline_verdicts
from checkinsim.geo import GeoPoint, MILE_M, offset_point

from oracles import brute_verdicts

CFG = RuleConfig()
ORIGIN = GeoPoint(40.0, -100.0)


def state_after(*valid_priors):
    """A rule state fed the given (t, venue_id, location) valid check-ins."""
    state = UserRuleState()
    for t, venue_id, loc in valid_priors:
        state.record_valid(venue_id, loc, t)
    return state


def judge(state, venue_id, loc, t, reported=None):
    return state.evaluate_next(venue_id, loc, loc if reported is None else reported, t, CFG)


class TestRuleFrequent:
    def test_same_venue_half_hour_later_flags(self):
        verdict = judge(state_after((1000, 7, ORIGIN)), 7, ORIGIN, 1000 + 1800)
        assert verdict.flags == (Flag.FREQUENT_CHECKIN,)
        assert verdict.detail[Flag.FREQUENT_CHECKIN] == 1800.0

    def test_exactly_one_hour_passes(self):
        assert judge(state_after((1000, 7, ORIGIN)), 7, ORIGIN, 1000 + 3600).valid

    def test_other_venue_not_scoped(self):
        assert judge(state_after((1000, 7, ORIGIN)), 8, ORIGIN, 1060).valid

    def test_invalid_prior_does_not_count(self):
        trace = [(1000, 7, ORIGIN, ORIGIN), (1060, 7, ORIGIN, ORIGIN)]
        assert offline_verdicts(trace, CFG, prior_valid=[False, True])[1].valid


class TestRuleSpeed:
    def test_one_mile_in_five_minutes_passes(self):
        b = offset_point(ORIGIN, 90, MILE_M)
        assert judge(state_after((0, 1, ORIGIN)), 2, b, 300).valid

    def test_160km_in_ten_minutes_flags(self):
        b = offset_point(ORIGIN, 90, 160_000)
        verdict = judge(state_after((0, 1, ORIGIN)), 2, b, 600)
        assert verdict.flags == (Flag.SUPER_HUMAN_SPEED,)
        assert verdict.detail[Flag.SUPER_HUMAN_SPEED] == pytest.approx(266.7, abs=1.0)

    def test_no_predecessor_no_flag(self):
        assert judge(UserRuleState(), 1, ORIGIN, 1000).valid

    def test_simultaneous_distinct_locations_flag_as_infinite(self):
        b = offset_point(ORIGIN, 0, 5000)
        verdict = judge(state_after((500, 1, ORIGIN)), 2, b, 500)
        assert verdict.flags == (Flag.SUPER_HUMAN_SPEED,)
        assert math.isinf(verdict.detail[Flag.SUPER_HUMAN_SPEED])

    def test_simultaneous_same_location_passes(self):
        assert judge(state_after((500, 1, ORIGIN)), 2, ORIGIN, 500).valid


class TestRuleRapidfire:
    def _cluster(self, n, spread_m=100):
        return [offset_point(ORIGIN, 360 * i / max(n, 1), spread_m * i / max(n, 1))
                for i in range(n)]

    def test_fourth_in_tight_cluster_flags(self):
        locs = self._cluster(3)
        state = state_after(*((t, i + 1, loc) for t, (i, loc) in zip((10, 30, 50), enumerate(locs))))
        verdict = judge(state, 4, offset_point(ORIGIN, 45, 50), 60)
        assert Flag.RAPID_FIRE in verdict.flags
        assert verdict.detail[Flag.RAPID_FIRE] == 4.0

    def test_wide_cluster_passes(self):
        a, b, c = ORIGIN, offset_point(ORIGIN, 90, 500), offset_point(ORIGIN, 90, 250)
        state = state_after((10, 1, a), (30, 2, b), (50, 3, c))
        assert Flag.RAPID_FIRE not in judge(state, 4, ORIGIN, 60).flags

    def test_only_two_priors_passes(self):
        state = state_after((10, 1, ORIGIN), (30, 2, ORIGIN))
        assert Flag.RAPID_FIRE not in judge(state, 3, ORIGIN, 40).flags

    def test_far_candidate_after_tight_cluster_is_not_rapidfire(self):
        # a tight valid cluster followed by a venue far outside projection
        # range cannot fit any square; must not raise, must not flag
        state = UserRuleState()
        t = 0
        for i, bearing in enumerate((0, 90, 180)):
            loc = offset_point(ORIGIN, bearing, 40)
            assert state.evaluate_next(i + 1, loc, loc, t, CFG).valid
            state.record_valid(i + 1, loc, t)
            t += 20
        far = offset_point(ORIGIN, 45, 100_000)
        verdict = state.evaluate_next(9, far, far, t, CFG)
        assert Flag.RAPID_FIRE not in verdict.flags
        assert Flag.SUPER_HUMAN_SPEED in verdict.flags


class TestRuleGps:
    def test_reported_at_venue_passes(self):
        assert judge(UserRuleState(), 1, ORIGIN, 0).valid

    def test_ten_km_off_flags(self):
        verdict = judge(UserRuleState(), 1, ORIGIN, 0, reported=offset_point(ORIGIN, 180, 10_000))
        assert verdict.flags == (Flag.GPS_MISMATCH,)
        assert verdict.detail[Flag.GPS_MISMATCH] == pytest.approx(10_000, rel=1e-3)

    def test_499m_off_passes(self):
        assert judge(UserRuleState(), 1, ORIGIN, 0, reported=offset_point(ORIGIN, 10, 499)).valid


class TestEvaluate:
    def test_fresh_user_at_venue_is_valid(self):
        verdict = judge(UserRuleState(), 1, ORIGIN, 100)
        assert verdict.valid and verdict.flags == ()

    def test_fresh_user_far_report_gets_gps_flag_only(self):
        verdict = judge(UserRuleState(), 1, ORIGIN, 100, reported=offset_point(ORIGIN, 0, 10_000))
        assert not verdict.valid
        assert verdict.flags == (Flag.GPS_MISMATCH,)
        assert Flag.GPS_MISMATCH in verdict.detail

    def test_detail_present_exactly_for_raised_flags(self):
        far = offset_point(ORIGIN, 90, 200_000)
        verdict = judge(state_after((0, 1, ORIGIN)), 2, far, 60, reported=offset_point(far, 0, 10_000))
        assert set(verdict.flags) == {Flag.SUPER_HUMAN_SPEED, Flag.GPS_MISMATCH}
        assert set(verdict.detail) == set(verdict.flags)

    def test_deterministic(self):
        priors = ((0, 1, ORIGIN), (700, 2, offset_point(ORIGIN, 90, 900)))
        args = (3, offset_point(ORIGIN, 45, 1500), 1200, ORIGIN)
        assert judge(state_after(*priors), *args) == judge(state_after(*priors), *args)


def random_trace(rng, n_checkins=15):
    """A mixed honest/aggressive submission trace over a small venue map."""
    venues = []
    base = GeoPoint(rng.uniform(-60, 60), rng.uniform(-170, 170))
    for i in range(12):
        venues.append((i + 1, offset_point(base, rng.uniform(0, 360), rng.uniform(0, 30_000))))
    t = rng.randint(0, 10_000)
    trace = []
    for _ in range(n_checkins):
        venue_id, loc = venues[rng.randrange(len(venues))]
        if rng.random() < 0.2:
            reported = offset_point(loc, rng.uniform(0, 360), rng.uniform(600, 5_000))
        else:
            reported = loc
        trace.append((t, venue_id, loc, reported))
        t += rng.randint(5, 5_000)
    return trace


def engine_verdicts(trace, config):
    state = UserRuleState()
    out = []
    for t, venue_id, venue_loc, reported in trace:
        verdict = state.evaluate_next(venue_id, venue_loc, reported, t, config)
        out.append(verdict)
        if verdict.valid:
            state.record_valid(venue_id, venue_loc, t)
    return out


class TestEngineEquivalence:
    def test_online_matches_brute_force_oracle(self):
        rng = random.Random(2024)
        for _ in range(1000):
            trace = random_trace(rng)
            engine = engine_verdicts(trace, CFG)
            oracle = brute_verdicts(trace, CFG)
            for verdict, (ok, flags) in zip(engine, oracle):
                assert verdict.valid == ok
                assert {f.value for f in verdict.flags} == flags

    def test_pinned_replay_matches_brute_force_oracle(self):
        # Pins mimic a strict-verification log: a row is accepted when the
        # rules pass and a random presence check succeeds.
        rng = random.Random(31)
        for _ in range(1000):
            trace = random_trace(rng)
            state = UserRuleState()
            pins = []
            for t, venue_id, venue_loc, reported in trace:
                pins.append(state.evaluate_next(venue_id, venue_loc, reported, t, CFG).valid
                            and rng.random() < 0.7)
                if pins[-1]:
                    state.record_valid(venue_id, venue_loc, t)
            replay = offline_verdicts(trace, CFG, prior_valid=pins)
            oracle = brute_verdicts(trace, CFG, prior_valid=pins)
            for verdict, (ok, flags) in zip(replay, oracle):
                assert verdict.valid == ok
                assert {f.value for f in verdict.flags} == flags

    def test_package_offline_checker_matches_engine(self):
        rng = random.Random(5)
        for _ in range(200):
            trace = random_trace(rng)
            assert offline_verdicts(trace, CFG) == engine_verdicts(trace, CFG)


class TestRuleStateHygiene:
    def test_invalid_teleport_does_not_poison_speed_state(self):
        state = UserRuleState()
        far_venue = offset_point(ORIGIN, 90, 3_000_000)
        near_venue = offset_point(ORIGIN, 0, 400)

        v1 = state.evaluate_next(1, ORIGIN, ORIGIN, 0, CFG)
        assert v1.valid
        state.record_valid(1, ORIGIN, 0)

        v2 = state.evaluate_next(2, far_venue, far_venue, 600, CFG)
        assert not v2.valid and Flag.SUPER_HUMAN_SPEED in v2.flags

        # The honest follow-up is judged against the last valid check-in.
        v3 = state.evaluate_next(3, near_venue, near_venue, 1200, CFG)
        assert v3.valid

    def test_monotone_strictness_of_thresholds(self):
        rng = random.Random(17)
        tighter_speed = RuleConfig(max_speed_m_per_s=2.0)
        tighter_gps = RuleConfig(gps_radius_m=100.0)
        for _ in range(300):
            trace = random_trace(rng, n_checkins=8)
            base = offline_verdicts(trace, CFG)
            for tight in (tighter_speed, tighter_gps):
                strict = offline_verdicts(trace, tight, prior_valid=[v.valid for v in base])
                for b, st in zip(base, strict):
                    if not b.valid:
                        assert not st.valid


class TestRuleConfig:
    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            RuleConfig(gps_radius_m=0)

    def test_from_dict_round_trip(self):
        cfg = RuleConfig.from_dict({"gps_radius_m": 250.0})
        assert cfg.gps_radius_m == 250.0
        assert RuleConfig.from_dict(cfg.to_dict()) == cfg

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError):
            RuleConfig.from_dict({"max_speed": 3.0})

    def test_default_speed_limit_is_mile_per_five_minutes(self):
        assert CFG.max_speed_m_per_s == MILE_M / 300.0
