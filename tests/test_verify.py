import random

import pytest

from checkinsim.geo import GeoPoint, haversine_m, offset_point
from checkinsim.verify import (
    RouterRegistration,
    SPEED_OF_LIGHT_M_PER_S,
    UnregisteredRouter,
    attest_checkin,
    passes_by_rtt,
    rtt_for_distance,
    verify_presence,
)
from checkinsim.world import World

VENUE = GeoPoint(40.0, -100.0)


def router(range_m=100.0, registered=True):
    return RouterRegistration(venue_id=1, location=VENUE, range_m=range_m, registered=registered)


class TestVerifyPresence:
    def test_device_50m_away_passes(self):
        check = verify_presence(router(), offset_point(VENUE, 30, 50))
        assert check.passed
        assert check.distance_m == pytest.approx(50, abs=0.1)

    def test_device_150m_away_fails_with_distance(self):
        check = verify_presence(router(), offset_point(VENUE, 30, 150))
        assert not check.passed
        assert check.distance_m == pytest.approx(150, abs=0.1)

    def test_device_at_router_rtt_is_processing_delay(self):
        check = verify_presence(router(), VENUE)
        assert check.passed
        assert check.rtt_s == router().processing_delay_s

    def test_unregistered_router_cannot_attest(self):
        with pytest.raises(UnregisteredRouter):
            verify_presence(router(registered=False), VENUE)

    def test_neighbor_50m_fails_when_range_tightened_to_30m(self):
        # next-door device 50 m out; stock 100 m range accepts it, a
        # firmware-limited 30 m range rejects it
        device = offset_point(VENUE, 270, 50)
        assert verify_presence(router(range_m=100), device).passed
        assert not verify_presence(router(range_m=30), device).passed


class TestRttDistanceConsistency:
    def test_decisions_agree_on_random_cases(self):
        rng = random.Random(404)
        for _ in range(10_000):
            r = router(range_m=rng.uniform(5, 500))
            device = offset_point(VENUE, rng.uniform(0, 360), rng.uniform(0, 2000))
            check = verify_presence(r, device)
            assert check.passed == passes_by_rtt(r, check.rtt_s)

    def test_rtt_formula(self):
        r = router()
        assert rtt_for_distance(r, 0) == r.processing_delay_s
        assert rtt_for_distance(r, 1000) == pytest.approx(
            2 * 1000 / SPEED_OF_LIGHT_M_PER_S + r.processing_delay_s
        )


class TestAttestCheckin:
    def test_remote_spoofer_defeated(self):
        registry = {1: router()}
        spoofer_true = offset_point(VENUE, 90, 1_000_000)
        assert attest_checkin(1, spoofer_true, registry) is False

    def test_honest_user_inside_venue_passes(self):
        registry = {1: router()}
        assert attest_checkin(1, offset_point(VENUE, 10, 20), registry) is True

    def test_unroutered_venue_is_unverified(self):
        assert attest_checkin(2, VENUE, {1: router()}) is False

    def test_decides_as_verify_presence(self):
        # random devices, and devices whose distance is exactly the range
        rng = random.Random(77)
        at_range = 0
        for _ in range(5_000):
            device = offset_point(VENUE, rng.uniform(0, 360), rng.uniform(0, 300))
            if rng.random() < 0.3:
                r = router(range_m=haversine_m(VENUE, device) or 1.0)
            else:
                r = router(range_m=rng.uniform(5, 200))
            check = verify_presence(r, device)
            at_range += check.distance_m == r.range_m
            assert attest_checkin(1, device, {1: r}) is check.passed
        assert at_range > 1_000

    def test_attestation_ignores_reported_gps(self):
        world = World(strict_verify=True)
        world.register_venue("V", VENUE)
        world.register_router(RouterRegistration(1, VENUE))
        uid = world.register_user(VENUE)
        # reported exactly at the venue, but truly 1000 km away
        record = world.submit_checkin(uid, 1, VENUE, 100,
                                      true_gps=offset_point(VENUE, 90, 1_000_000))
        assert record.verdict.valid  # rules see a perfect report
        assert record.attested is False
        assert not record.accepted


class TestStrictModeWorld:
    def _strict_world(self):
        world = World(strict_verify=True)
        world.register_venue("V1", VENUE)
        world.register_venue("V2", offset_point(VENUE, 90, 3000))
        for v in world.venues:
            world.register_router(RouterRegistration(v.venue_id, v.location, range_m=100))
        return world

    def test_honest_in_range_user_unaffected(self):
        world = self._strict_world()
        uid = world.register_user(VENUE)
        record = world.submit_checkin(uid, 1, VENUE, 50, true_gps=offset_point(VENUE, 0, 30))
        assert record.accepted and record.attested is True
        assert world.user(uid).points == 1

    def test_remote_attacker_earns_nothing(self):
        world = self._strict_world()
        uid = world.register_user(VENUE, is_cheater=True)
        remote = GeoPoint(48.85, 2.35)
        t = 100
        for vid in (1, 2):
            record = world.submit_checkin(uid, vid, world.venue(vid).location, t,
                                          true_gps=remote)
            t += 4000
            assert record.verdict.valid and not record.accepted
        assert world.user(uid).points == 0
        assert world.venue(1).recent_visitors == []

    def test_presence_marker_in_event_export(self, tmp_path):
        world = self._strict_world()
        uid = world.register_user(VENUE)
        world.submit_checkin(uid, 1, VENUE, 50, true_gps=offset_point(VENUE, 90, 5000))
        path = world.export_events(tmp_path / "events.jsonl")
        assert '"flags":["PresenceUnverified"]' in path.read_text()

    def test_random_schedules_from_remote_location_all_blocked(self):
        rng = random.Random(66)
        from checkinsim.attacker import build_schedule, execute

        for trial in range(25):
            world = World(strict_verify=True)
            locs = []
            for i in range(15):
                loc = offset_point(VENUE, rng.uniform(0, 360), rng.uniform(500, 300_000))
                world.register_venue(f"V{i}", loc)
                world.register_router(RouterRegistration(i + 1, loc, range_m=100))
                locs.append(loc)
            uid = world.register_user(VENUE, is_cheater=True)
            seq = [(vid + 1, locs[vid]) for vid in rng.sample(range(15), rng.randint(2, 8))]
            schedule = build_schedule(seq, 600)
            remote = offset_point(VENUE, rng.uniform(0, 360), rng.uniform(500_000, 3_000_000))
            records = execute(world, uid, schedule, remote)
            assert all(r.verdict.valid for r in records)  # the rules are evaded
            assert not any(r.accepted for r in records)   # attestation blocks them all

    def test_marking_mode_does_not_invalidate(self):
        world = World(strict_verify=False)
        world.register_venue("V1", VENUE)
        world.register_router(RouterRegistration(1, VENUE, range_m=100))
        uid = world.register_user(VENUE)
        record = world.submit_checkin(uid, 1, VENUE, 50,
                                      true_gps=offset_point(VENUE, 90, 5000))
        assert record.attested is False
        assert record.accepted  # marked, not rejected
