"""Venue-side presence verification via registered Wi-Fi routers.

A router attests that a device is physically within radio range by checking
the round-trip delay of a challenge. This is the one component that sees the
device's true location, by physics rather than by trusting reported GPS.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .geo import GeoPoint, haversine_m

SPEED_OF_LIGHT_M_PER_S = 299_792_458.0


class UnregisteredRouter(Exception):
    """Only routers registered over a trusted channel may attest presence."""


@dataclass(frozen=True)
class RouterRegistration:
    venue_id: int
    location: GeoPoint
    range_m: float = 100.0
    processing_delay_s: float = 2e-6
    registered: bool = True

    def __post_init__(self) -> None:
        if self.range_m <= 0:
            raise ValueError("router range must be positive")


@dataclass(frozen=True)
class PresenceCheck:
    passed: bool
    distance_m: float
    rtt_s: float


def rtt_for_distance(router: RouterRegistration, distance_m: float) -> float:
    """Simulated round trip time for a device at the given distance."""
    return 2.0 * distance_m / SPEED_OF_LIGHT_M_PER_S + router.processing_delay_s


def passes_by_rtt(router: RouterRegistration, rtt_s: float) -> bool:
    """Range decision from the delay alone: RTT within the in-range bound."""
    return rtt_s <= rtt_for_distance(router, router.range_m)


def verify_presence(router: RouterRegistration, device_true_location: GeoPoint) -> PresenceCheck:
    """Attest whether the device is within the router's radio range.

    The RTT bound is algebraically equivalent to distance <= range; the
    distance form is used for the decision.
    """
    if not router.registered:
        raise UnregisteredRouter(f"router for venue {router.venue_id} is not registered")
    distance = haversine_m(router.location, device_true_location)
    return PresenceCheck(
        passed=distance <= router.range_m,
        distance_m=distance,
        rtt_s=rtt_for_distance(router, distance),
    )


def attest_checkin(
    venue_id: int,
    device_true_location: GeoPoint,
    registry: Mapping[int, RouterRegistration],
) -> bool:
    """True iff the venue has a registered router that verifies the device.

    Decides as ``verify_presence(...).passed`` does, without building the
    ``PresenceCheck`` and its RTT.
    """
    router = registry.get(venue_id)
    if router is None or not router.registered:
        return False
    return haversine_m(router.location, device_true_location) <= router.range_m
