"""checkinsim: a deterministic simulator of a check-in based location service.

Pieces: geodesic primitives (geo), the anticheat rule engine (anticheat),
the reward economy (rewards), the authoritative service state (world), a
spoofing attacker with rule-evading schedules (attacker), offline cheater
detection (analytics), venue-side presence verification (verify), and a
population/scenario harness with a CLI (harness, cli).
"""

__version__ = "0.1.0"  # set before the submodules import, so that harness can read it

from .anticheat import Flag, RuleConfig, RuleVerdict, UserRuleState, offline_verdicts
from .attacker import (AttackSchedule, BBox, NoVenuesAvailable, TargetCriteria, UnknownVictim,
                       build_schedule, execute, plan_mayor_denial, plan_step, plan_tour,
                       select_targets)
from .geo import (EARTH_RADIUS_M, GeoPoint, LocalOffset, MILE_M, OutOfProjectionRange, fits_square,
                  haversine_m, offset_point, project_local, unproject_local)
from .harness import (InvalidConfig, PopulationConfig, ScenarioConfig, generate_population,
                      load_scenario, run_scenario)
from .rewards import BadgeKind, BadgeSpec, DEFAULT_BADGE_CATALOG, MayorState, RewardsEngine
from .spatial import VenueGridIndex
from .tables import MissingTables, PublicTables, load_events, load_tables, tables_from_world
from .verify import PresenceCheck, RouterRegistration, UnregisteredRouter, attest_checkin, verify_presence
from .world import (CheckInLog, CheckInRecord, ClockRegression, CorruptSnapshot, SimClock,
                    UnknownUser, UnknownVenue, UserProfile, Venue, World)
