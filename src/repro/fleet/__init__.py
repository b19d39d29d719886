"""Multi-replica serving: supervision, snapshot distribution, gated rollout.

The fleet layer scales the single-process serving stack horizontally on
one machine: a :class:`~repro.fleet.replica.ReplicaSupervisor` keeps N
``repro serve`` subprocesses alive, a
:class:`~repro.fleet.front.FleetFront` (itself an app-protocol object,
mountable on the serving transport) routes and retries requests
across them, a :class:`~repro.fleet.publisher.SnapshotPublisher` fans
snapshot reloads out and verifies convergence by content digest, and a
:class:`~repro.fleet.controller.FleetController` runs health-gated
rollouts — canary, shadow traffic, promote-or-rollback.

Everything is stdlib-only and testable on one machine; the process
boundary (HTTP over loopback) is the same one a real multi-host fleet
would cross.
"""

from repro.fleet.client import PooledReplicaClient
from repro.fleet.controller import FleetController
from repro.fleet.front import ROUTE_POLICIES, FleetFront
from repro.fleet.publisher import PublishReport, SnapshotPublisher
from repro.fleet.replica import ReplicaHandle, ReplicaSupervisor
from repro.fleet.ring import HashRing
from repro.fleet.rollout import (
    VERDICT_ERROR_RATE,
    VERDICT_INSUFFICIENT,
    VERDICT_LATENCY,
    VERDICT_PASS,
    RolloutConfig,
    RolloutState,
    ShadowMirror,
    ShadowWindow,
)
from repro.fleet.targets import ReplicaSet, ReplicaTarget

__all__ = [
    "PooledReplicaClient",
    "FleetController",
    "FleetFront",
    "ROUTE_POLICIES",
    "PublishReport",
    "SnapshotPublisher",
    "ReplicaHandle",
    "ReplicaSupervisor",
    "HashRing",
    "RolloutConfig",
    "RolloutState",
    "ShadowMirror",
    "ShadowWindow",
    "VERDICT_ERROR_RATE",
    "VERDICT_INSUFFICIENT",
    "VERDICT_LATENCY",
    "VERDICT_PASS",
    "ReplicaSet",
    "ReplicaTarget",
]
