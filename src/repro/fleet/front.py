"""The fleet front: one address, many replicas, same wire protocol.

:class:`FleetFront` implements the exact app protocol the serving
transport mounts — ``dispatch(method, target) -> (status, bytes)``,
``dispatch_blocks``, ``metrics`` — so the study server's framing code
serves it unchanged: ``AsyncServerThread(front).start()`` gives the
fleet an event-loop front door with keep-alive, pipelining, and the
full error taxonomy, none of it reimplemented here.  (Every proxied
request blocks on a replica socket, so ``dispatch_blocks`` answers
``True`` for them and the transport runs the proxy hop on its executor.)

Request path, in order:

1. **Fleet endpoints** (``/fleet/healthz``, ``/fleet/metrics``,
   ``/fleet/status``, ``/fleet/publish``) are answered locally — they
   must work even when every replica is down.
2. **Admission**: a fleet-level token bucket layered over the replicas'
   own buckets — the fleet's total budget is enforced here in one place,
   while each replica keeps its local bucket as self-protection against
   fronts bypassing this one.
3. **Shadow mirror**: when a health-gated rollout is shadowing, admitted
   data requests are tapped (fire-and-forget) to the canary.
4. **Routing**: round-robin or consistent-hash over the routable
   replicas, with the ring's clockwise walk as the failover order.
5. **Retry**: a replica that fails at the connection level is marked
   down and the request retried on the next candidate (``fleet.retries``)
   — safe because the front only proxies idempotent GETs.  A ``503``
   from a draining replica also moves to the next candidate.

Proxied responses pass through byte-for-byte: the front adds no
envelope, so the fleet-wide property test can compare wire bytes against
the per-version reference dispatch directly.
"""

from __future__ import annotations

import itertools
import time
from typing import TYPE_CHECKING, Callable
from urllib.parse import parse_qsl, urlsplit

from repro.engine.metrics import MetricsRegistry
from repro.errors import ReplicaUnreachableError, RolloutInProgressError
from repro.fleet.ring import HashRing
from repro.fleet.targets import ReplicaSet, ReplicaTarget
from repro.serving.http import DATA_ENDPOINTS, encode_body
from repro.serving.ratelimit import TokenBucket

if TYPE_CHECKING:  # pragma: no cover — import cycle guard (controller ↔ front)
    from repro.fleet.controller import FleetController

#: Routing policies the front understands (the CLI's --hash/--round-robin).
ROUTE_POLICIES = ("round-robin", "hash")

#: Path prefix answered locally instead of proxied.
FLEET_PREFIX = "/fleet"


class FleetFront:
    """Routing core for a replica fleet; mounts on the serving transport.

    Args:
        replicas: The shared replica registry (also updated by the
            supervisor and rollout controller).
        metrics: Registry for fleet counters/histograms (fresh if omitted).
        bucket: Fleet-level admission bucket (unlimited if omitted).
        route: ``"round-robin"`` or ``"hash"``.
        clock: Monotonic-seconds source (latency measurements).

    Raises:
        ValueError: on an unknown routing policy.
    """

    def __init__(
        self,
        replicas: ReplicaSet,
        metrics: MetricsRegistry | None = None,
        bucket: TokenBucket | None = None,
        route: str = "round-robin",
        clock: Callable[[], float] = time.perf_counter,
    ):
        if route not in ROUTE_POLICIES:
            raise ValueError(
                f"unknown route policy: {route!r} (expected one of {ROUTE_POLICIES})"
            )
        self.replicas = replicas
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.bucket = bucket if bucket is not None else TokenBucket(rate=None)
        self.route = route
        self._clock = clock
        self._rr = itertools.count()
        self._ring: HashRing | None = None
        self._ring_revision = -1
        self._controller: "FleetController | None" = None
        self._mirror: Callable[[str, str], None] | None = None
        self.metrics.register_source("fleet", replicas.health_source)
        self.metrics.register_source("fleet.admission", self.bucket.snapshot_source)

    # ------------------------------------------------------------ controller
    def attach_controller(self, controller: "FleetController") -> None:
        """Wire the rollout controller behind ``/fleet/publish``/``status``."""
        self._controller = controller

    def set_mirror(self, mirror: Callable[[str, str], None] | None) -> None:
        """Install (or clear) the shadow-traffic tap.

        The tap receives every admitted data-endpoint ``(method,
        target)`` and must never block — the rollout's mirror enqueues
        onto a bounded queue and drops on overflow.
        """
        self._mirror = mirror

    # -------------------------------------------------------------- dispatch
    def dispatch(self, method: str, target: str) -> tuple[int, bytes]:
        """Serve one request: fleet endpoint locally, data by proxy."""
        split = urlsplit(target)
        path = split.path.rstrip("/") or "/"
        self.metrics.counter("fleet.requests")

        if path.startswith(FLEET_PREFIX):
            status, body = self._local(method, path, dict(parse_qsl(split.query)))
            return status, encode_body(body)

        if method != "GET":
            # The front proxies only idempotent reads; admin writes go to
            # the replicas (publisher) or to /fleet/publish (rollout).
            return 405, encode_body(
                {"error": f"method not allowed through the front: {method}"}
            )

        if path in DATA_ENDPOINTS:
            if not self.bucket.try_acquire():
                self.metrics.counter("fleet.shed")
                return 429, encode_body({"error": "rate limited; retry later"})
            mirror = self._mirror
            if mirror is not None:
                mirror(method, target)

        return self._proxy(method, target, path)

    def dispatch_blocks(self, method: str, target: str) -> bool:
        """Every proxied request blocks on a replica socket; only the
        locally answered ``/fleet/*`` endpoints stay on the event loop."""
        path = urlsplit(target).path.rstrip("/") or "/"
        return not path.startswith(FLEET_PREFIX)

    # ----------------------------------------------------------------- proxy
    def _candidates(self, target: str) -> list[ReplicaTarget]:
        """Routable replicas in try-order for ``target``."""
        routable = self.replicas.routable()
        if not routable:
            return []
        if self.route == "hash":
            revision = self.replicas.revision
            if self._ring is None or self._ring_revision != revision:
                # Ring membership is *all* replicas, not just routable
                # ones: a briefly-down replica keeps its key ownership,
                # so recovery restores affinity instead of reshuffling.
                self._ring = HashRing(self.replicas.ids())
                self._ring_revision = revision
            by_id = {replica.replica_id: replica for replica in routable}
            ordered = [
                by_id[owner] for owner in self._ring.order(target) if owner in by_id
            ]
            return ordered or routable
        start = next(self._rr) % len(routable)
        return routable[start:] + routable[:start]

    def _proxy(self, method: str, target: str, path: str) -> tuple[int, bytes]:
        """Forward to the first candidate that answers; retry across the
        rest on connection failure (and on 503 from draining replicas)."""
        candidates = self._candidates(target)
        if not candidates:
            self.metrics.counter("fleet.unroutable")
            return 503, encode_body({"error": "no replica available"})
        drained: tuple[int, bytes] | None = None
        for attempt, replica in enumerate(candidates):
            if attempt:
                self.metrics.counter("fleet.retries")
            start = self._clock()
            try:
                status, payload = replica.request(method, target)
            except ReplicaUnreachableError:
                replica.mark_down()
                self.metrics.counter("fleet.replica_errors")
                continue
            replica.mark_up()
            elapsed = self._clock() - start
            self.metrics.histogram(
                f"fleet.replica.{replica.replica_id}.latency"
            ).observe(elapsed)
            self.metrics.histogram("fleet.latency").observe(elapsed)
            if status == 503 and path in DATA_ENDPOINTS:
                # A draining replica is alive but refusing new work; the
                # request belongs on the next candidate.  Keep the 503 in
                # hand in case the whole fleet is draining.
                drained = (status, payload)
                continue
            return status, payload
        if drained is not None:
            return drained
        self.metrics.counter("fleet.unroutable")
        return 502, encode_body({"error": "all replicas unreachable"})

    # --------------------------------------------------------------- locals
    def _local(
        self, method: str, path: str, params: dict[str, str]
    ) -> tuple[int, dict]:
        """Answer one ``/fleet/*`` endpoint from front-local state."""
        if path == "/fleet/healthz":
            if method != "GET":
                return 405, {"error": "healthz requires GET"}
            return 200, self._healthz_body()
        if path == "/fleet/metrics":
            if method != "GET":
                return 405, {"error": "metrics requires GET"}
            return 200, {"metrics": self.metrics.snapshot()}
        if path == "/fleet/status":
            if method != "GET":
                return 405, {"error": "status requires GET"}
            if self._controller is None:
                return 400, {"error": "no rollout controller attached"}
            return 200, self._controller.status()
        if path == "/fleet/publish":
            if method != "POST":
                return 405, {"error": "publish requires POST"}
            if self._controller is None:
                return 400, {"error": "no rollout controller attached"}
            snapshot = params.get("snapshot")
            if not snapshot:
                return 400, {"error": "missing required parameter: snapshot"}
            gated = params.get("gate", "1") not in ("0", "false", "no")
            try:
                self._controller.start_publish(snapshot, gated=gated)
            except RolloutInProgressError as exc:
                return 409, {"error": str(exc)}
            return 202, {"accepted": True, "snapshot": snapshot, "gated": gated}
        return 404, {"error": f"unknown fleet endpoint: {path}"}

    def _healthz_body(self) -> dict[str, object]:
        """Fleet-level health: per-replica rows plus aggregate status."""
        rows = [target.describe() for target in self.replicas.targets()]
        routable = sum(1 for row in rows if row["state"] == "up")
        if not rows or routable == 0:
            status = "down"
        elif routable < len(rows):
            status = "degraded"
        else:
            status = "ok"
        body: dict[str, object] = {
            "status": status,
            "route": self.route,
            "replicas": rows,
            "routable": routable,
        }
        if self._controller is not None:
            body["version"] = self._controller.current_version
            body["rollout"] = self._controller.state_name
        return body
