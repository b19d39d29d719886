"""Fleet test rig: in-process replicas over real sockets.

Subprocess replicas (the production path) cost ~2s each to boot, so most
fleet tests run against *in-process* replicas instead: a real
:class:`~repro.serving.http.ServingApp` on a real
:class:`~repro.serving.aio.AsyncServerThread` socket, whose
``snapshot_loader`` resolves opaque version keys (``"v1"``, ``"v2"``)
from a dict instead of reading disk.  The publisher and controller do
not care — a "path" is just the string replicas are told to load — so
the whole publish/rollout machinery runs unmodified while tests stay
fast and can inject faults by wrapping the app.  The subprocess path
gets its own dedicated tests in ``test_subprocess_fleet.py``.
"""

from __future__ import annotations

import time

import pytest

from repro.errors import NotFoundError
from repro.fleet import ReplicaSet, ReplicaTarget
from repro.geo.reverse import ReverseGeocoder
from repro.geocode.backend import DirectBackend
from repro.geocode.service import GeocodeService
from repro.serving import ServingApp, ServingSnapshot, SnapshotStore
from repro.serving.aio import AsyncServerThread
from repro.serving.http import DATA_ENDPOINTS
from urllib.parse import urlsplit


@pytest.fixture(scope="session")
def korean_snapshot(small_ctx) -> ServingSnapshot:
    return ServingSnapshot.from_study(small_ctx.korean_study)


@pytest.fixture(scope="session")
def ladygaga_snapshot(small_ctx) -> ServingSnapshot:
    return ServingSnapshot.from_study(small_ctx.ladygaga_study)


class FaultInjector:
    """App wrapper that misbehaves on demand (canary fault injection).

    ``mode`` is ``None`` (transparent), ``"errors"`` (data endpoints
    answer 500), or ``"slow"`` (data endpoints stall ``delay_s`` first) —
    the two canary faults the rollout gate must catch.
    """

    def __init__(self, app: ServingApp | None = None, delay_s: float = 0.05):
        self.app = app  # wired to the replica's real app by the rig
        self.mode: str | None = None
        self.delay_s = delay_s

    @property
    def metrics(self):
        return self.app.metrics

    def dispatch(self, method: str, target: str) -> tuple[int, bytes]:
        path = urlsplit(target).path.rstrip("/") or "/"
        if path in DATA_ENDPOINTS:
            if self.mode == "errors":
                return 500, b'{"error": "injected canary fault"}'
            if self.mode == "slow":
                time.sleep(self.delay_s)
        return self.app.dispatch(method, target)

    def dispatch_blocks(self, method: str, target: str) -> bool:
        return self.app.dispatch_blocks(method, target)


class InProcessReplica:
    """One in-process replica: app + asyncio server + fleet target."""

    def __init__(
        self,
        replica_id: str,
        snapshots: dict[str, ServingSnapshot],
        boot: str,
        gazetteer,
        fault: FaultInjector | None = None,
        on_load=None,
    ):
        self.replica_id = replica_id

        def snapshot_loader(path: str) -> ServingSnapshot:
            if path not in snapshots:
                raise NotFoundError(f"unknown snapshot key: {path}")
            if on_load is not None:
                on_load(self, path)
            return snapshots[path]

        self.app = ServingApp(
            SnapshotStore(snapshots[boot]),
            GeocodeService(DirectBackend(ReverseGeocoder(gazetteer))),
            snapshot_loader=snapshot_loader,
        )
        self.fault = fault
        mounted = self.app if fault is None else fault
        if fault is not None:
            fault.app = self.app
        self.server = AsyncServerThread(mounted).start()
        self.target = ReplicaTarget(replica_id, "127.0.0.1", self.server.port)

    @property
    def port(self) -> int:
        return self.server.port

    def kill(self) -> None:
        """Simulate process death: stop the server (which closes its open
        connections, as a dead process would) AND drop the front's pooled
        keep-alive connections to it."""
        port = self.server.port
        self.server.shutdown()
        self.target.rebind(port)

    def stop(self) -> None:
        self.target.close()
        self.server.shutdown()


@pytest.fixture
def make_fleet(small_ctx, korean_snapshot, ladygaga_snapshot):
    """Factory building an in-process fleet and tearing it down after.

    Returns ``(replicas: list[InProcessReplica], targets: ReplicaSet)``.
    The default snapshot catalogue maps ``"v1"`` to the Korean snapshot
    and ``"v2"`` to the Lady Gaga one — two genuinely different digests.
    """
    built: list[InProcessReplica] = []
    sets: list[ReplicaSet] = []

    def build(
        count: int = 3,
        snapshots: dict[str, ServingSnapshot] | None = None,
        boot: str = "v1",
        faults: dict[int, FaultInjector] | None = None,
        on_load=None,
    ):
        catalogue = snapshots or {"v1": korean_snapshot, "v2": ladygaga_snapshot}
        targets = ReplicaSet()
        replicas = []
        for index in range(count):
            replica = InProcessReplica(
                f"r{index}",
                catalogue,
                boot,
                small_ctx.korean_dataset.gazetteer,
                fault=(faults or {}).get(index),
                on_load=on_load,
            )
            replicas.append(replica)
            built.append(replica)
            targets.add(replica.target)
        sets.append(targets)
        return replicas, targets

    yield build
    for replica in built:
        replica.stop()


@pytest.fixture
def fleet_geocoder(small_ctx):
    """A fresh geocode service over the Korean gazetteer."""
    return GeocodeService(
        DirectBackend(ReverseGeocoder(small_ctx.korean_dataset.gazetteer))
    )
