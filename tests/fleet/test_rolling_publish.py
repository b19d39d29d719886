"""The fleet-wide allowed-set property under a rolling publish.

While a health-gated publish migrates the fleet from snapshot v1 to v2
under concurrent client load, every response served anywhere in the
fleet must be byte-identical to what *one* of the two versions answers —
never a torn, mixed, or third-state body.  This generalises the PR 5/8
hot-swap parity check across process boundaries: the canary holds v2
while the rest serve v1, the promote fan-out flips replicas one at a
time, and the front's retries stitch it all together; none of that may
ever be visible in response bytes.

Runs on both seed datasets (each takes a turn as the outgoing version).
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.fleet import (
    FleetController,
    FleetFront,
    RolloutConfig,
    SnapshotPublisher,
)
from repro.serving import AsyncServerThread, ServingSnapshot
from tests.serving.test_parity import _make_app
from tests.serving.wire import WireClient

_CLIENTS = 3


def _corpus(v1: ServingSnapshot, v2: ServingSnapshot) -> list[tuple[str, str]]:
    """Snapshot-backed GET targets, valid and invalid under either version."""
    corpus = [("GET", "/stats"), ("GET", "/regions")]
    for snapshot in (v1, v2):
        corpus.extend(
            ("GET", f"/lookup?user={uid}") for uid in sorted(snapshot.users)[:2]
        )
        corpus.extend(
            ("GET", f"/region?state={state}")
            for state in sorted(snapshot.regions)[:2]
        )
    corpus.append(("GET", "/lookup?user=999999999"))
    corpus.append(("GET", "/region?state=Atlantis"))
    return corpus


@pytest.mark.parametrize("base", ["korean", "ladygaga"])
class TestRollingPublish:
    def test_every_response_matches_one_of_the_two_versions(
        self, small_ctx, korean_snapshot, ladygaga_snapshot, base, make_fleet,
    ):
        v1, v2 = (
            (korean_snapshot, ladygaga_snapshot)
            if base == "korean"
            else (ladygaga_snapshot, korean_snapshot)
        )
        corpus = _corpus(v1, v2)
        ref_v1 = _make_app(small_ctx, base, v1)
        ref_v2 = _make_app(small_ctx, base, v2)
        allowed = {
            target: {
                ref_v1.dispatch(method, target),
                ref_v2.dispatch(method, target),
            }
            for method, target in corpus
        }

        replicas, targets = make_fleet(
            count=3, snapshots={"v1": v1, "v2": v2}, boot="v1"
        )
        front = FleetFront(targets)
        controller = FleetController(
            front,
            SnapshotPublisher(targets, metrics=front.metrics),
            current_path="v1",
            config=RolloutConfig(min_shadow_samples=5, shadow_timeout_s=20.0),
            metrics=front.metrics,
        )
        server = AsyncServerThread(front).start()
        stop = threading.Event()
        failures: list[str] = []
        passes = [0] * _CLIENTS

        def client_worker(index: int):
            try:
                with WireClient(server.port) as client:
                    while True:
                        for method, target in corpus:
                            client.send(method, target)
                            status, _, body = client.read_response()
                            if (status, body) not in allowed[target]:
                                failures.append(
                                    f"client {index}: {method} {target} answered "
                                    f"{status} with a body matching neither "
                                    "snapshot version"
                                )
                        passes[index] += 1
                        # Every client finishes at least one full pass
                        # *after* the rollout completes, so the post-
                        # promote state is exercised too.
                        if stop.is_set():
                            return
            except Exception as exc:  # surfaced after join
                failures.append(f"client {index}: error: {exc!r}")

        workers = [
            threading.Thread(target=client_worker, args=(i,))
            for i in range(_CLIENTS)
        ]
        try:
            for worker in workers:
                worker.start()
            controller.start_publish("v2")
            assert controller.wait(timeout_s=60.0), "rollout never finished"
            stop.set()
            for worker in workers:
                worker.join(timeout=30.0)
                assert not worker.is_alive(), "client worker hung"
        finally:
            stop.set()
            server.shutdown()
            controller.shutdown()

        assert not failures, failures[:5]
        assert all(count >= 1 for count in passes)

        outcome = controller.status()["last_rollout"]
        assert outcome["promoted"] is True, outcome
        for replica in replicas:
            assert replica.app.store.current().digest == v2.digest
        # And with the fleet converged, responses equal v2's exactly.
        for method, target in corpus:
            assert front.dispatch(method, target) == ref_v2.dispatch(method, target)
