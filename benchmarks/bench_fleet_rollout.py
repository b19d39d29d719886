"""Fleet serving benchmark: rollout convergence, rollback latency, front
overhead (BENCH_fleet.json).

Three questions an operator asks of the fleet layer, each with a gated
floor so a regression fails the bench run:

* **Convergence** — from ``start_publish`` to every replica serving the
  new digest, through the full canary/shadow/promote pipeline under
  live traffic.  Floor: under ``CONVERGENCE_FLOOR_S``.
* **Rollback latency** — from ``start_publish`` of a snapshot whose
  canary error-spikes to the fleet being verifiably back on the old
  version.  Floor: under ``ROLLBACK_FLOOR_S``.
* **Front overhead** — closed-loop throughput through the fleet front
  (routing + admission + proxy pooling) against the same client pool
  hitting one replica directly.  Floor: the front keeps at least
  ``OVERHEAD_FLOOR`` of direct throughput.

Replicas are in-process (real ``ServingApp`` on real asyncio-server
sockets) so the numbers measure the fleet machinery, not subprocess
boot cost.  Run with ``-m slow -s``; results merge into
``benchmarks/output/BENCH_fleet.json``.
"""

from __future__ import annotations

import json
import random
import threading
import time
from pathlib import Path

import pytest

from repro.errors import NotFoundError
from repro.fleet import (
    FleetController,
    FleetFront,
    ReplicaSet,
    ReplicaTarget,
    RolloutConfig,
    SnapshotPublisher,
)
from repro.geo.reverse import ReverseGeocoder
from repro.geocode.backend import DirectBackend
from repro.geocode.service import GeocodeService
from repro.serving import ServingApp, ServingSnapshot, SnapshotStore
from repro.serving.aio import AsyncServerThread

_OUTPUT = Path(__file__).parent / "output" / "BENCH_fleet.json"

#: In-process replicas behind the front.
REPLICAS = 3

#: Closed-loop client threads offering traffic.
WORKERS = 4

#: Requests per worker in the overhead comparison.
REQUESTS_PER_WORKER = 300

#: Shadow samples the gate needs during the timed rollouts.
SHADOW_SAMPLES = 20

#: A full gated rollout (canary + shadow + promote) must converge in this.
CONVERGENCE_FLOOR_S = 20.0

#: Detecting a bad canary and restoring the old version must fit in this.
ROLLBACK_FLOOR_S = 20.0

#: The front must retain at least this fraction of direct throughput.
OVERHEAD_FLOOR = 0.5


def _merge_into_report(payload: dict) -> None:
    _OUTPUT.parent.mkdir(exist_ok=True)
    report = {}
    if _OUTPUT.exists():
        report = json.loads(_OUTPUT.read_text(encoding="utf-8"))
    report.update(payload)
    _OUTPUT.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")


class _ErrorOnV2:
    """App wrapper that 500s data requests once snapshot v2 is live."""

    def __init__(self, app: ServingApp):
        self.app = app
        self.bad_digest: str | None = None

    @property
    def metrics(self):
        return self.app.metrics

    def dispatch(self, method: str, target: str):
        if (
            self.bad_digest is not None
            and self.app.store.current().digest == self.bad_digest
            and not target.startswith(("/healthz", "/metrics", "/admin"))
        ):
            return 500, b'{"error": "injected canary fault"}'
        return self.app.dispatch(method, target)

    def dispatch_blocks(self, method: str, target: str) -> bool:
        return self.app.dispatch_blocks(method, target)


def _build_fleet(ctx, faulty_first: bool = False):
    """REPLICAS in-process replicas on v1 (korean), v2 = ladygaga."""
    v1 = ServingSnapshot.from_study(ctx.korean_study)
    v2 = ServingSnapshot.from_study(ctx.ladygaga_study)
    snapshots = {"v1": v1, "v2": v2}
    targets = ReplicaSet()
    servers, wrappers = [], []
    for index in range(REPLICAS):
        def loader(path, _s=snapshots):
            if path not in _s:
                raise NotFoundError(f"unknown snapshot key: {path}")
            return _s[path]

        app = ServingApp(
            SnapshotStore(v1),
            GeocodeService(
                DirectBackend(ReverseGeocoder(ctx.korean_dataset.gazetteer))
            ),
            snapshot_loader=loader,
        )
        mounted = app
        if faulty_first and index == 0:
            mounted = _ErrorOnV2(app)
            mounted.bad_digest = v2.digest
            wrappers.append(mounted)
        server = AsyncServerThread(mounted).start()
        servers.append(server)
        targets.add(ReplicaTarget(f"r{index}", "127.0.0.1", server.port))
    return v1, v2, targets, servers


def _traffic(front, stop, user_ids):
    rng = random.Random(23)
    while not stop.is_set():
        front.dispatch("GET", f"/lookup?user={rng.choice(user_ids)}")
        front.dispatch("GET", "/stats")


def _run_rollout(ctx, faulty_first: bool):
    """Time one gated rollout under traffic; returns (outcome, seconds, ...)."""
    v1, v2, targets, servers = _build_fleet(ctx, faulty_first=faulty_first)
    front = FleetFront(targets)
    publisher = SnapshotPublisher(targets, metrics=front.metrics)
    controller = FleetController(
        front,
        publisher,
        current_path="v1",
        current_digest=v1.digest,
        config=RolloutConfig(
            min_shadow_samples=SHADOW_SAMPLES,
            max_error_rate=0.05,
            shadow_timeout_s=CONVERGENCE_FLOOR_S,
        ),
        metrics=front.metrics,
    )
    stop = threading.Event()
    user_ids = sorted(v1.users)[:50]
    drivers = [
        threading.Thread(target=_traffic, args=(front, stop, user_ids))
        for _ in range(WORKERS)
    ]
    try:
        for driver in drivers:
            driver.start()
        start = time.perf_counter()
        controller.start_publish("v2")
        assert controller.wait(timeout_s=CONVERGENCE_FLOOR_S * 3)
        expected = v1.digest if faulty_first else v2.digest
        deadline = time.perf_counter() + 10.0
        while not publisher.converged(expected):
            assert time.perf_counter() < deadline, "fleet never converged"
            time.sleep(0.02)
        elapsed = time.perf_counter() - start
    finally:
        stop.set()
        for driver in drivers:
            driver.join(timeout=10.0)
        controller.shutdown()
        for server in servers:
            server.shutdown()
        targets.close()
    return controller.status()["last_rollout"], elapsed


@pytest.mark.slow
def test_rollout_convergence_time(ctx):
    """Canary → shadow → promote under traffic, timed to convergence."""
    outcome, elapsed = _run_rollout(ctx, faulty_first=False)
    assert outcome["promoted"] is True, outcome
    _merge_into_report(
        {
            "rollout_convergence": {
                "replicas": REPLICAS,
                "shadow_samples": outcome["shadow"]["samples"],
                "convergence_s": round(elapsed, 3),
                "floor_s": CONVERGENCE_FLOOR_S,
            }
        }
    )
    print(
        f"\ngated rollout over {REPLICAS} replicas converged in "
        f"{elapsed:.2f}s (floor {CONVERGENCE_FLOOR_S:.0f}s, "
        f"{outcome['shadow']['samples']} shadow samples)"
    )
    assert elapsed < CONVERGENCE_FLOOR_S, (
        f"rollout took {elapsed:.2f}s, over the {CONVERGENCE_FLOOR_S:.0f}s floor"
    )


@pytest.mark.slow
def test_rollback_latency_after_canary_fault(ctx):
    """An error-spiking canary must be caught and rolled back quickly."""
    outcome, elapsed = _run_rollout(ctx, faulty_first=True)
    assert outcome["promoted"] is False, outcome
    assert outcome["verdict"] == "fail-error-rate", outcome
    _merge_into_report(
        {
            "rollback_latency": {
                "replicas": REPLICAS,
                "verdict": outcome["verdict"],
                "shadow_error_rate": outcome["shadow"]["error_rate"],
                "rollback_s": round(elapsed, 3),
                "floor_s": ROLLBACK_FLOOR_S,
            }
        }
    )
    print(
        f"\ncanary error spike detected and rolled back in {elapsed:.2f}s "
        f"(floor {ROLLBACK_FLOOR_S:.0f}s)"
    )
    assert elapsed < ROLLBACK_FLOOR_S, (
        f"rollback took {elapsed:.2f}s, over the {ROLLBACK_FLOOR_S:.0f}s floor"
    )


@pytest.mark.slow
def test_front_overhead_vs_direct(ctx):
    """The front's routing/admission/proxy layer keeps most of the
    throughput of hitting a single replica directly."""
    v1, _, targets, servers = _build_fleet(ctx)
    front = FleetFront(targets)
    direct = targets.targets()[0]
    user_ids = sorted(v1.users)[:50]
    rng = random.Random(29)
    plan = [f"/lookup?user={rng.choice(user_ids)}" for _ in range(REQUESTS_PER_WORKER)]

    def closed_loop(issue) -> float:
        stop_err: list[str] = []

        def worker():
            for target in plan:
                status, _ = issue("GET", target)
                if status not in (200, 404):
                    stop_err.append(f"status {status}")
                    return

        threads = [threading.Thread(target=worker) for _ in range(WORKERS)]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - start
        assert not stop_err, stop_err[0]
        return (WORKERS * len(plan)) / wall

    try:
        direct_rps = closed_loop(direct.request)
        front_rps = closed_loop(front.dispatch)
    finally:
        for server in servers:
            server.shutdown()
        targets.close()

    ratio = front_rps / direct_rps
    _merge_into_report(
        {
            "front_overhead": {
                "workers": WORKERS,
                "requests": WORKERS * len(plan) * 2,
                "direct_rps": round(direct_rps, 1),
                "front_rps": round(front_rps, 1),
                "front_vs_direct": round(ratio, 3),
                "floor": OVERHEAD_FLOOR,
            }
        }
    )
    print(
        f"\nfront overhead: direct {direct_rps:.0f} rps, via front "
        f"{front_rps:.0f} rps ({ratio:.2f}x, floor {OVERHEAD_FLOOR}x)"
    )
    assert ratio >= OVERHEAD_FLOOR, (
        f"front retained {ratio:.2f}x of direct throughput, "
        f"below the {OVERHEAD_FLOOR}x floor"
    )
