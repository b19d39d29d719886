"""Single-flight coalescing through the asyncio front door
(BENCH_asyncio.json).

BENCH_serving measures the transport-free dispatch core; this benchmark
drives the transport: a duplicate-heavy cold ``/reverse`` mix over real
sockets, through keep-alive connections that pipeline requests in
batches, must still cost at most one backend call per distinct cell —
the executor split re-enters the same single-flight service.  Results
accumulate in ``benchmarks/output/BENCH_asyncio.json``.
"""

from __future__ import annotations

import json
import random
import socket
import threading
import time
from pathlib import Path

import pytest

from repro.geo.reverse import ReverseGeocoder
from repro.geocode.backend import DirectBackend
from repro.geocode.service import GeocodeService
from repro.serving import (
    AsyncServerThread,
    ServingApp,
    ServingSnapshot,
    SnapshotStore,
)

_OUTPUT = Path(__file__).parent / "output" / "BENCH_asyncio.json"

#: Closed-loop client connections (each is one keep-alive socket).
WORKERS = 8

#: Requests pipelined per batch: send B, then read B responses.
BATCH_SIZE = 32


def _merge_into_report(payload: dict) -> None:
    _OUTPUT.parent.mkdir(exist_ok=True)
    report = {}
    if _OUTPUT.exists():
        report = json.loads(_OUTPUT.read_text(encoding="utf-8"))
    report.update(payload)
    _OUTPUT.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")


def _batch_bytes(targets: list[str]) -> bytes:
    """One pipelined batch: B framed GETs in a single send."""
    return b"".join(
        f"GET {target} HTTP/1.1\r\n\r\n".encode("latin-1") for target in targets
    )


def _read_responses(reader, count: int) -> int:
    """Read ``count`` responses off a buffered reader; returns 200s seen."""
    ok = 0
    for _ in range(count):
        status_line = reader.readline()
        if not status_line:
            raise AssertionError("server closed the connection mid-batch")
        status = int(status_line.split()[1])
        length = 0
        while True:
            line = reader.readline()
            if line in (b"\r\n", b"\n"):
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                length = int(value)
        body = reader.read(length)
        assert len(body) == length
        if status == 200:
            ok += 1
    return ok


def _closed_loop(port: int, plans: list[list[list[str]]]):
    """Drive every worker's batch plan; returns (ok_count, batch_times, wall_s).

    Each worker holds one keep-alive connection and runs a closed loop at
    batch granularity: send one pipelined batch, read all its responses,
    record the batch's wall time, repeat.
    """
    lock = threading.Lock()
    totals = {"ok": 0}
    batch_times: list[float] = []

    def worker(batches: list[list[str]]) -> None:
        sock = socket.create_connection(("127.0.0.1", port), timeout=30.0)
        reader = sock.makefile("rb")
        ok = 0
        times = []
        try:
            for targets in batches:
                started = time.perf_counter()
                sock.sendall(_batch_bytes(targets))
                ok += _read_responses(reader, len(targets))
                times.append(time.perf_counter() - started)
        finally:
            reader.close()
            sock.close()
        with lock:
            totals["ok"] += ok
            batch_times.extend(times)

    threads = [threading.Thread(target=worker, args=(plan,)) for plan in plans]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall_s = time.perf_counter() - start
    return totals["ok"], batch_times, wall_s


@pytest.mark.slow
def test_single_flight_survives_the_event_loop(ctx):
    """The BENCH_serving batching claim holds through the asyncio
    transport: a duplicate-heavy cold ``/reverse`` mix over many
    connections still costs at most one backend call per distinct cell
    (the executor split re-enters the same single-flight service)."""

    class SlowBackend:
        """Millisecond-scale lookups so duplicate misses really overlap."""

        def __init__(self, inner, delay_s: float = 0.005):
            self._inner = inner
            self._delay_s = delay_s

        def lookup(self, point):
            """One delayed lookup through the wrapped backend."""
            time.sleep(self._delay_s)
            return self._inner.lookup(point)

    snapshot = ServingSnapshot.from_study(ctx.korean_study)
    geocoder = GeocodeService(
        SlowBackend(DirectBackend(ReverseGeocoder(ctx.korean_dataset.gazetteer)))
    )
    app = ServingApp(SnapshotStore(snapshot), geocoder)

    rng = random.Random(19)
    districts = list(ctx.korean_study.profile_districts.values())
    cells = [
        f"/reverse?lat={d.center.lat:.4f}&lon={d.center.lon:.4f}"
        for d in rng.sample(districts, min(16, len(districts)))
    ]
    # Every worker opens with the same cold walk, so misses collide.
    plans = [
        [cells + [rng.choice(cells) for _ in range(BATCH_SIZE - len(cells))]]
        for _ in range(WORKERS)
    ]

    server = AsyncServerThread(app).start()
    try:
        ok, _, wall_s = _closed_loop(server.port, plans)
    finally:
        server.shutdown()

    requests = sum(len(batch) for plan in plans for batch in plan)
    assert ok == requests
    metrics = app.metrics.snapshot()
    backend_lookups = int(metrics["serving.geocode.backend.lookups"])
    assert backend_lookups <= len(cells)
    assert app.flight.stats().followers > 0

    _merge_into_report(
        {
            "asyncio_single_flight": {
                "requests": requests,
                "distinct_cells": len(cells),
                "backend_lookups": backend_lookups,
                "coalesced_followers": app.flight.stats().followers,
                "wall_s": round(wall_s, 4),
            }
        }
    )
    print(
        f"\nasyncio single-flight: {requests} geocode requests over "
        f"{len(cells)} cells -> {backend_lookups} backend lookups"
    )
