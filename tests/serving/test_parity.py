"""Conformance of the asyncio front door: wire bytes equal in-process
dispatch bytes.

The server mounts ``ServingApp.dispatch`` unchanged, so equal bodies are
structural, not coincidental — these tests pin the property anyway, at
the wire: a request corpus covering every endpoint, happy and sad
paths, driven down one keep-alive connection to a real
:class:`AsyncStudyServer` must produce ``(status, body)`` pairs
byte-identical to an in-process :meth:`ServingApp.dispatch` over the
same snapshot, on both seed datasets.  Under concurrent hot-swaps every
response must be byte-identical to what *one* of the two live snapshot
versions answers (the allowed-set check).

``/metrics`` is excluded from byte comparison (latency percentiles are
inherently timing-dependent) and asserted shape-only; ``/healthz`` is
included by freezing the snapshot stores' clocks so ``age_seconds`` is
deterministic.
"""

from __future__ import annotations

import threading

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
from tests.serving.test_ratelimit import FakeClock
from tests.serving.wire import WireClient


def _study(small_ctx, dataset: str):
    return small_ctx.korean_study if dataset == "korean" else small_ctx.ladygaga_study


def _gazetteer(small_ctx, dataset: str):
    dataset_obj = (
        small_ctx.korean_dataset if dataset == "korean" else small_ctx.ladygaga_dataset
    )
    return dataset_obj.gazetteer


def _make_app(small_ctx, dataset: str, snapshot: ServingSnapshot) -> ServingApp:
    """A ServingApp over ``snapshot`` with a frozen store clock and a
    fresh geocode service (own L1, own single-flight)."""
    store = SnapshotStore(snapshot, clock=FakeClock())
    geocoder = GeocodeService(
        DirectBackend(ReverseGeocoder(_gazetteer(small_ctx, dataset)))
    )
    return ServingApp(store, geocoder)


def _request_corpus(small_ctx, dataset: str, snapshot: ServingSnapshot):
    """Every endpoint, happy and sad paths: ``(method, target)`` pairs."""
    study = _study(small_ctx, dataset)
    users = sorted(snapshot.users)
    states = sorted(snapshot.regions)
    districts = list(study.profile_districts.values())
    corpus: list[tuple[str, str]] = [
        ("GET", "/"),
        ("GET", "/healthz"),
        ("GET", "/healthz/"),  # trailing-slash normalisation
        ("GET", "/regions"),
        ("GET", "/stats"),
        ("GET", "/lookup"),  # missing param
        ("GET", "/lookup?user=not-a-number"),
        ("GET", "/lookup?user=999999999"),  # unknown user
        ("GET", "/region"),  # missing param
        ("GET", "/region?state=Atlantis"),  # unknown region
        ("GET", "/reverse"),  # missing params
        ("GET", "/reverse?lat=abc&lon=127.0"),
        ("GET", "/reverse?lat=95.0&lon=127.0"),  # out of range
        ("GET", "/nope"),  # 404
        ("POST", "/regions"),  # 405
        ("GET", "/admin/reload"),  # 405 (reload wants POST)
        ("POST", "/admin/reload"),  # 400 (no reloader configured)
    ]
    corpus.extend(("GET", f"/lookup?user={uid}") for uid in users[:3])
    corpus.extend(("GET", f"/region?state={state}") for state in states[:2])
    corpus.extend(
        ("GET", f"/reverse?lat={d.center.lat:.4f}&lon={d.center.lon:.4f}")
        for d in districts[:3]
    )
    return corpus


def _drive(port: int, corpus) -> list[tuple[int, bytes]]:
    """Run the whole corpus down one keep-alive connection, in order."""
    results = []
    with WireClient(port) as client:
        for method, target in corpus:
            client.send(method, target)
            status, _, body = client.read_response()
            results.append((status, body))
    return results


@pytest.mark.parametrize("dataset", ["korean", "ladygaga"])
class TestByteParity:
    def test_servers_answer_byte_identically(self, small_ctx, dataset):
        snapshot = ServingSnapshot.from_study(_study(small_ctx, dataset))
        corpus = _request_corpus(small_ctx, dataset, snapshot)

        reference = _make_app(small_ctx, dataset, snapshot)
        expected = [reference.dispatch(m, t) for m, t in corpus]

        server = AsyncServerThread(_make_app(small_ctx, dataset, snapshot)).start()
        try:
            got = _drive(server.port, corpus)
        finally:
            server.shutdown()

        for (method, target), want, wire in zip(corpus, expected, got):
            assert wire == want, f"wire differs from dispatch on {method} {target}"

    def test_metrics_endpoint_shape_parity(self, small_ctx, dataset):
        """``/metrics`` bodies are timing-dependent; conformance here is
        status + top-level shape, not bytes."""
        import json

        snapshot = ServingSnapshot.from_study(_study(small_ctx, dataset))
        server = AsyncServerThread(_make_app(small_ctx, dataset, snapshot)).start()
        try:
            with WireClient(server.port) as client:
                status, body = client.get("/metrics")
        finally:
            server.shutdown()
        assert status == 200
        metrics = json.loads(body)["metrics"]
        assert metrics["serving.requests"] == 1
        assert metrics["serving.snapshot.generation"] == 1


#: Snapshot-backed endpoints whose bodies are pure functions of the live
#: snapshot — the surface the hot-swap allowed-set property ranges over.
_SWAP_TARGETS_LIMIT = 12

#: Hot-swap pressure: total store swaps performed while clients drive.
_SWAP_COUNT = 40


@pytest.mark.parametrize("base", ["korean", "ladygaga"])
class TestHotSwapParity:
    def test_responses_under_concurrent_swaps_match_an_allowed_version(
        self, small_ctx, korean_snapshot, ladygaga_snapshot, base
    ):
        """While the server's store hot-swaps between the two dataset
        snapshots, every wire response must be byte-identical to the
        dispatch answer of *one* of the two versions — a torn or mixed
        body matches neither.  Each dataset takes a turn as the boot
        version (and supplies the corpus)."""
        v1, v2 = (
            (korean_snapshot, ladygaga_snapshot)
            if base == "korean"
            else (ladygaga_snapshot, korean_snapshot)
        )
        corpus = [
            (m, t)
            for m, t in _request_corpus(small_ctx, base, v1)
            if m == "GET"
            and not t.startswith("/reverse")  # geocode: not snapshot-backed
            and t not in ("/metrics", "/healthz", "/healthz/")  # generation-dependent
        ][:_SWAP_TARGETS_LIMIT]

        ref_v1 = _make_app(small_ctx, base, v1)
        ref_v2 = _make_app(small_ctx, base, v2)
        allowed = {
            target: {
                ref_v1.dispatch(method, target),
                ref_v2.dispatch(method, target),
            }
            for method, target in corpus
        }

        server = AsyncServerThread(_make_app(small_ctx, base, v1)).start()
        stop_swapping = threading.Event()

        def swapper():
            flip = [v2, v1]
            for i in range(_SWAP_COUNT):
                if stop_swapping.is_set():
                    return
                server.app.store.swap(flip[i % 2])

        failures: list[str] = []

        def client_worker(index: int):
            try:
                for _ in range(3):
                    for (method, target), got in zip(corpus, _drive(server.port, corpus)):
                        if got not in allowed[target]:
                            failures.append(
                                f"client {index}: {method} {target} answered a "
                                "body matching neither snapshot version"
                            )
            except Exception as exc:  # surfaced after join
                failures.append(f"client {index}: error: {exc!r}")

        swap_thread = threading.Thread(target=swapper)
        workers = [
            threading.Thread(target=client_worker, args=(index,))
            for index in range(4)
        ]
        try:
            for worker in workers:
                worker.start()
            swap_thread.start()
            for worker in workers:
                worker.join(timeout=60.0)
            stop_swapping.set()
            swap_thread.join(timeout=10.0)
        finally:
            stop_swapping.set()
            server.shutdown()
        assert not failures, failures[:5]
