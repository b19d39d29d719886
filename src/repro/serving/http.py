"""The serving front door: dispatch, admission, metrics, and the server.

Layering — each request passes through, in order:

1. **Admission** (:class:`~repro.serving.ratelimit.TokenBucket`): data
   endpoints only; a shed request is answered ``429`` in microseconds and
   counted under ``serving.shed``, so admitted requests keep their
   latency.  Operational endpoints (``/healthz``, ``/metrics``,
   ``/admin/reload``) are never shed — you must be able to observe and
   fix an overloaded server.
2. **Snapshot grab**: the live :class:`~repro.serving.state
   .ServingSnapshot` reference is read exactly once; the handler sees
   one immutable snapshot for its whole lifetime, which is what makes
   hot-swap safe under concurrent readers.
3. **Handler** (:mod:`repro.serving.handlers`): a pure function of the
   snapshot and query parameters.
4. **Encoding**: canonical JSON — ``sort_keys=True``, no ASCII escaping
   — so equal bodies are equal *bytes* (the property tests compare raw
   payloads).
5. **Latency recording**: one
   :class:`~repro.engine.metrics.LatencyHistogram` per endpoint
   (``serving.latency.<endpoint>``), surfaced by ``/metrics``.

:class:`ServingApp` is the transport-free core — tests drive it directly
via :meth:`ServingApp.dispatch` without sockets, and
:class:`~repro.serving.aio.AsyncStudyServer` mounts it on an asyncio
event loop.  Hot reload is exposed twice: ``POST /admin/reload`` and
(where the platform has it) ``SIGHUP`` via :func:`install_reload_signal`.
"""

from __future__ import annotations

import json
import signal
import threading
import time
from typing import Callable
from urllib.parse import parse_qsl, urlsplit

from repro.engine.metrics import MetricsRegistry
from repro.errors import ReproError
from repro.geo.point import GeoPoint
from repro.geocode.service import GeocodeService
from repro.serving import handlers
from repro.serving.batcher import SingleFlight
from repro.serving.ratelimit import TokenBucket
from repro.serving.state import ServingSnapshot, SnapshotStore

#: Content type of every response body.
CONTENT_TYPE = "application/json; charset=utf-8"

#: Endpoints subject to admission control.  Operational endpoints are
#: exempt: shedding ``/healthz`` would turn overload into a false outage.
DATA_ENDPOINTS = frozenset({"/lookup", "/region", "/regions", "/reverse", "/stats"})


def encode_body(body: dict) -> bytes:
    """Canonical JSON encoding: sorted keys, real UTF-8 (no ``\\uXXXX``).

    Canonicalisation is what upgrades "equal responses" to "byte-identical
    responses": two handlers returning equal dicts — possibly built in
    different key orders on different threads — always serialise to the
    same bytes.
    """
    return json.dumps(body, ensure_ascii=False, sort_keys=True).encode("utf-8")


class ServingApp:
    """Transport-independent request core shared by HTTP and tests.

    Args:
        store: Holder of the live snapshot (swapped by reload).
        geocoder: Tiered service answering ``/reverse``; single-flight is
            enabled on it here so concurrent duplicate lookups coalesce.
        metrics: Registry for counters/histograms (fresh one if omitted).
        bucket: Admission controller (unlimited if omitted).
        reloader: Zero-argument callable producing a fresh snapshot for
            ``POST /admin/reload`` / SIGHUP; ``None`` disables reload.
        snapshot_loader: One-argument callable loading a *named* snapshot
            artifact for ``POST /admin/reload?snapshot=<path>`` — how a
            fleet publisher ships a replica a snapshot it was not booted
            with.  ``None`` rejects path-targeted reloads.
    """

    def __init__(
        self,
        store: SnapshotStore,
        geocoder: GeocodeService,
        metrics: MetricsRegistry | None = None,
        bucket: TokenBucket | None = None,
        reloader: Callable[[], ServingSnapshot] | None = None,
        snapshot_loader: Callable[[str], ServingSnapshot] | None = None,
    ):
        self.store = store
        self.geocoder = geocoder
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.bucket = bucket if bucket is not None else TokenBucket(rate=None)
        self._reloader = reloader
        self._snapshot_loader = snapshot_loader
        self._draining = False
        self._reload_lock = threading.Lock()
        self.flight = SingleFlight()
        geocoder.enable_single_flight(self.flight)
        self.metrics.register_source("serving.snapshot", store.snapshot_source)
        self.metrics.register_source("serving.admission", self.bucket.snapshot_source)
        self.metrics.register_source(
            "serving.flight", lambda: self.flight.stats().as_dict()
        )
        self.metrics.register_source("serving.geocode", geocoder.stats_source)

    # ------------------------------------------------------------- dispatch
    def dispatch(self, method: str, target: str) -> tuple[int, bytes]:
        """Serve one request; returns ``(status, canonical JSON bytes)``.

        Args:
            method: HTTP method (``GET`` for queries, ``POST`` for admin).
            target: Request target, path plus optional query string
                (e.g. ``"/lookup?user=17"``).
        """
        split = urlsplit(target)
        path = split.path.rstrip("/") or "/"
        params = dict(parse_qsl(split.query))
        self.metrics.counter("serving.requests")

        if path in DATA_ENDPOINTS:
            # Drain is checked before admission: a draining server must
            # answer 503 (so fronts route elsewhere) without burning
            # bucket tokens it will never serve against.  In-flight
            # requests already past this point finish normally.
            if self._draining:
                self.metrics.counter("serving.drained")
                return 503, encode_body(
                    {"error": "draining; not accepting new requests"}
                )
            if not self.bucket.try_acquire():
                self.metrics.counter("serving.shed")
                return 429, encode_body({"error": "rate limited; retry later"})

        start = time.perf_counter()
        try:
            status, body = self._route(method, path, params)
        except Exception as exc:
            # An unexpected handler exception must still produce a
            # response: otherwise the server would tear down a
            # keep-alive pipeline with no bytes.  Expected failures (bad
            # params, geocode misses, reload errors) are already mapped
            # to 4xx/5xx by the handlers; anything reaching here is a
            # bug, answered uniformly and canonically.
            self.metrics.counter("serving.errors")
            status, body = 500, {
                "error": f"internal server error: {type(exc).__name__}"
            }
        endpoint = path.strip("/").replace("/", ".") or "overview"
        # Tag the sample with the store generation: the histogram window
        # partitions on it, so an /admin/reload swap can never leave
        # percentiles averaging old-snapshot and new-snapshot latencies.
        self.metrics.histogram(f"serving.latency.{endpoint}").observe(
            time.perf_counter() - start, epoch=self.store.generation
        )
        return status, encode_body(body)

    def dispatch_blocks(self, method: str, target: str) -> bool:
        """Whether dispatching ``target`` may block on a backend call.

        The only blocking path in the whole request surface is a *cold*
        ``/reverse`` cell — every other endpoint is a dictionary read off
        an immutable snapshot.  The asyncio front end
        (:mod:`repro.serving.aio`) uses this hint to route cold reverse
        lookups through an executor thread while serving everything else
        directly on the event loop.

        The probe is read-only (no stats, no LRU promotion) and advisory:
        a cell evicted between the probe and the dispatch costs one
        backend call on the event loop, which is safe, just slower for
        that one request.  Malformed or missing coordinates return
        ``False`` — those requests fail fast in the handler.
        """
        split = urlsplit(target)
        if (split.path.rstrip("/") or "/") != "/reverse":
            return False
        params = dict(parse_qsl(split.query))
        try:
            lat = float(params["lat"])
            lon = float(params["lon"])
        except (KeyError, ValueError):
            return False
        if not (-90.0 <= lat <= 90.0 and -180.0 <= lon <= 180.0):
            return False
        return not self.geocoder.is_cached(self.geocoder.cell_of(GeoPoint(lat, lon)))

    def _route(
        self, method: str, path: str, params: dict[str, str]
    ) -> tuple[int, dict]:
        """Map one (method, path) to its handler."""
        if path == "/admin/reload":
            if method != "POST":
                return 405, {"error": "reload requires POST"}
            return self.reload(params.get("snapshot"))
        if path == "/admin/drain":
            if method != "POST":
                return 405, {"error": "drain requires POST"}
            return self.drain()
        if path == "/admin/undrain":
            if method != "POST":
                return 405, {"error": "undrain requires POST"}
            return self.undrain()
        if method != "GET":
            return 405, {"error": f"method not allowed: {method}"}
        snapshot = self.store.current()
        if path == "/":
            return handlers.handle_overview(snapshot)
        if path == "/healthz":
            return handlers.handle_healthz(
                snapshot,
                self.store.generation,
                self.store.age_seconds(),
                draining=self._draining,
            )
        if path == "/metrics":
            return 200, {"metrics": self.metrics.snapshot()}
        if path == "/lookup":
            return handlers.handle_lookup(snapshot, params)
        if path == "/region":
            return handlers.handle_region(snapshot, params)
        if path == "/regions":
            return handlers.handle_regions(snapshot)
        if path == "/stats":
            return handlers.handle_stats(snapshot)
        if path == "/reverse":
            return handlers.handle_reverse(snapshot, self.geocoder, params)
        return 404, {"error": f"unknown endpoint: {path}"}

    # --------------------------------------------------------------- reload
    def reload(self, snapshot_path: str | None = None) -> tuple[int, dict]:
        """Load a fresh snapshot and swap it live (no requests dropped).

        With ``snapshot_path`` (``POST /admin/reload?snapshot=<path>``)
        the named artifact is loaded through ``snapshot_loader`` — the
        fleet publisher's way of shipping a replica a *new* version;
        without it the configured ``reloader`` re-reads its current
        source.  Serialised by a lock so overlapping reloads cannot
        interleave a load with a stale swap.  On a load failure the
        previous snapshot stays live — a bad file on disk never takes
        the server down, which is the keep-old-on-failure property the
        fleet rollback path leans on.
        """
        if snapshot_path is not None:
            if self._snapshot_loader is None:
                return 400, {"error": "snapshot reload not configured"}
            load = lambda: self._snapshot_loader(snapshot_path)  # noqa: E731
        elif self._reloader is not None:
            load = self._reloader
        else:
            return 400, {"error": "reload not configured"}
        with self._reload_lock:
            try:
                fresh = load()
            except ReproError as exc:
                self.metrics.counter("serving.reload_failures")
                return 500, {"error": f"reload failed: {exc}"}
            previous = self.store.swap(fresh)
        self.metrics.counter("serving.reloads")
        return 200, {
            "previous": previous.version,
            "current": fresh.version,
            "digest": fresh.digest,
            "changed": previous.version != fresh.version,
            "generation": self.store.generation,
        }

    # ---------------------------------------------------------------- drain
    def drain(self) -> tuple[int, dict]:
        """Stop accepting new data requests ahead of shutdown.

        In-flight requests finish (handlers already hold their snapshot
        reference); new data requests answer 503 and ``/healthz`` reports
        ``draining`` — the signal a fleet front or supervisor uses to
        route elsewhere before terminating the process.  Operational
        endpoints keep answering so the drain itself stays observable.
        Idempotent.
        """
        if not self._draining:
            self._draining = True
            self.metrics.counter("serving.drains")
        return 200, {"draining": True, "version": self.store.current().version}

    def undrain(self) -> tuple[int, dict]:
        """Resume accepting data requests (a cancelled shutdown). Idempotent."""
        self._draining = False
        return 200, {"draining": False, "version": self.store.current().version}

    @property
    def draining(self) -> bool:
        """Whether new data requests are currently being refused."""
        return self._draining


def install_reload_signal(app: ServingApp) -> bool:
    """Route ``SIGHUP`` to :meth:`ServingApp.reload` (classic daemon idiom).

    Only possible from the main thread of the main interpreter and on
    platforms that have ``SIGHUP``; returns whether the handler was
    installed.  ``POST /admin/reload`` works everywhere regardless.
    """
    if not hasattr(signal, "SIGHUP"):
        return False
    if threading.current_thread() is not threading.main_thread():
        return False

    def _on_hup(signum: int, frame: object) -> None:
        app.reload()

    signal.signal(signal.SIGHUP, _on_hup)
    return True


def render_serving_summary(app: ServingApp, host: str, port: int) -> str:
    """Startup banner for the CLI: where, what, and which version."""
    snapshot = app.store.current()
    lines = [
        f"serving {snapshot.dataset_name!r} on http://{host}:{port}",
        f"  snapshot version {snapshot.version} "
        f"({snapshot.total_users} users, {snapshot.total_tweets} tweets, "
        f"{len(snapshot.regions)} regions)",
        "  endpoints: /lookup /region /regions /stats /reverse "
        "/healthz /metrics /admin/reload /admin/drain",
    ]
    source = app.bucket.snapshot_source()
    if source["rate"] != "unlimited":
        lines.append(
            f"  admission: {source['rate']}/s sustained, burst {source['burst']}"
        )
    return "\n".join(lines)
