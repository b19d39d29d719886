"""Online serving of study results (`repro serve`).

The batch/streaming pipelines answer "what did the study find?"; this
package answers it *per query, online*: load a saved
:class:`~repro.analysis.correlation.StudyResult` into an immutable,
versioned :class:`ServingSnapshot` and serve per-user match lookups,
per-region reliability stats, and reverse-geocoding over a stdlib-only
JSON HTTP API — with the production machinery a long-lived query server
needs: single-flight coalescing of duplicate geocode lookups
(:class:`SingleFlight`), token-bucket load shedding
(:class:`TokenBucket`), per-endpoint latency histograms, and atomic
hot-swap of snapshots (``SIGHUP`` / ``POST /admin/reload``) without
dropping in-flight requests.

Layer map:

* :mod:`repro.serving.state` — :class:`ServingSnapshot` (immutable,
  content-versioned), :class:`SnapshotStore` (atomic swap),
  :func:`load_snapshot`.
* :mod:`repro.serving.batcher` — :class:`SingleFlight` /
  :class:`FlightStats`.
* :mod:`repro.serving.ratelimit` — :class:`TokenBucket`.
* :mod:`repro.serving.handlers` — pure ``(snapshot, params) -> (status,
  body)`` endpoint functions.
* :mod:`repro.serving.http` — :class:`ServingApp` (dispatch, admission,
  metrics), reload plumbing.
* :mod:`repro.serving.aio` — :class:`AsyncStudyServer`, the one HTTP
  transport (the app on one asyncio event loop: keep-alive, pipelining,
  executor off-load for cold ``/reverse``), and
  :class:`AsyncServerThread`, its background-thread harness.
"""

from repro.serving.aio import AsyncServerThread, AsyncStudyServer
from repro.serving.batcher import FlightStats, SingleFlight
from repro.serving.handlers import (
    handle_healthz,
    handle_lookup,
    handle_overview,
    handle_region,
    handle_regions,
    handle_reverse,
    handle_stats,
)
from repro.serving.http import (
    ServingApp,
    encode_body,
    install_reload_signal,
    render_serving_summary,
)
from repro.serving.ratelimit import TokenBucket
from repro.serving.state import (
    ServingSnapshot,
    SnapshotStore,
    load_snapshot,
)

__all__ = [
    "AsyncServerThread",
    "AsyncStudyServer",
    "FlightStats",
    "ServingApp",
    "ServingSnapshot",
    "SingleFlight",
    "SnapshotStore",
    "TokenBucket",
    "encode_body",
    "handle_healthz",
    "handle_lookup",
    "handle_overview",
    "handle_region",
    "handle_regions",
    "handle_reverse",
    "handle_stats",
    "install_reload_signal",
    "load_snapshot",
    "render_serving_summary",
]
