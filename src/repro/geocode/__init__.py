"""Tiered, order-insensitive geocoding service layer.

Public surface of :mod:`repro.geocode`:

* :class:`GeocodeService` / :class:`TierStats` — the tiered cache every
  geocoding consumer goes through (L1 LRU over a persistent cell store
  over a backend), with canonical-representative cell semantics
* :class:`GeocodeBackend` — the resolver protocol, implemented by
  :class:`DirectBackend` (in-process) and :class:`PlaceFinderBackend`
  (simulated API: quota, latency, failure injection)
* :class:`CellStore` — the append-only on-disk cell tier
* :class:`FailurePlan` / :class:`RetryPolicy` /
  :func:`resolve_with_retries` — the shared lookup policy
"""

from repro.geocode.backend import DirectBackend, GeocodeBackend, PlaceFinderBackend
from repro.geocode.cellstore import Cell, CellStore
from repro.geocode.policy import FailurePlan, RetryPolicy, resolve_with_retries
from repro.geocode.service import (
    CELL_CACHE_FILENAME,
    DEFAULT_L1_CAPACITY,
    DEFAULT_QUANTUM_DEG,
    GeocodeService,
    TierStats,
    cell_cache_path,
    shard_segment_path,
    simulated_latency,
)

__all__ = [
    "CELL_CACHE_FILENAME",
    "Cell",
    "CellStore",
    "DEFAULT_L1_CAPACITY",
    "DEFAULT_QUANTUM_DEG",
    "DirectBackend",
    "FailurePlan",
    "GeocodeBackend",
    "GeocodeService",
    "PlaceFinderBackend",
    "RetryPolicy",
    "TierStats",
    "cell_cache_path",
    "resolve_with_retries",
    "shard_segment_path",
    "simulated_latency",
]
