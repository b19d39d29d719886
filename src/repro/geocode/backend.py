"""Geocode backends: the one protocol every resolver implements.

A backend answers exactly one question — "which administrative path does
this point belong to?" — and reports "nowhere" as ``None``.  Transient
conditions (an injected 503, quota exhaustion) propagate as the existing
error hierarchy so the service-level
:class:`~repro.geocode.policy.RetryPolicy` can react uniformly.

Two implementations cover the repository's resolvers:

* :class:`DirectBackend` wraps the library-level
  :class:`~repro.geo.reverse.ReverseGeocoder` — no XML, no quota.
* :class:`PlaceFinderBackend` wraps the simulated
  :class:`~repro.yahooapi.client.PlaceFinderClient` — its cache, quota
  and failure injection included, without rendering XML per lookup.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Protocol

from repro.errors import GeocodingError
from repro.geo.point import GeoPoint
from repro.geo.region import AdminPath
from repro.geo.reverse import ReverseGeocoder

if TYPE_CHECKING:  # avoid a runtime repro.yahooapi <-> repro.geocode cycle
    from repro.yahooapi.client import PlaceFinderClient


class GeocodeBackend(Protocol):
    """One reverse-geocode lookup, however it is implemented.

    Implementations return ``None`` for coordinates nobody can resolve
    and raise :class:`~repro.errors.ServiceUnavailableError` /
    :class:`~repro.errors.RateLimitExceededError` for transient and
    quota conditions respectively.
    """

    def lookup(self, point: GeoPoint) -> AdminPath | None:
        """Resolve ``point`` to an administrative path (``None`` = nowhere)."""
        ...


class DirectBackend:
    """Backend over the in-process :class:`ReverseGeocoder` — no API shape."""

    def __init__(self, geocoder: ReverseGeocoder):
        self._geocoder = geocoder

    def lookup(self, point: GeoPoint) -> AdminPath | None:
        """Resolve directly against the gazetteer."""
        try:
            return self._geocoder.resolve(point).path
        except GeocodingError:
            return None


class PlaceFinderBackend:
    """Backend over the simulated PlaceFinder client.

    The client's own quota accounting, simulated latency, and failure
    injection all apply — a lookup through this backend costs exactly
    what the paper's per-tweet API call cost.  It asks the client for the
    path alone (:meth:`~repro.yahooapi.client.PlaceFinderClient.reverse_geocode_path`):
    the XML document would be rendered only to be parsed straight back.
    """

    def __init__(self, client: "PlaceFinderClient"):
        self._client = client

    @property
    def client(self) -> "PlaceFinderClient":
        """The wrapped client (its ``stats``/``cache_size`` stay visible)."""
        return self._client

    def lookup(self, point: GeoPoint) -> AdminPath | None:
        """One uncached-or-cached client lookup, with the client's accounting."""
        return self._client.reverse_geocode_path(point)
