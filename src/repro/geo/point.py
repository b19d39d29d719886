"""Geographic points and great-circle math on the WGS-84 sphere.

The paper correlates GPS coordinates attached to tweets with the free-text
location in user profiles.  Everything spatial in this library bottoms out
in :class:`GeoPoint` and the great-circle helpers defined here.

Distances use the haversine formula on a spherical Earth, which is accurate
to ~0.5 % — far below the size of the administrative districts the study
groups by.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import InvalidCoordinateError

#: Mean Earth radius in kilometres (IUGG).
EARTH_RADIUS_KM = 6371.0088


@dataclass(frozen=True, slots=True)
class GeoPoint:
    """An immutable WGS-84 coordinate pair in decimal degrees.

    Attributes:
        lat: Latitude in degrees, ``-90.0 <= lat <= 90.0``.
        lon: Longitude in degrees, ``-180.0 <= lon <= 180.0``.
    """

    lat: float
    lon: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lat) and math.isfinite(self.lon)):
            raise InvalidCoordinateError(f"non-finite coordinate: ({self.lat}, {self.lon})")
        if not -90.0 <= self.lat <= 90.0:
            raise InvalidCoordinateError(f"latitude out of range: {self.lat}")
        if not -180.0 <= self.lon <= 180.0:
            raise InvalidCoordinateError(f"longitude out of range: {self.lon}")

    def distance_km(self, other: "GeoPoint") -> float:
        """Return the great-circle distance to ``other`` in kilometres."""
        return haversine_km(self, other)

    def destination(self, bearing_deg: float, distance_km: float) -> "GeoPoint":
        """Return the point ``distance_km`` away along ``bearing_deg``.

        Bearings are measured clockwise from true north.  Useful for
        scattering synthetic GPS fixes around a district centroid.
        """
        return destination_point(self, bearing_deg, distance_km)

    def as_tuple(self) -> tuple[float, float]:
        """Return ``(lat, lon)`` as a plain tuple."""
        return (self.lat, self.lon)

    def __str__(self) -> str:
        return f"{self.lat:.6f},{self.lon:.6f}"

    @classmethod
    def parse(cls, text: str) -> "GeoPoint":
        """Parse a ``"lat,lon"`` string such as ``"37.5326,126.9904"``.

        Raises:
            InvalidCoordinateError: if the string is not two floats separated
                by a comma, or the values are out of range.
        """
        parts = text.split(",")
        if len(parts) != 2:
            raise InvalidCoordinateError(f"expected 'lat,lon', got {text!r}")
        try:
            lat = float(parts[0].strip())
            lon = float(parts[1].strip())
        except ValueError as exc:
            raise InvalidCoordinateError(f"non-numeric coordinate in {text!r}") from exc
        return cls(lat, lon)


def haversine_km(a: GeoPoint, b: GeoPoint) -> float:
    """Great-circle distance between two points in kilometres."""
    lat1, lon1 = math.radians(a.lat), math.radians(a.lon)
    lat2, lon2 = math.radians(b.lat), math.radians(b.lon)
    dlat = lat2 - lat1
    dlon = lon2 - lon1
    h = math.sin(dlat / 2.0) ** 2 + math.cos(lat1) * math.cos(lat2) * math.sin(dlon / 2.0) ** 2
    # Clamp to guard against floating-point overshoot at antipodal points.
    h = min(1.0, h)
    return 2.0 * EARTH_RADIUS_KM * math.asin(math.sqrt(h))


def initial_bearing_deg(a: GeoPoint, b: GeoPoint) -> float:
    """Initial great-circle bearing from ``a`` to ``b`` in ``[0, 360)`` degrees."""
    lat1, lat2 = math.radians(a.lat), math.radians(b.lat)
    dlon = math.radians(b.lon - a.lon)
    x = math.sin(dlon) * math.cos(lat2)
    y = math.cos(lat1) * math.sin(lat2) - math.sin(lat1) * math.cos(lat2) * math.cos(dlon)
    return math.degrees(math.atan2(x, y)) % 360.0


def destination_point(start: GeoPoint, bearing_deg: float, distance_km: float) -> GeoPoint:
    """Return the point reached from ``start`` along a great circle.

    Args:
        start: Starting point.
        bearing_deg: Bearing clockwise from north, in degrees.
        distance_km: Distance to travel, in kilometres (must be >= 0).
    """
    if distance_km < 0:
        raise InvalidCoordinateError(f"negative distance: {distance_km}")
    ang = distance_km / EARTH_RADIUS_KM
    brg = math.radians(bearing_deg)
    lat1 = math.radians(start.lat)
    lon1 = math.radians(start.lon)
    # Each sine and cosine is taken once; the values, and so every output
    # bit, are the same as evaluating them where they are used.
    sin_lat1, cos_lat1 = math.sin(lat1), math.cos(lat1)
    sin_ang, cos_ang = math.sin(ang), math.cos(ang)
    lat2 = math.asin(sin_lat1 * cos_ang + cos_lat1 * sin_ang * math.cos(brg))
    lon2 = lon1 + math.atan2(
        math.sin(brg) * sin_ang * cos_lat1,
        cos_ang - sin_lat1 * math.sin(lat2),
    )
    lon2 = (math.degrees(lon2) + 540.0) % 360.0 - 180.0
    return GeoPoint(math.degrees(lat2), lon2)


def midpoint(a: GeoPoint, b: GeoPoint) -> GeoPoint:
    """Great-circle midpoint between ``a`` and ``b``."""
    lat1, lon1 = math.radians(a.lat), math.radians(a.lon)
    lat2 = math.radians(b.lat)
    dlon = math.radians(b.lon - a.lon)
    bx = math.cos(lat2) * math.cos(dlon)
    by = math.cos(lat2) * math.sin(dlon)
    lat3 = math.atan2(
        math.sin(lat1) + math.sin(lat2),
        math.sqrt((math.cos(lat1) + bx) ** 2 + by**2),
    )
    lon3 = lon1 + math.atan2(by, math.cos(lat1) + bx)
    lon3 = (math.degrees(lon3) + 540.0) % 360.0 - 180.0
    return GeoPoint(math.degrees(lat3), lon3)


def centroid(points: list[GeoPoint]) -> GeoPoint:
    """Spherical centroid (centre of mass on the unit sphere) of ``points``.

    Raises:
        InvalidCoordinateError: if ``points`` is empty.
    """
    if not points:
        raise InvalidCoordinateError("centroid of empty point list")
    x = y = z = 0.0
    for p in points:
        lat = math.radians(p.lat)
        lon = math.radians(p.lon)
        x += math.cos(lat) * math.cos(lon)
        y += math.cos(lat) * math.sin(lon)
        z += math.sin(lat)
    n = len(points)
    x, y, z = x / n, y / n, z / n
    norm = math.sqrt(x * x + y * y + z * z)
    if norm < 1e-12:
        # Degenerate (e.g. two antipodal points); fall back to the first point.
        return points[0]
    lat = math.asin(z / norm)
    lon = math.atan2(y, x)
    return GeoPoint(math.degrees(lat), math.degrees(lon))


def geographic_median(points: list[GeoPoint], iterations: int = 50) -> GeoPoint:
    """Approximate geometric median via Weiszfeld iteration on lat/lon.

    Toretter reports both an estimated *centre* (mean) and an estimated
    *median* of witness locations (paper Fig. 2); the median is robust to
    the far-away retweeters that drag the mean.
    """
    if not points:
        raise InvalidCoordinateError("median of empty point list")
    current = centroid(points)
    for _ in range(iterations):
        num_lat = num_lon = denom = 0.0
        coincident = None
        for p in points:
            d = haversine_km(current, p)
            if d < 1e-9:
                coincident = p
                continue
            w = 1.0 / d
            num_lat += w * p.lat
            num_lon += w * p.lon
            denom += w
        if denom == 0.0:
            return coincident if coincident is not None else current
        nxt = GeoPoint(num_lat / denom, num_lon / denom)
        if haversine_km(current, nxt) < 1e-6:
            return nxt
        current = nxt
    return current
