"""Reference searches for the gazetteer's pruned spatial queries.

Two oracles per query, shared by the in-memory suite
(``tests/geo/test_gazetteer.py``) and the mmap suite
(``tests/geodata/test_mmap_equivalence.py``):

* brute force over the whole catalogue — the answer by definition;
* the grid shell scan with no pruning — the answer *including the order
  ties come out in*, which depends on shell encounter order whenever
  equidistant centroids sit in different cells.

Plus a hypothesis strategy for catalogues and query points that puts
centroids and queries near the poles, across the antimeridian, on exact
ties, and exactly ``radius_km`` away.
"""

from __future__ import annotations

import math

from hypothesis import strategies as st

from repro.geo.gazetteer import SpatialGridCore
from repro.geo.point import GeoPoint
from repro.geo.region import District, DistrictKind


def brute_nearest(gazetteer, point: GeoPoint) -> District:
    """Full-catalogue argmin; the first catalogue index wins a tie."""
    return min(gazetteer.districts, key=lambda d: d.center.distance_km(point))


def brute_within(gazetteer, point: GeoPoint, radius_km: float) -> list[District]:
    """Full-scan filter, stably sorted by distance (catalogue order on ties)."""
    hits = [
        (d, d.center.distance_km(point))
        for d in gazetteer.districts
        if d.center.distance_km(point) <= radius_km
    ]
    hits.sort(key=lambda pair: pair[1])
    return [d for d, _ in hits]


def unpruned_nearest(gazetteer: SpatialGridCore, point: GeoPoint) -> District:
    """The shell scan of :meth:`SpatialGridCore.nearest`, every candidate
    measured with the exact haversine."""
    best, best_d = -1, math.inf
    seen: set[tuple[int, int]] = set()
    for ring in range(int(math.ceil(360.0 / gazetteer._grid_deg)) + 2):
        for index in gazetteer._candidate_ids(point, ring, seen):
            d = gazetteer._center_at(index).distance_km(point)
            if d < best_d:
                best, best_d = index, d
        if best >= 0 and best_d <= gazetteer._ring_lower_bound_km(point, ring):
            break
    return gazetteer._district_at(best)


def unpruned_within(
    gazetteer: SpatialGridCore, point: GeoPoint, radius_km: float
) -> list[District]:
    """The shell scan of :meth:`SpatialGridCore.within`, no pruning.

    It stops on the ring lower bound rather than on ``within``'s own ring
    count, so that count is checked too; shells come in the same order
    either way, so ties keep the same encounter order.
    """
    hits: list[tuple[int, float]] = []
    seen: set[tuple[int, int]] = set()
    for ring in range(int(math.ceil(360.0 / gazetteer._grid_deg)) + 2):
        for index in gazetteer._candidate_ids(point, ring, seen):
            d = gazetteer._center_at(index).distance_km(point)
            if d <= radius_km:
                hits.append((index, d))
        if gazetteer._ring_lower_bound_km(point, ring) > radius_km:
            break
    hits.sort(key=lambda pair: pair[1])
    return [gazetteer._district_at(index) for index, _ in hits]


def district(index: int, lat: float, lon: float) -> District:
    return District(
        name=f"D{index}",
        state="S",
        country="Nowhere",
        kind=DistrictKind.CITY,
        center=GeoPoint(lat, lon),
        radius_km=5.0,
    )


_latitudes = st.one_of(
    st.floats(min_value=-90.0, max_value=90.0),
    st.floats(min_value=88.0, max_value=90.0),
    st.floats(min_value=-90.0, max_value=-88.0),
)
_longitudes = st.one_of(
    st.floats(min_value=-180.0, max_value=180.0),
    st.floats(min_value=179.0, max_value=180.0),
    st.floats(min_value=-180.0, max_value=-179.0),
)


@st.composite
def catalogues_and_queries(draw):
    """``(districts, grid_deg, point, radius_km)`` for a stress case.

    Centroids mix free positions with copies of earlier ones (exact ties)
    and mirror images across the query's meridian (equidistant, possibly
    in different cells); the query is a free point or a centroid, and the
    radius is free or exactly some centroid's distance.
    """
    # Coarse grids only: a polar query scans every longitude column, which
    # on a 0.5-degree grid costs ~0.5 s per oracle call.
    grid_deg = draw(st.sampled_from([2.0, 5.0, 10.0]))
    point = GeoPoint(draw(_latitudes), draw(_longitudes))
    coords: list[tuple[float, float]] = []
    for _ in range(draw(st.integers(min_value=1, max_value=24))):
        how = draw(st.sampled_from(["free", "free", "copy", "mirror"]))
        if how == "copy" and coords:
            coords.append(draw(st.sampled_from(coords)))
        elif how == "mirror" and coords:
            lat, lon = draw(st.sampled_from(coords))
            mirrored = 2.0 * point.lon - lon
            mirrored = (mirrored + 540.0) % 360.0 - 180.0
            coords.append((lat, mirrored))
        else:
            coords.append((draw(_latitudes), draw(_longitudes)))
    districts = [district(i, lat, lon) for i, (lat, lon) in enumerate(coords)]
    if draw(st.booleans()):
        point = draw(st.sampled_from(districts)).center
    if draw(st.booleans()):
        radius_km = draw(st.sampled_from(districts)).center.distance_km(point)
    else:
        radius_km = draw(st.floats(min_value=0.0, max_value=3000.0))
    return districts, grid_deg, point, radius_km


def assert_search_exact(gazetteer, point: GeoPoint, radius_km: float) -> None:
    """Pruned ``nearest``/``within`` against both oracles."""
    fast = gazetteer.nearest(point)
    brute = brute_nearest(gazetteer, point)
    assert fast.center.distance_km(point) == brute.center.distance_km(point)
    assert fast == unpruned_nearest(gazetteer, point)
    ties = [
        d
        for d in gazetteer.districts
        if d.center.distance_km(point) == brute.center.distance_km(point)
    ]
    if len(ties) == 1 or len({gazetteer._cell(d.center) for d in ties}) == 1:
        # One winner, or a tie inside one grid bucket: first index wins.
        assert fast == brute

    hits = list(gazetteer.within(point, radius_km))
    expected = brute_within(gazetteer, point, radius_km)
    assert sorted(d.key() for d in hits) == sorted(d.key() for d in expected)
    assert [d.center.distance_km(point) for d in hits] == [
        d.center.distance_km(point) for d in expected
    ]
    assert hits == unpruned_within(gazetteer, point, radius_km)
