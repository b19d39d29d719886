"""Unit and property tests for the gazetteer's indexes."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import UnknownRegionError
from repro.geo.gazetteer import Gazetteer
from repro.geo.point import GeoPoint
from repro.geo.region import District, DistrictKind
from tests.geo.search_oracles import assert_search_exact, catalogues_and_queries, district


def _district(name: str, state: str, lat: float, lon: float) -> District:
    return District(
        name=name,
        state=state,
        country="South Korea",
        kind=DistrictKind.CITY,
        center=GeoPoint(lat, lon),
        radius_km=5.0,
        aliases=(name.lower(),),
    )


class TestConstruction:
    def test_empty_rejected(self):
        with pytest.raises(UnknownRegionError):
            Gazetteer([])

    def test_duplicate_keys_rejected(self):
        d = _district("A-si", "X-do", 37.0, 127.0)
        with pytest.raises(UnknownRegionError):
            Gazetteer([d, d])

    def test_len_and_iteration(self, korean_gazetteer):
        assert len(korean_gazetteer) == len(list(korean_gazetteer))


class TestLookups:
    def test_get_known(self, korean_gazetteer):
        d = korean_gazetteer.get("Seoul", "Gangnam-gu")
        assert d.state == "Seoul"
        assert d.name == "Gangnam-gu"

    def test_get_unknown_raises(self, korean_gazetteer):
        with pytest.raises(UnknownRegionError):
            korean_gazetteer.get("Seoul", "Nonexistent-gu")

    def test_find_returns_none(self, korean_gazetteer):
        assert korean_gazetteer.find("Seoul", "Nonexistent-gu") is None

    def test_alias_ambiguity(self, korean_gazetteer):
        # "Jung-gu" exists in several metropolitan cities.
        hits = korean_gazetteer.lookup_alias("jung-gu")
        states = {d.state for d in hits}
        assert {"Seoul", "Busan", "Incheon", "Daegu", "Daejeon", "Ulsan"} <= states

    def test_alias_case_insensitive(self, korean_gazetteer):
        assert korean_gazetteer.lookup_alias("GANGNAM") == korean_gazetteer.lookup_alias(
            "gangnam"
        )

    def test_alias_casefold_non_ascii(self):
        """Regression: the alias index folds with casefold(), not lower().

        'ß'.casefold() == 'ss' while 'ß'.lower() == 'ß', so under the old
        lower()-based index an alias stored as "Große Straße" could never
        match the all-caps spelling "GROSSE STRASSE" users actually type.
        """
        district = District(
            name="Altstadt",
            state="Hessen",
            country="Germany",
            kind=DistrictKind.WORLD_CITY,
            center=GeoPoint(50.11, 8.68),
            radius_km=5.0,
            aliases=("Große Straße",),
        )
        gazetteer = Gazetteer([district])
        assert gazetteer.lookup_alias("GROSSE STRASSE") == (district,)
        assert gazetteer.lookup_alias("grosse strasse") == (district,)
        assert gazetteer.lookup_alias("Große Straße") == (district,)

    def test_in_state(self, korean_gazetteer):
        seoul = korean_gazetteer.in_state("Seoul")
        assert len(seoul) == 25  # all 25 gu
        assert all(d.state == "Seoul" for d in seoul)

    def test_in_state_unknown_raises(self, korean_gazetteer):
        with pytest.raises(UnknownRegionError):
            korean_gazetteer.in_state("Atlantis")


class TestSpatial:
    def test_nearest_at_centroid(self, korean_gazetteer):
        target = korean_gazetteer.get("Seoul", "Mapo-gu")
        assert korean_gazetteer.nearest(target.center).key() == target.key()

    @given(
        st.floats(min_value=33.2, max_value=38.2),
        st.floats(min_value=126.2, max_value=129.5),
    )
    @settings(max_examples=80, deadline=None)
    def test_nearest_matches_brute_force(self, lat, lon):
        gazetteer = Gazetteer.korean()
        point = GeoPoint(lat, lon)
        fast = gazetteer.nearest(point)
        brute = min(gazetteer.districts, key=lambda d: d.center.distance_km(point))
        assert fast.center.distance_km(point) == pytest.approx(
            brute.center.distance_km(point), abs=1e-9
        )

    @given(
        st.floats(min_value=-90.0, max_value=90.0),
        st.one_of(
            st.floats(min_value=-180.0, max_value=180.0),
            # Hug the antimeridian from both sides.
            st.floats(min_value=179.0, max_value=180.0),
            st.floats(min_value=-180.0, max_value=-179.0),
        ),
        st.sampled_from([None, 0.5, 1.0, 2.0]),
    )
    @settings(max_examples=120, deadline=None)
    def test_nearest_matches_brute_force_globally(self, lat, lon, snap_deg):
        """Property: grid-accelerated nearest == brute force over the world
        catalogue, for arbitrary points, points snapped onto grid-cell
        boundaries, and points across the antimeridian."""
        if snap_deg is not None:
            # Snap onto cell boundaries of every factory grid size so the
            # shell search is exercised exactly on cell edges and corners.
            lat = max(-90.0, min(90.0, round(lat / snap_deg) * snap_deg))
            lon = max(-180.0, min(180.0, round(lon / snap_deg) * snap_deg))
        gazetteer = Gazetteer.world()
        point = GeoPoint(lat, lon)
        fast = gazetteer.nearest(point)
        brute = min(gazetteer.districts, key=lambda d: d.center.distance_km(point))
        assert fast.center.distance_km(point) == pytest.approx(
            brute.center.distance_km(point), abs=1e-9
        )

    def test_nearest_across_antimeridian(self):
        """A point just east of the antimeridian must find a centroid just
        west of it (and vice versa) rather than ringing the long way round."""
        west = _district("West-si", "W-do", 10.0, 179.8)
        far = _district("Far-si", "F-do", 10.0, 170.0)
        gazetteer = Gazetteer([west, far], grid_deg=0.5)
        assert gazetteer.nearest(GeoPoint(10.0, -179.9)).name == "West-si"
        mirrored = Gazetteer(
            [_district("East-si", "E-do", 10.0, -179.8), far], grid_deg=0.5
        )
        assert mirrored.nearest(GeoPoint(10.0, 179.9)).name == "East-si"

    def test_within_across_antimeridian(self):
        west = _district("West-si", "W-do", 10.0, 179.8)
        far = _district("Far-si", "F-do", 10.0, 170.0)
        gazetteer = Gazetteer([west, far], grid_deg=0.5)
        hits = gazetteer.within(GeoPoint(10.0, -179.9), radius_km=50.0)
        assert [d.name for d in hits] == ["West-si"]

    def test_nearest_within_cutoff(self, korean_gazetteer):
        # Middle of the East Sea: far from everything at 10 km cutoff.
        sea = GeoPoint(37.5, 131.5)
        assert korean_gazetteer.nearest_within(sea, max_km=10.0) is None
        assert korean_gazetteer.nearest_within(sea, max_km=500.0) is not None

    def test_within_radius_sorted(self, korean_gazetteer):
        center = korean_gazetteer.get("Seoul", "Jongno-gu").center
        hits = korean_gazetteer.within(center, radius_km=10.0)
        distances = [d.center.distance_km(center) for d in hits]
        assert distances == sorted(distances)
        assert all(dist <= 10.0 for dist in distances)
        assert len(hits) >= 5  # central Seoul is dense

    def test_within_zero_radius(self, korean_gazetteer):
        center = korean_gazetteer.get("Seoul", "Jongno-gu").center
        hits = korean_gazetteer.within(center, radius_km=0.0)
        assert [d.key() for d in hits] == [("Seoul", "Jongno-gu")]


class TestFactories:
    def test_world_gazetteer(self, world_gazetteer):
        assert world_gazetteer.find("New York", "New York") is not None
        assert len(world_gazetteer) > 50

    def test_combined_has_both(self, combined_gazetteer):
        assert combined_gazetteer.find("Seoul", "Gangnam-gu") is not None
        assert combined_gazetteer.find("England", "London") is not None

    def test_combined_no_duplicate_seoul(self, combined_gazetteer):
        keys = [d.key() for d in combined_gazetteer.districts]
        assert len(keys) == len(set(keys))


class TestPrunedSearch:
    """``nearest``/``within`` prune on the latitude gap; the answers,
    ties included, must equal brute force and the unpruned shell scan."""

    @given(catalogues_and_queries())
    @settings(max_examples=150, deadline=None)
    def test_matches_oracles(self, case):
        districts, grid_deg, point, radius_km = case
        assert_search_exact(Gazetteer(districts, grid_deg=grid_deg), point, radius_km)

    @given(
        st.floats(min_value=33.2, max_value=38.2),
        st.floats(min_value=126.2, max_value=129.5),
        st.floats(min_value=0.0, max_value=500.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_korean_matches_oracles(self, korean_gazetteer, lat, lon, radius_km):
        assert_search_exact(korean_gazetteer, GeoPoint(lat, lon), radius_km)

    def test_tie_in_one_cell_goes_to_first_index(self):
        # D0 and D1 share a centroid: exactly equal distances, one bucket.
        gazetteer = Gazetteer(
            [district(2, 10.9, 20.9), district(0, 10.3, 20.3), district(1, 10.3, 20.3)],
            grid_deg=1.0,
        )
        point = GeoPoint(10.5, 20.5)
        assert gazetteer.nearest(point).name == "D0"
        assert [d.name for d in gazetteer.within(point, 70.0)] == ["D0", "D1", "D2"]

    def test_float_error_never_prunes_a_hit(self):
        """The computed haversine can fall below the latitude-gap bound:
        to 0 when ``sin**2`` underflows, and by ~6e-5 km (a relative
        3e-9) between near-opposite poles, where ``asin`` is
        ill-conditioned.  A centroid exactly at the radius must still be
        found in both cases."""
        for centroid, point in (
            ((0.0, 0.0), GeoPoint(1e-300, 0.0)),
            (
                (-89.99999879259768, -119.13077163132184),
                GeoPoint(89.99999999984442, -34.84172344170375),
            ),
        ):
            gazetteer = Gazetteer([district(0, *centroid)], grid_deg=10.0)
            radius_km = gazetteer.districts[0].center.distance_km(point)
            assert [d.name for d in gazetteer.within(point, radius_km)] == ["D0"]
            assert_search_exact(gazetteer, point, radius_km)

    def test_polar_and_antimeridian_queries(self):
        gazetteer = Gazetteer(
            [
                district(0, 89.99, 0.0),
                district(1, 89.99, 180.0),
                district(2, -89.5, -179.9),
                district(3, -89.5, 179.9),
                district(4, 0.0, 179.95),
            ],
            grid_deg=2.0,
        )
        for point in (
            GeoPoint(90.0, 0.0),
            GeoPoint(89.999, 90.0),
            GeoPoint(-90.0, 12.0),
            GeoPoint(-89.5, 180.0),
            GeoPoint(0.0, -179.99),
        ):
            assert_search_exact(gazetteer, point, 300.0)
