"""Property suite: the mmap backend answers every query like the in-memory one.

Mirrors the PR 3 in-memory suite in ``tests/geo/test_gazetteer.py`` —
grid-accelerated ``nearest()`` against brute force, antimeridian
wraparound, grid-boundary points — but runs the queries over
:class:`~repro.geodata.mmapgaz.MmapGazetteer`, and additionally pins the
two backends to each other district-for-district (ties included).
"""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, UnknownRegionError
from repro.geo.gazetteer import Gazetteer, GazetteerBackend
from repro.geo.point import GeoPoint
from repro.geo.region import District, DistrictKind
from repro.geodata.artifact import write_gazetteer_artifact
from repro.geodata.mmapgaz import MmapGazetteer
from repro.geodata.registry import dataset_gazetteer, gazetteer_backend_kind
from tests.geo.search_oracles import assert_search_exact, catalogues_and_queries


def _district(name, state, lat, lon):
    return District(
        name=name,
        state=state,
        country="South Korea",
        kind=DistrictKind.CITY,
        center=GeoPoint(lat, lon),
        radius_km=5.0,
        aliases=(name.lower(),),
    )


class TestProtocol:
    def test_both_backends_satisfy_protocol(self, korean_mmap, korean_gazetteer):
        assert isinstance(korean_mmap, GazetteerBackend)
        assert isinstance(korean_gazetteer, GazetteerBackend)


class TestCatalogueEquivalence:
    @pytest.mark.parametrize("catalogue", ["korean", "world", "combined"])
    def test_districts_identical(self, catalogue, artifact_dir, request):
        memory = request.getfixturevalue(f"{catalogue}_gazetteer")
        mapped = request.getfixturevalue(f"{catalogue}_mmap")
        assert mapped.districts == memory.districts
        assert len(mapped) == len(memory)
        assert list(mapped) == list(memory.districts)

    def test_states_and_members(self, korean_mmap, korean_gazetteer):
        assert korean_mmap.states == korean_gazetteer.states
        for state in korean_gazetteer.states:
            assert korean_mmap.in_state(state) == korean_gazetteer.in_state(state)
        with pytest.raises(UnknownRegionError):
            korean_mmap.in_state("Atlantis")

    def test_exact_lookup(self, combined_mmap, combined_gazetteer):
        for district in combined_gazetteer.districts:
            assert combined_mmap.get(district.state, district.name) == district
        assert combined_mmap.find("Seoul", "Nonexistent-gu") is None
        with pytest.raises(UnknownRegionError):
            combined_mmap.get("Seoul", "Nonexistent-gu")

    def test_alias_lookup(self, combined_mmap, combined_gazetteer):
        for district in combined_gazetteer.districts:
            for alias in district.aliases:
                for probe in (alias, alias.upper(), f"  {alias} "):
                    assert combined_mmap.lookup_alias(probe) == (
                        combined_gazetteer.lookup_alias(probe)
                    )
        assert combined_mmap.lookup_alias("no such place") == ()

    def test_alias_casefold_non_ascii(self, tmp_path):
        """The packed alias index folds exactly like the in-memory one."""
        district = District(
            name="Altstadt",
            state="Hessen",
            country="Germany",
            kind=DistrictKind.WORLD_CITY,
            center=GeoPoint(50.11, 8.68),
            radius_km=5.0,
            aliases=("Große Straße",),
        )
        path = write_gazetteer_artifact(
            tmp_path / "de.rgaz", [district], grid_deg=0.5
        )
        gazetteer = MmapGazetteer(path)
        assert gazetteer.lookup_alias("GROSSE STRASSE") == (district,)
        assert gazetteer.lookup_alias("grosse strasse") == (district,)


class TestSpatialEquivalence:
    @given(
        st.floats(min_value=33.2, max_value=38.2),
        st.floats(min_value=126.2, max_value=129.5),
    )
    @settings(max_examples=80, deadline=None)
    def test_nearest_matches_brute_force(self, korean_mmap, lat, lon):
        """Packed-grid nearest == brute force over the mmap columns."""
        point = GeoPoint(lat, lon)
        fast = korean_mmap.nearest(point)
        brute = min(
            korean_mmap.districts, key=lambda d: d.center.distance_km(point)
        )
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
    def test_nearest_matches_brute_force_globally(
        self, world_mmap, world_gazetteer, lat, lon, snap_deg
    ):
        """Property: mmap nearest == brute force == in-memory nearest for
        arbitrary points, points snapped onto grid-cell boundaries, and
        points across the antimeridian."""
        if snap_deg is not None:
            lat = max(-90.0, min(90.0, round(lat / snap_deg) * snap_deg))
            lon = max(-180.0, min(180.0, round(lon / snap_deg) * snap_deg))
        point = GeoPoint(lat, lon)
        fast = world_mmap.nearest(point)
        brute = min(
            world_mmap.districts, key=lambda d: d.center.distance_km(point)
        )
        assert fast.center.distance_km(point) == pytest.approx(
            brute.center.distance_km(point), abs=1e-9
        )
        # Bit-identical to the in-memory backend, tie-breaks included.
        assert fast == world_gazetteer.nearest(point)

    @given(
        st.floats(min_value=33.2, max_value=38.2),
        st.floats(min_value=126.2, max_value=129.5),
        st.floats(min_value=0.0, max_value=120.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_within_matches_memory(
        self, korean_mmap, korean_gazetteer, lat, lon, radius
    ):
        point = GeoPoint(lat, lon)
        assert korean_mmap.within(point, radius) == korean_gazetteer.within(
            point, radius
        )

    def test_nearest_across_antimeridian(self, tmp_path):
        west = _district("West-si", "W-do", 10.0, 179.8)
        far = _district("Far-si", "F-do", 10.0, 170.0)
        path = write_gazetteer_artifact(
            tmp_path / "anti.rgaz", [west, far], grid_deg=0.5
        )
        gazetteer = MmapGazetteer(path)
        assert gazetteer.nearest(GeoPoint(10.0, -179.9)).name == "West-si"
        hits = gazetteer.within(GeoPoint(10.0, -179.9), radius_km=50.0)
        assert [d.name for d in hits] == ["West-si"]

    def test_nearest_within_cutoff(self, korean_mmap):
        sea = GeoPoint(37.5, 131.5)
        assert korean_mmap.nearest_within(sea, max_km=10.0) is None
        assert korean_mmap.nearest_within(sea, max_km=500.0) is not None

    @given(catalogues_and_queries())
    @settings(max_examples=60, deadline=None)
    def test_pruned_search_matches_oracles(self, tmp_path_factory, case):
        """The latitude-gap pruning sits in the shared core: the mmap
        backend must equal brute force and the unpruned scan, ties and
        polar/antimeridian/at-radius cases included."""
        districts, grid_deg, point, radius_km = case
        path = write_gazetteer_artifact(
            tmp_path_factory.mktemp("oracle") / "g.rgaz", districts, grid_deg=grid_deg
        )
        assert_search_exact(MmapGazetteer(path), point, radius_km)

    @given(
        st.floats(min_value=33.2, max_value=38.2),
        st.floats(min_value=126.2, max_value=129.5),
        st.floats(min_value=0.0, max_value=500.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_korean_pruned_search_matches_oracles(self, korean_mmap, lat, lon, radius_km):
        assert_search_exact(korean_mmap, GeoPoint(lat, lon), radius_km)


class TestRegistry:
    def test_memory_kind(self, monkeypatch):
        monkeypatch.setenv("REPRO_GAZETTEER", "memory")
        assert gazetteer_backend_kind() == "memory"
        assert isinstance(dataset_gazetteer("korean"), Gazetteer)

    def test_mmap_default_and_cached(self, monkeypatch):
        monkeypatch.delenv("REPRO_GAZETTEER", raising=False)
        assert gazetteer_backend_kind() == "mmap"
        first = dataset_gazetteer("korean")
        assert isinstance(first, MmapGazetteer)
        assert dataset_gazetteer("korean") is first

    def test_invalid_kind_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_GAZETTEER", "turbo")
        with pytest.raises(ConfigurationError):
            gazetteer_backend_kind()

    def test_pickles_as_path(self, korean_mmap, korean_gazetteer):
        """Worker payloads carry a path, not the catalogue object graph."""
        payload = pickle.dumps(korean_mmap)
        graph = pickle.dumps(korean_gazetteer)
        assert len(payload) < 1024
        assert len(payload) < len(graph) // 10
        clone = pickle.loads(payload)
        try:
            assert clone.districts == korean_mmap.districts
            assert clone.path == korean_mmap.path
        finally:
            clone.close()
