"""Unit tests for the simulated PlaceFinder client."""

import pytest

from repro.errors import RateLimitExceededError, ServiceUnavailableError
from repro.geo.gazetteer import Gazetteer
from repro.geo.point import GeoPoint
from repro.geo.reverse import ReverseGeocoder
from repro.geocode.backend import PlaceFinderBackend
from repro.yahooapi.client import FailurePlan, PlaceFinderClient
from repro.yahooapi.xml import parse_response


@pytest.fixture
def client(korean_gazetteer):
    return PlaceFinderClient(ReverseGeocoder(korean_gazetteer), daily_quota=100)


SEOUL_POINT = GeoPoint(37.5326, 126.9904)
OCEAN_POINT = GeoPoint(30.0, 140.0)


class TestLookups:
    def test_success(self, client):
        response = client.reverse_geocode(SEOUL_POINT)
        assert response.ok
        assert response.path.state == "Seoul"

    def test_no_result_is_error_response(self, client):
        response = client.reverse_geocode(OCEAN_POINT)
        assert not response.ok
        assert client.stats.no_result == 1

    def test_resolve_admin_path(self, client):
        path = client.resolve_admin_path(SEOUL_POINT)
        assert path is not None and path.state == "Seoul"
        assert client.resolve_admin_path(OCEAN_POINT) is None


class TestCache:
    def test_repeat_lookup_hits_cache(self, client):
        client.reverse_geocode(SEOUL_POINT)
        client.reverse_geocode(SEOUL_POINT)
        assert client.stats.requests == 1
        assert client.stats.cache_hits == 1

    def test_nearby_points_share_cache_cell(self, client):
        client.reverse_geocode(GeoPoint(37.53260, 126.99040))
        client.reverse_geocode(GeoPoint(37.53262, 126.99041))  # same 0.001° cell
        assert client.stats.requests == 1

    def test_distant_points_do_not(self, client):
        client.reverse_geocode(SEOUL_POINT)
        client.reverse_geocode(GeoPoint(35.1, 129.0))
        assert client.stats.requests == 2

    def test_clear_cache(self, client):
        client.reverse_geocode(SEOUL_POINT)
        client.clear_cache()
        client.reverse_geocode(SEOUL_POINT)
        assert client.stats.requests == 2
        assert client.cache_size == 1


class TestQuota:
    def test_quota_exhaustion_raises(self, korean_gazetteer):
        client = PlaceFinderClient(ReverseGeocoder(korean_gazetteer), daily_quota=3)
        for i in range(3):
            client.reverse_geocode(GeoPoint(37.0 + i * 0.1, 127.0))
        with pytest.raises(RateLimitExceededError) as exc_info:
            client.reverse_geocode(GeoPoint(36.0, 127.5))
        assert exc_info.value.retry_after_s > 0

    def test_cache_hits_do_not_consume_quota(self, korean_gazetteer):
        client = PlaceFinderClient(ReverseGeocoder(korean_gazetteer), daily_quota=1)
        for _ in range(10):
            client.reverse_geocode(SEOUL_POINT)
        assert client.stats.requests == 1


class TestFailureInjection:
    def test_every_n_fails(self, korean_gazetteer):
        client = PlaceFinderClient(
            ReverseGeocoder(korean_gazetteer),
            failure_plan=FailurePlan(every_n=2),
        )
        client.reverse_geocode(GeoPoint(37.0, 127.0))  # request 1: ok
        with pytest.raises(ServiceUnavailableError):
            client.reverse_geocode(GeoPoint(36.0, 127.5))  # request 2: fails
        assert client.stats.failures_injected == 1

    def test_resolve_admin_path_retries(self, korean_gazetteer):
        client = PlaceFinderClient(
            ReverseGeocoder(korean_gazetteer),
            failure_plan=FailurePlan(every_n=2),
        )
        client.reverse_geocode(GeoPoint(37.0, 127.0))  # burn request 1
        # Request 2 fails, retry succeeds as request 3.
        path = client.resolve_admin_path(SEOUL_POINT)
        assert path is not None
        assert client.stats.failures_injected == 1
        assert client.stats.retries == 1
        assert client.stats.retry_exhausted == 0

    def test_retries_visible_in_snapshot(self, korean_gazetteer):
        client = PlaceFinderClient(
            ReverseGeocoder(korean_gazetteer),
            failure_plan=FailurePlan(every_n=2),
        )
        client.reverse_geocode(GeoPoint(37.0, 127.0))
        client.resolve_admin_path(SEOUL_POINT)
        snapshot = client.stats.snapshot()
        assert snapshot["retries"] == 1
        assert snapshot["retry_exhausted"] == 0

    def test_exhausted_retries_counted_separately_from_no_result(
        self, korean_gazetteer
    ):
        # every_n=1: every uncached request fails, so all retries exhaust.
        client = PlaceFinderClient(
            ReverseGeocoder(korean_gazetteer),
            failure_plan=FailurePlan(every_n=1),
        )
        assert client.resolve_admin_path(SEOUL_POINT, max_retries=2) is None
        assert client.stats.retries == 2
        assert client.stats.retry_exhausted == 1
        assert client.stats.no_result == 0  # the service never answered
        # A genuine no-result is the opposite: answered, nothing found.
        clean = PlaceFinderClient(ReverseGeocoder(korean_gazetteer))
        assert clean.resolve_admin_path(OCEAN_POINT) is None
        assert clean.stats.no_result == 1
        assert clean.stats.retry_exhausted == 0

    def test_latency_accounted(self, client):
        client.reverse_geocode(SEOUL_POINT)
        client.reverse_geocode(GeoPoint(35.1, 129.0))
        assert client.stats.simulated_latency_s == pytest.approx(0.1)


class TestQuotaFailureInteraction:
    """Regression tests pinning quota × failure injection × retry.

    Documented semantics (see :class:`FailurePlan`): an injected failure
    fires *after* the request is admitted and counted against the daily
    quota — failed requests burn quota with no result, as the real 503s
    did — and each retry consumes a fresh unit of quota.
    """

    def test_injected_failure_consumes_quota(self, korean_gazetteer):
        client = PlaceFinderClient(
            ReverseGeocoder(korean_gazetteer),
            daily_quota=10,
            failure_plan=FailurePlan(every_n=1),
        )
        with pytest.raises(ServiceUnavailableError):
            client.reverse_geocode(SEOUL_POINT)
        assert client.stats.requests == 1  # burned, despite no result

    def test_retry_consumes_additional_quota(self, korean_gazetteer):
        client = PlaceFinderClient(
            ReverseGeocoder(korean_gazetteer),
            daily_quota=10,
            failure_plan=FailurePlan(every_n=2),
        )
        client.reverse_geocode(GeoPoint(37.0, 127.0))  # request 1: ok
        # Request 2 fails (quota: 2 used), retry is request 3 (quota: 3).
        assert client.resolve_admin_path(SEOUL_POINT) is not None
        assert client.stats.requests == 3
        assert client.stats.failures_injected == 1

    def test_quota_exhaustion_mid_retry_propagates(self, korean_gazetteer):
        # Quota of 1: the first request fails (and burns the budget), so
        # the retry hits the quota wall — the rate-limit error must reach
        # the caller rather than being swallowed as "unresolvable".
        client = PlaceFinderClient(
            ReverseGeocoder(korean_gazetteer),
            daily_quota=1,
            failure_plan=FailurePlan(every_n=1),
        )
        with pytest.raises(RateLimitExceededError):
            client.resolve_admin_path(SEOUL_POINT)
        assert client.stats.requests == 1
        assert client.stats.failures_injected == 1


#: Hits, misses, a shared cell, a no-result cell asked twice, and enough
#: distinct cells to hit every third request's injected 503 and run the
#: quota of 7 dry.
ACCOUNTING_CORPUS = [
    SEOUL_POINT,
    GeoPoint(37.53261, 126.99041),  # same 0.001-degree cell: a hit
    OCEAN_POINT,
    GeoPoint(35.1796, 129.0756),  # Busan
    OCEAN_POINT,  # cached no-result
    GeoPoint(35.8714, 128.6014),  # Daegu
    SEOUL_POINT,
    GeoPoint(37.4563, 126.7052),  # Incheon
    GeoPoint(36.3504, 127.3845),  # Daejeon
    GeoPoint(35.1595, 126.8526),  # Gwangju
    GeoPoint(33.4996, 126.5312),  # Jeju
    GeoPoint(35.5384, 129.3114),  # Ulsan
    GeoPoint(35.1796, 129.0756),
]

SEOUL_XML = (
    '<ResultSet version="1.0"><Error>0</Error><ErrorMessage>No error'
    "</ErrorMessage><Found>1</Found><Result><quality>87</quality>"
    "<latitude>37.533000</latitude><longitude>126.990000</longitude>"
    "<location><country>South Korea</country><state>Seoul</state>"
    "<county>Yongsan-gu</county><town /></location></Result></ResultSet>"
)
NO_RESULT_XML = (
    '<ResultSet version="1.0"><Error>100</Error><ErrorMessage>No result for '
    "coordinates</ErrorMessage><Found>0</Found></ResultSet>"
)


def _drive(client, methods):
    """One pass over the corpus; ``methods[i]`` picks ``"xml"`` or
    ``"path"`` for call ``i``.  Returns per-call outcomes, with the XML
    parsed down to its path so both methods are comparable."""
    outcomes = []
    for point, method in zip(ACCOUNTING_CORPUS, methods):
        try:
            if method == "xml":
                xml = client.reverse_geocode_xml(point)
                outcomes.append(("xml", xml, parse_response(xml).path))
            else:
                outcomes.append(("path", None, client.reverse_geocode_path(point)))
        except (RateLimitExceededError, ServiceUnavailableError) as exc:
            outcomes.append(("raised", type(exc).__name__, None))
    return outcomes


class TestPathOnlyAccounting:
    """``reverse_geocode_path`` skips the XML, not the accounting: any
    mix of the two methods leaves identical stats, cache and documents."""

    MIXES = {
        "xml": ["xml"] * len(ACCOUNTING_CORPUS),
        "path": ["path"] * len(ACCOUNTING_CORPUS),
        "xml-first": ["xml", "path"] * len(ACCOUNTING_CORPUS),
        "path-first": ["path", "xml"] * len(ACCOUNTING_CORPUS),
    }

    @staticmethod
    def _client(korean_gazetteer):
        return PlaceFinderClient(
            ReverseGeocoder(korean_gazetteer),
            daily_quota=7,
            failure_plan=FailurePlan(every_n=3),
        )

    def test_every_mix_accounts_identically(self, korean_gazetteer):
        runs = {}
        for name, methods in self.MIXES.items():
            client = self._client(korean_gazetteer)
            outcomes = _drive(client, methods)
            # Afterwards every cell renders the same document either way.
            documents = []
            for point in ACCOUNTING_CORPUS:
                try:
                    documents.append(client.reverse_geocode_xml(point))
                except (RateLimitExceededError, ServiceUnavailableError) as exc:
                    documents.append(type(exc).__name__)
            runs[name] = (outcomes, client.stats, client.cache_size, documents)

        reference_outcomes, stats, cache_size, documents = runs["xml"]
        assert stats.failures_injected > 0 and stats.no_result == 1
        assert stats.cache_hits > 0 and stats.requests == 7
        assert ("raised", "RateLimitExceededError", None) in reference_outcomes
        assert documents[0] == SEOUL_XML and documents[2] == NO_RESULT_XML
        for name, (outcomes, other_stats, other_size, other_docs) in runs.items():
            assert other_stats == stats, name
            assert other_size == cache_size, name
            assert other_docs == documents, name
            for got, want in zip(outcomes, reference_outcomes):
                if got[0] == "raised" or want[0] == "raised":
                    assert got == want, name
                    continue
                assert got[2] == want[2], name  # same path (or None)
                if got[0] == "xml":
                    assert got[1] == want[1], name  # byte-identical XML

    def test_backend_lookup_takes_the_path_only_route(self, korean_gazetteer):
        client = PlaceFinderClient(ReverseGeocoder(korean_gazetteer))
        backend = PlaceFinderBackend(client)
        assert backend.lookup(SEOUL_POINT) == parse_response(SEOUL_XML).path
        assert backend.lookup(OCEAN_POINT) is None
        assert client.stats.requests == 2 and client.stats.no_result == 1
        assert client.reverse_geocode_xml(SEOUL_POINT) == SEOUL_XML
        assert client.stats.cache_hits == 1
