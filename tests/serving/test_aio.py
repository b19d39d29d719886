"""AsyncStudyServer: framing, keep-alive, pipelining, error taxonomy,
executor split, and lifecycle."""

from __future__ import annotations

import json
import threading
import time

import pytest

from repro.geo.reverse import ReverseGeocoder
from repro.geocode.backend import DirectBackend
from repro.geocode.service import GeocodeService
from repro.serving import AsyncServerThread, ServingApp, SnapshotStore
from tests.serving.wire import WireClient, request_bytes


@pytest.fixture
def aio_server(make_app):
    """A running asyncio server over the Korean snapshot; yields the
    harness (its ``app`` attribute carries the metrics)."""
    server = AsyncServerThread(make_app()).start()
    try:
        yield server
    finally:
        server.shutdown()


def _wait_for_counter(app, name: str, minimum: int = 1, timeout: float = 5.0) -> float:
    """Poll a metrics counter until it reaches ``minimum``; returns it."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        value = app.metrics.snapshot().get(name, 0)
        if value >= minimum:
            return value
        time.sleep(0.01)
    return app.metrics.snapshot().get(name, 0)


class TestKeepAlive:
    def test_sequential_requests_share_a_connection(self, aio_server, korean_snapshot):
        with WireClient(aio_server.port) as client:
            for _ in range(3):
                status, body = client.get("/healthz")
                assert status == 200
                assert json.loads(body)["version"] == korean_snapshot.version

    def test_keep_alive_header_advertised(self, aio_server):
        with WireClient(aio_server.port) as client:
            client.send("GET", "/healthz")
            _, headers, _ = client.read_response()
            assert headers["connection"] == "keep-alive"

    def test_connection_close_is_honoured(self, aio_server):
        with WireClient(aio_server.port) as client:
            client.send("GET", "/healthz", headers={"Connection": "close"})
            status, headers, _ = client.read_response()
            assert status == 200
            assert headers["connection"] == "close"
            assert client.file.read(1) == b""  # server closed after responding

    def test_http10_closes_by_default(self, aio_server):
        with WireClient(aio_server.port) as client:
            client.send("GET", "/healthz", version="HTTP/1.0")
            status, headers, _ = client.read_response()
            assert status == 200
            assert headers["connection"] == "close"
            assert client.file.read(1) == b""

    def test_http10_keep_alive_opt_in(self, aio_server):
        with WireClient(aio_server.port) as client:
            client.send(
                "GET", "/healthz", version="HTTP/1.0",
                headers={"Connection": "keep-alive"},
            )
            status, headers, _ = client.read_response()
            assert status == 200
            assert headers["connection"] == "keep-alive"
            assert client.get("/healthz")[0] == 200  # still open


class TestPipelining:
    def test_pipelined_requests_answer_in_order(self, aio_server, korean_snapshot):
        user_id = next(iter(korean_snapshot.users))
        targets = ["/healthz", f"/lookup?user={user_id}", "/regions", "/stats"]
        with WireClient(aio_server.port) as client:
            client.send_raw(b"".join(request_bytes("GET", t) for t in targets))
            bodies = []
            for _ in targets:
                status, _, body = client.read_response()
                assert status == 200
                bodies.append(json.loads(body))
        assert bodies[0]["status"] == "ok"
        assert bodies[1]["user_id"] == user_id
        assert "regions" in bodies[2]
        assert "statistics" in bodies[3]

    def test_post_body_is_drained_mid_pipeline(self, make_app, ladygaga_snapshot):
        """A POST with a body followed by a pipelined GET: the body bytes
        must not be parsed as the next request line."""
        server = AsyncServerThread(
            make_app(reloader=lambda: ladygaga_snapshot)
        ).start()
        try:
            with WireClient(server.port) as client:
                client.send_raw(
                    request_bytes("POST", "/admin/reload", body=b"stale body bytes")
                    + request_bytes("GET", "/healthz")
                )
                status, _, body = client.read_response()
                assert status == 200
                assert json.loads(body)["current"] == ladygaga_snapshot.version
                status, _, body = client.read_response()
                assert status == 200
                assert json.loads(body)["status"] == "ok"
        finally:
            server.shutdown()


class TestFramingErrors:
    """Unparseable framing answers 400 and closes (not recoverable)."""

    def _expect_400_then_close(self, server, raw: bytes, fragment: str):
        with WireClient(server.port) as client:
            client.send_raw(raw)
            status, headers, body = client.read_response()
            assert status == 400
            assert fragment in json.loads(body)["error"]
            assert headers["connection"] == "close"
            assert client.file.read(1) == b""

    def test_malformed_request_line(self, aio_server):
        self._expect_400_then_close(
            aio_server, b"NONSENSE\r\n\r\n", "malformed request line"
        )

    def test_unsupported_protocol(self, aio_server):
        self._expect_400_then_close(
            aio_server, b"GET / SPDY/3\r\n\r\n", "unsupported protocol"
        )

    def test_malformed_header_line(self, aio_server):
        self._expect_400_then_close(
            aio_server,
            b"GET /healthz HTTP/1.1\r\nno-colon-here\r\n\r\n",
            "malformed header",
        )

    def test_invalid_content_length(self, aio_server):
        self._expect_400_then_close(
            aio_server,
            request_bytes(
                "POST", "/admin/reload", headers={"Content-Length": "banana"}
            ),
            "invalid Content-Length",
        )

    def test_negative_content_length(self, aio_server):
        self._expect_400_then_close(
            aio_server,
            request_bytes(
                "POST", "/admin/reload", headers={"Content-Length": "-5"}
            ),
            "invalid Content-Length",
        )

    def test_transfer_encoding_rejected(self, aio_server):
        self._expect_400_then_close(
            aio_server,
            request_bytes(
                "POST", "/admin/reload",
                headers={"Transfer-Encoding": "chunked"},
            ),
            "Transfer-Encoding",
        )

    def test_oversized_request_line(self, aio_server):
        self._expect_400_then_close(
            aio_server,
            b"GET /" + b"a" * 70_000 + b" HTTP/1.1\r\n\r\n",
            "exceeds",
        )

    def test_header_flood_rejected(self, aio_server):
        flood = b"GET /healthz HTTP/1.1\r\n" + b"".join(
            b"X-H%d: v\r\n" % i for i in range(150)
        ) + b"\r\n"
        self._expect_400_then_close(aio_server, flood, "headers")


class TestDisconnects:
    def test_clean_eof_is_not_a_disconnect(self, aio_server):
        client = WireClient(aio_server.port)
        assert client.get("/healthz")[0] == 200
        client.close()  # polite FIN at a request boundary
        time.sleep(0.2)
        assert (
            aio_server.app.metrics.snapshot().get("serving.client_disconnects", 0)
            == 0
        )

    def test_reset_mid_headers_is_counted(self, aio_server):
        client = WireClient(aio_server.port)
        client.send_raw(b"GET /healthz HTTP/1.1\r\nX-Partial")
        client.rst_close()
        assert _wait_for_counter(aio_server.app, "serving.client_disconnects") >= 1

    def test_eof_mid_body_is_counted(self, aio_server):
        client = WireClient(aio_server.port)
        client.send_raw(
            b"POST /admin/reload HTTP/1.1\r\nContent-Length: 50\r\n\r\nshort"
        )
        client.close()  # FIN with 45 body bytes still owed
        assert _wait_for_counter(aio_server.app, "serving.client_disconnects") >= 1


class TestInternalErrors:
    def test_500_keeps_the_pipeline_alive(self, make_app, monkeypatch):
        from repro.serving import http as http_module

        def broken(snapshot):
            raise ValueError("handler bug")

        monkeypatch.setattr(http_module.handlers, "handle_stats", broken)
        app = make_app()
        server = AsyncServerThread(app).start()
        try:
            with WireClient(server.port) as client:
                status, body = client.get("/stats")
                assert status == 500
                assert json.loads(body)["error"].startswith("internal server error")
                status, body = client.get("/healthz")  # same connection survives
                assert status == 200
            assert app.metrics.snapshot()["serving.errors"] == 1
        finally:
            server.shutdown()


class TestExecutorSplit:
    def test_cold_reverse_does_not_stall_the_event_loop(self, small_ctx, korean_snapshot):
        """While a cold ``/reverse`` sits in a slow backend call, a
        concurrent ``/lookup`` on another connection must be answered
        from the event loop immediately."""

        release = threading.Event()

        class GatedBackend:
            """A backend that blocks until the test releases it."""

            def __init__(self, inner):
                self._inner = inner

            def lookup(self, point):
                release.wait(10.0)
                return self._inner.lookup(point)

        geocoder = GeocodeService(
            GatedBackend(
                DirectBackend(ReverseGeocoder(small_ctx.korean_dataset.gazetteer))
            )
        )
        app = ServingApp(SnapshotStore(korean_snapshot), geocoder)
        server = AsyncServerThread(app).start()
        try:
            reverse_client = WireClient(server.port)
            reverse_client.send("GET", "/reverse?lat=37.5&lon=127.0")
            time.sleep(0.2)  # the reverse dispatch is now parked in the backend

            user_id = next(iter(korean_snapshot.users))
            with WireClient(server.port) as lookup_client:
                start = time.monotonic()
                status, _ = lookup_client.get(f"/lookup?user={user_id}")
                elapsed = time.monotonic() - start
            assert status == 200
            # The lookup never waited for the gated backend: had the cold
            # reverse dispatch run on the event loop, this would be >=
            # the gate's multi-second hold.
            assert elapsed < 2.0

            release.set()
            status, _, body = reverse_client.read_response()
            assert status == 200
            assert json.loads(body)["resolved"] is True
            reverse_client.close()
        finally:
            release.set()
            server.shutdown()


class TestLifecycle:
    def test_port_zero_binds_a_real_port(self, aio_server):
        assert aio_server.port > 0

    def test_shutdown_with_idle_connection_is_prompt(self, make_app):
        server = AsyncServerThread(make_app()).start()
        client = WireClient(server.port)
        assert client.get("/healthz")[0] == 200  # connection now idle
        start = time.monotonic()
        server.shutdown()
        assert time.monotonic() - start < 3.0
        client.close()

    def test_shutdown_is_idempotent(self, make_app):
        server = AsyncServerThread(make_app()).start()
        server.shutdown()
        server.shutdown()

    def test_bind_failure_surfaces_in_start(self, make_app):
        holder = AsyncServerThread(make_app()).start()
        try:
            with pytest.raises(OSError):
                AsyncServerThread(make_app(), port=holder.port).start()
        finally:
            holder.shutdown()

    def test_start_returns_the_serving_harness(self, make_app):
        """``start()`` returns ``self`` bound and serving, so callers
        one-line construction + start."""
        server = AsyncServerThread(make_app())
        try:
            assert server.start() is server
            with WireClient(server.port) as client:
                assert client.get("/healthz")[0] == 200
        finally:
            server.shutdown()
