"""Asyncio serving front door: :class:`ServingApp` on one event loop.

:class:`AsyncStudyServer` serves the
:meth:`~repro.serving.http.ServingApp.dispatch` core from a single
event loop: one task per connection, hand-rolled minimal HTTP/1.1
parsing, keep-alive by default, and request pipelining for free (the
stream reader buffers whatever the client sent ahead; the loop just
keeps parsing).  It is the only transport: ``repro serve``, ``repro
live`` and both the front and the replicas of ``repro fleet run`` start
it through :class:`AsyncServerThread`.

**What runs where.**  Every endpoint except a *cold* ``/reverse`` cell
is non-blocking — a pure read of the snapshot the request grabbed — so
it dispatches directly on the event loop; the per-request overhead is
parsing, not context switching.  A cold ``/reverse`` blocks on the
geocode backend (milliseconds, not microseconds), so those requests are
routed through a small thread-pool executor, identified up front by
:meth:`ServingApp.dispatch_blocks` (a read-only cache probe).  The
executor threads re-enter the same
:class:`~repro.serving.batcher.SingleFlight`-coordinated service, so
concurrent duplicate misses still cost one backend call per distinct
cell.

**Identical semantics by construction.**  Admission, snapshot grab,
handlers, canonical JSON encoding, latency recording, hot reload — all
of it lives inside ``ServingApp.dispatch``, which the server mounts
unchanged.  The conformance suite (``tests/serving/test_parity.py``)
asserts the consequence: wire bodies byte-identical to an in-process
``dispatch`` on every endpoint, including while snapshots hot-swap
under the requests.

**Error taxonomy** (connection level; ``dispatch`` owns request-level
errors):

* Malformed framing — bad request line, oversized header, invalid
  ``Content-Length``, a ``Transfer-Encoding`` we do not implement —
  answers ``400`` with a canonical JSON body and closes the connection
  (framing errors are not recoverable mid-stream).
* A client that disappears — reset mid-request, EOF mid-body, reset
  while a response is being written — increments
  ``serving.client_disconnects`` and closes quietly; no traceback, no
  response attempt.
* EOF at a request boundary is a clean close: counted nowhere, it is
  how keep-alive connections are supposed to end.
"""

from __future__ import annotations

import asyncio
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from repro.serving.http import CONTENT_TYPE, ServingApp, encode_body

#: Longest accepted request/header line, and the stream reader's buffer
#: limit.  Anything longer is a framing error, not a request.
MAX_LINE_BYTES = 65_536

#: Maximum header count per request — a backstop against slow-drip
#: header floods holding parser state open forever.
MAX_HEADER_COUNT = 100

#: Executor threads for dispatches the app declares blocking: cold
#: ``/reverse`` cells on a study app, every proxied request on a fleet
#: front.  Work beyond this queues behind the pool; duplicates of an
#: in-flight ``/reverse`` cell coalesce in single-flight regardless.
REVERSE_EXECUTOR_WORKERS = 8

#: Reason phrases for the statuses the dispatch core emits.
_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    429: "Too Many Requests",
    500: "Internal Server Error",
}


class _BadRequest(Exception):
    """Client-visible framing error: answered 400, then the connection closes."""


class _ClientDisconnect(Exception):
    """The client vanished mid-request; close quietly and count it."""


@dataclass
class _Request:
    """One parsed request head (the body is drained during parsing)."""

    method: str
    target: str
    keep_alive: bool


def _response_bytes(status: int, payload: bytes, keep_alive: bool) -> bytes:
    """Serialise one complete HTTP/1.1 response."""
    head = (
        f"HTTP/1.1 {status} {_REASONS.get(status, 'Response')}\r\n"
        f"Content-Type: {CONTENT_TYPE}\r\n"
        f"Content-Length: {len(payload)}\r\n"
        f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
        "\r\n"
    )
    return head.encode("latin-1") + payload


class AsyncStudyServer:
    """The study snapshot server on one event loop, shared app.

    Mounts a :class:`~repro.serving.http.ServingApp`; see the module
    docstring for the event-loop/executor split and error taxonomy.

    Args:
        app: The request core.  Any object with the ``dispatch`` /
            ``dispatch_blocks`` / ``metrics`` surface mounts here — the
            fleet front (:class:`~repro.fleet.front.FleetFront`) reuses
            this exact framing code by implementing the same protocol.
        host: Bind address.
        port: TCP port; ``0`` picks a free one (see :attr:`port`).
    """

    def __init__(self, app: ServingApp, host: str = "127.0.0.1", port: int = 8080):
        self.app = app
        self._host = host
        self._requested_port = port
        self._server: asyncio.Server | None = None
        self._connections: set[asyncio.Task] = set()
        self._executor = ThreadPoolExecutor(
            max_workers=REVERSE_EXECUTOR_WORKERS,
            thread_name_prefix="aio-reverse",
        )

    # ------------------------------------------------------------- lifecycle
    async def start(self) -> None:
        """Bind the listening socket (idempotent per instance)."""
        if self._server is not None:
            return
        self._server = await asyncio.start_server(
            self._handle_connection,
            self._host,
            self._requested_port,
            limit=MAX_LINE_BYTES,
        )

    @property
    def port(self) -> int:
        """The actually-bound port (useful after binding port 0)."""
        assert self._server is not None, "server not started"
        return self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        """Close the listening socket, drop live connections, release the
        executor.

        Open keep-alive connections are parked in ``readline`` waiting
        for a next request that will never matter; they are cancelled
        explicitly, because (since 3.12) ``Server.wait_closed`` waits for
        connection handlers and an idle client would otherwise pin the
        shutdown forever.
        """
        if self._server is not None:
            self._server.close()
            for task in list(self._connections):
                task.cancel()
            await self._server.wait_closed()
        self._executor.shutdown(wait=False, cancel_futures=True)

    # ------------------------------------------------------------ connection
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Serve one connection: parse, dispatch, respond, repeat."""
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except _BadRequest as exc:
                    payload = encode_body({"error": str(exc)})
                    writer.write(_response_bytes(400, payload, keep_alive=False))
                    await writer.drain()
                    return
                if request is None:
                    return  # clean close at a request boundary
                status, payload = await self._dispatch(request)
                writer.write(_response_bytes(status, payload, request.keep_alive))
                await writer.drain()
                if not request.keep_alive:
                    return
        except (_ClientDisconnect, ConnectionResetError, BrokenPipeError):
            self.app.metrics.counter("serving.client_disconnects")
        except asyncio.CancelledError:
            # Deliberate teardown (stop() cancelling parked keep-alive
            # connections).  Exit cleanly — re-raising would make every
            # shutdown log a phantom connection error.
            pass
        finally:
            if task is not None:
                self._connections.discard(task)
            writer.close()

    async def _dispatch(self, request: _Request) -> tuple[int, bytes]:
        """Run one request through the shared core, off-loop if it blocks."""
        if self.app.dispatch_blocks(request.method, request.target):
            return await asyncio.get_running_loop().run_in_executor(
                self._executor, self.app.dispatch, request.method, request.target
            )
        return self.app.dispatch(request.method, request.target)

    # --------------------------------------------------------------- parsing
    async def _read_request(self, reader: asyncio.StreamReader) -> _Request | None:
        """Parse one request head and drain its body.

        Returns ``None`` on a clean EOF at the request boundary.  Raises
        :class:`_BadRequest` on a framing error and
        :class:`_ClientDisconnect` when the stream dies mid-request.
        """
        line = await self._read_line(reader, context="request line")
        while line in (b"\r\n", b"\n"):  # tolerate blank lines between requests
            line = await self._read_line(reader, context="request line")
        if line == b"":
            return None
        if not line.endswith(b"\n"):
            # readline returned a partial line: EOF mid-request-line.
            raise _ClientDisconnect
        try:
            method, target, version = line.decode("latin-1").split()
        except ValueError:
            raise _BadRequest(f"malformed request line: {line[:80]!r}") from None
        if not version.startswith("HTTP/1."):
            raise _BadRequest(f"unsupported protocol: {version!r}")

        headers: dict[str, str] = {}
        for _ in range(MAX_HEADER_COUNT + 1):
            line = await self._read_line(reader, context="header")
            if line in (b"\r\n", b"\n"):
                break
            if line == b"" or not line.endswith(b"\n"):
                raise _ClientDisconnect  # EOF mid-headers
            name, sep, value = line.decode("latin-1").partition(":")
            if not sep:
                raise _BadRequest(f"malformed header line: {line[:80]!r}")
            headers[name.strip().lower()] = value.strip()
        else:
            raise _BadRequest(f"more than {MAX_HEADER_COUNT} headers")

        if "transfer-encoding" in headers:
            raise _BadRequest("Transfer-Encoding is not supported")
        await self._drain_body(reader, headers.get("content-length"))

        tokens = {
            token.strip().lower()
            for token in headers.get("connection", "").split(",")
        }
        if version == "HTTP/1.0":
            keep_alive = "keep-alive" in tokens
        else:
            keep_alive = "close" not in tokens
        return _Request(method=method, target=target, keep_alive=keep_alive)

    async def _read_line(
        self, reader: asyncio.StreamReader, context: str
    ) -> bytes:
        """One ``readline`` with framing and disconnect errors mapped."""
        try:
            return await reader.readline()
        except ValueError:
            # The stream reader's buffer limit tripped: an overlong line.
            raise _BadRequest(
                f"{context} exceeds {MAX_LINE_BYTES} bytes"
            ) from None
        except ConnectionResetError:
            raise _ClientDisconnect from None

    async def _drain_body(
        self, reader: asyncio.StreamReader, raw_length: str | None
    ) -> None:
        """Read and discard the declared request body.

        The dispatch core takes no request bodies, but the bytes must
        leave the stream: an undrained body would be parsed as the next
        pipelined request's head, corrupting every request behind it on
        the connection.
        """
        if raw_length is None:
            return
        try:
            remaining = int(raw_length)
            if remaining < 0:
                raise ValueError
        except ValueError:
            raise _BadRequest(f"invalid Content-Length: {raw_length!r}") from None
        try:
            while remaining > 0:
                chunk = await reader.read(min(remaining, MAX_LINE_BYTES))
                if not chunk:
                    raise _ClientDisconnect  # EOF mid-body
                remaining -= len(chunk)
        except ConnectionResetError:
            raise _ClientDisconnect from None


class AsyncServerThread:
    """An :class:`AsyncStudyServer` on a dedicated event-loop thread.

    The synchronous harness the rest of the system needs: ``repro live``
    runs its pipeline on the main thread, ``repro serve`` and ``repro
    fleet run`` park the main thread in :meth:`join` so Ctrl-C and
    ``SIGHUP`` land there, and tests and benchmarks drive blocking
    socket clients — all of them want ``start() / port / shutdown()``
    semantics.

    Args:
        app: The request core.
        host: Bind address.
        port: TCP port; ``0`` picks a free one.
    """

    def __init__(self, app: ServingApp, host: str = "127.0.0.1", port: int = 0):
        self.app = app
        self._host = host
        self._requested_port = port
        self._thread = threading.Thread(
            target=self._run, name="aio-serving", daemon=True
        )
        self._ready = threading.Event()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop_event: asyncio.Event | None = None
        self._port: int | None = None
        self._boot_error: BaseException | None = None

    def start(self, timeout: float = 10.0) -> "AsyncServerThread":
        """Start the loop thread and wait until the socket is bound.

        Returns ``self`` so callers can one-line construction + start.
        Re-raises a bind failure (e.g. port in use) in the caller's
        thread.
        """
        self._thread.start()
        if not self._ready.wait(timeout):
            raise RuntimeError("asyncio server failed to start in time")
        if self._boot_error is not None:
            raise self._boot_error
        return self

    @property
    def port(self) -> int:
        """The actually-bound port (valid after :meth:`start` returns)."""
        assert self._port is not None, "server not started"
        return self._port

    def shutdown(self, timeout: float = 5.0) -> None:
        """Stop accepting, close the loop, and join the thread (idempotent)."""
        loop = self._loop
        stop = self._stop_event
        if loop is not None and stop is not None and loop.is_running():
            loop.call_soon_threadsafe(stop.set)
        if self._thread.is_alive():
            self._thread.join(timeout)

    def join(self) -> None:
        """Block until the server thread exits (Ctrl-C still interrupts)."""
        self._thread.join()

    def _run(self) -> None:
        """Thread body: own event loop, serve until :meth:`shutdown`."""
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # surface boot failures to start()
            if not self._ready.is_set():
                self._boot_error = exc
                self._ready.set()
            else:
                raise

    async def _main(self) -> None:
        """Bind, publish readiness, then park until told to stop."""
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        server = AsyncStudyServer(
            self.app, host=self._host, port=self._requested_port
        )
        await server.start()
        self._port = server.port
        self._ready.set()
        try:
            await self._stop_event.wait()
        finally:
            await server.stop()
