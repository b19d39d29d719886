"""HTTP/1.1 keep-alive load generation: closed loop and open loop.

All load comes from this one process over at most a few keep-alive
connections to ``127.0.0.1``.  Every response is kept as
``(target, status, body)`` evidence for the correctness check: the
first body seen for a target is stored, and any later response to the
same target that differs in status or bytes counts as failed.

* Closed loop: each connection sends its next request when the previous
  answer has arrived; throughput is completed requests per second.
* Open loop: requests are due on a fixed schedule (``rate`` per second,
  dealt round-robin to the connections).  Latency is measured from the
  due time, so a stall also charges the requests queued behind it; how
  late the generator sent each request is reported separately.
"""

from __future__ import annotations

import socket
import threading
import time
from dataclasses import dataclass, field
from typing import Iterator

HOST = "127.0.0.1"


class HttpConnection:
    """One keep-alive connection issuing ``GET`` requests in sequence."""

    def __init__(self, port: int, timeout: float = 10.0):
        self.port = port
        self.timeout = timeout
        self._sock: socket.socket | None = None
        self._buffer = b""

    def _connect(self) -> socket.socket:
        sock = socket.create_connection((HOST, self.port), timeout=self.timeout)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock, self._buffer = sock, b""
        return sock

    def get(self, target: bytes) -> tuple[int, bytes]:
        """Send ``GET target`` and return ``(status, body)``.

        Raises ``OSError`` on a connection failure (the connection is
        closed and reopened by the next call).
        """
        return self.get_many([target])[0]

    def get_many(self, targets: list[bytes]) -> list[tuple[int, bytes]]:
        """Pipeline ``targets`` in one write; answers come back in order."""
        sock = self._sock or self._connect()
        try:
            sock.sendall(b"".join(
                b"GET " + target + b" HTTP/1.1\r\nHost: bench\r\n\r\n"
                for target in targets
            ))
            return [self._read_response(sock) for _ in targets]
        except (OSError, ValueError) as exc:
            self.close()
            raise OSError(f"request failed: {exc}") from exc

    def _read_response(self, sock: socket.socket) -> tuple[int, bytes]:
        buffer = self._buffer
        while True:
            end = buffer.find(b"\r\n\r\n")
            if end >= 0:
                break
            chunk = sock.recv(65536)
            if not chunk:
                raise ConnectionError("server closed the connection")
            buffer += chunk
        head = buffer[:end]
        status = int(head[9:12])
        length = 0
        close = False
        for line in head.split(b"\r\n")[1:]:
            name, _, value = line.partition(b":")
            name = name.strip().lower()
            if name == b"content-length":
                length = int(value)
            elif name == b"connection" and value.strip().lower() == b"close":
                close = True
        total = end + 4 + length
        while len(buffer) < total:
            chunk = sock.recv(65536)
            if not chunk:
                raise ConnectionError("server closed mid-body")
            buffer += chunk
        self._buffer = buffer[total:]
        body = buffer[end + 4:total]
        if close:
            raise ConnectionError("server closed a keep-alive connection")
        return status, body

    def close(self) -> None:
        """Close the socket (idempotent)."""
        if self._sock is not None:
            self._sock.close()
            self._sock = None
        self._buffer = b""


def get(port: int, target: str, timeout: float = 10.0) -> tuple[int, bytes]:
    """One request on a fresh connection."""
    connection = HttpConnection(port, timeout)
    try:
        return connection.get(target.encode())
    finally:
        connection.close()


@dataclass
class Evidence:
    """Responses seen by one generator: first body per target, mismatches."""

    first: dict[bytes, tuple[int, bytes]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0

    def check(self, target: bytes, status: int, body: bytes) -> None:
        """Keep the first answer per target; count any later disagreement."""
        seen = self.first.get(target)
        if seen is None:
            self.first[target] = (status, body)
        elif seen != (status, body):
            self.failed += 1

    def merge(self, other: "Evidence") -> None:
        """Fold another generator's evidence in (cross-checking targets)."""
        self.attempted += other.attempted
        self.failed += other.failed
        for target, answer in other.first.items():
            seen = self.first.setdefault(target, answer)
            if seen != answer:
                self.failed += 1


@dataclass
class LoopResult:
    """Latencies (seconds) and accounting of one load phase."""

    latencies: list[float] = field(default_factory=list)
    late: list[float] = field(default_factory=list)
    statuses: dict[int, int] = field(default_factory=dict)
    completed: int = 0
    elapsed_s: float = 0.0
    evidence: Evidence = field(default_factory=Evidence)

    def merge(self, other: "LoopResult") -> None:
        """Pool another connection's samples into this one."""
        self.latencies.extend(other.latencies)
        self.late.extend(other.late)
        for status, count in other.statuses.items():
            self.statuses[status] = self.statuses.get(status, 0) + count
        self.completed += other.completed
        self.evidence.merge(other.evidence)


def _record(result: LoopResult, connection: HttpConnection, target: bytes,
            verify: bool) -> bool:
    result.evidence.attempted += 1
    try:
        status, body = connection.get(target)
    except OSError:
        result.evidence.failed += 1
        return False
    result.completed += 1
    result.statuses[status] = result.statuses.get(status, 0) + 1
    if verify:
        result.evidence.check(target, status, body)
    return True


def closed_loop(port: int, streams: list[Iterator[bytes]], seconds: float,
                warmup_s: float, depth: int = 1, verify: bool = True) -> LoopResult:
    """Each stream of targets is sent in order on its own connection.

    A connection writes ``depth`` pipelined requests, reads their
    answers, and only then writes the next ``depth``: still a closed
    loop, but one that keeps the server busy while the client parses.
    Requests of the first ``warmup_s`` seconds are checked but not
    counted; requests sent in the next ``seconds`` are measured
    (``completed``).
    """
    results = [LoopResult() for _ in streams]
    start = time.perf_counter()
    measure_from = start + warmup_s
    stop_at = measure_from + seconds

    def worker(index: int) -> None:
        connection = HttpConnection(port)
        targets = streams[index]
        result = results[index]
        evidence = result.evidence
        measured = 0
        try:
            while True:
                batch = [next(targets) for _ in range(depth)]
                began = time.perf_counter()
                if began >= stop_at:
                    break
                evidence.attempted += depth
                try:
                    answers = connection.get_many(batch)
                except OSError:
                    evidence.failed += depth
                    continue
                if began >= measure_from:
                    measured += depth
                for target, (status, body) in zip(batch, answers):
                    result.statuses[status] = result.statuses.get(status, 0) + 1
                    if verify:
                        evidence.check(target, status, body)
        finally:
            connection.close()
        result.completed = measured

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(streams))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    total = LoopResult(elapsed_s=seconds)
    for result in results:
        total.merge(result)
    return total


def open_loop(port: int, targets: list[bytes], rate: float, seconds: float,
              connections: int, verify: bool = True,
              stop: threading.Event | None = None) -> LoopResult:
    """Send ``targets`` in order at ``rate`` per second for ``seconds``.

    Request ``i`` is due at ``start + i / rate`` and goes out on
    connection ``i % connections``.  Each connection sends its requests
    in due order, waiting for the previous answer first; its latency
    sample is ``answer time - due time``.  Its lateness is how far the
    generator overslept: ``send time - max(due time, previous answer
    time)``, so waiting on a slow server is latency, not lateness.
    ``stop`` ends the phase early.
    """
    total_requests = int(rate * seconds)
    results = [LoopResult() for _ in range(connections)]
    start = time.perf_counter() + 0.01
    interval = 1.0 / rate

    def worker(index: int) -> None:
        connection = HttpConnection(port)
        result = results[index]
        answered = start
        try:
            for i in range(index, total_requests, connections):
                if stop is not None and stop.is_set():
                    break
                due = start + i * interval
                wait = due - time.perf_counter()
                if wait > 0:
                    time.sleep(wait)
                sent = time.perf_counter()
                ok = _record(result, connection, targets[i % len(targets)], verify)
                previous, answered = answered, time.perf_counter()
                if ok:
                    result.latencies.append(answered - due)
                    result.late.append(sent - max(due, previous))
        finally:
            connection.close()

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(connections)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    total = LoopResult(elapsed_s=time.perf_counter() - start)
    for result in results:
        total.merge(result)
    return total


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile (0-100) of ``values``."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, int(round(q / 100.0 * (len(ordered) - 1)))))
    return ordered[rank]
