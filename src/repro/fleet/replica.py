"""Subprocess replicas: spawn, watch, restart.

A :class:`ReplicaHandle` wraps one ``repro serve`` subprocess: it spawns
the process with ``--port 0``, parses the bound port from the startup
banner, waits until ``/healthz`` answers, and can terminate it.  The
:class:`ReplicaSupervisor` owns N handles plus the shared
:class:`~repro.fleet.targets.ReplicaSet`: a monitor thread polls the
processes and restarts any that die, re-binding the front's target at
the new port so traffic resumes without reconfiguration.

The one subtle piece of state is ``desired_path`` — the snapshot a
*restarted* replica must boot with.  It starts as the seed snapshot and
is advanced by the rollout controller **only on promote**, so a replica
that crashes mid-rollout comes back on whichever version the fleet has
actually committed to: the old one if the canary has not been promoted
yet, the new one after promotion.  (A restarted replica boots from its
snapshot file, so it lands on the right version even though it missed
the in-place ``/admin/reload`` fan-out.)
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import threading
import time
from pathlib import Path

from repro.errors import ReplicaBootError
from repro.fleet.targets import ReplicaSet, ReplicaTarget

#: Startup banner line the serve CLI prints once the socket is bound.
_BANNER_RE = re.compile(r"on http://[^\s:]+:(\d+)")

#: Seconds allowed for a fresh subprocess to print its banner and pass
#: its first health check.
DEFAULT_BOOT_TIMEOUT_S = 30.0

#: Seconds between supervisor liveness sweeps.
DEFAULT_POLL_INTERVAL_S = 0.25


def _repro_env() -> dict[str, str]:
    """Subprocess environment with this ``repro`` package importable."""
    env = dict(os.environ)
    package_root = str(Path(__file__).resolve().parents[2])
    existing = env.get("PYTHONPATH", "")
    if package_root not in existing.split(os.pathsep):
        env["PYTHONPATH"] = (
            package_root + (os.pathsep + existing if existing else "")
        )
    return env


class ReplicaHandle:
    """One ``repro serve`` subprocess and its lifecycle.

    Args:
        replica_id: Stable fleet name for this slot (``"r0"``, …).
        snapshot_path: Study artifact the replica boots from.
        gazetteer: Gazetteer name passed through to ``repro serve``.
        host: Bind address (loopback for single-machine fleets).
        boot_timeout_s: Deadline for banner + first health check.
    """

    def __init__(
        self,
        replica_id: str,
        snapshot_path: str,
        gazetteer: str = "korean",
        host: str = "127.0.0.1",
        boot_timeout_s: float = DEFAULT_BOOT_TIMEOUT_S,
    ):
        self.replica_id = replica_id
        self.snapshot_path = snapshot_path
        self.gazetteer = gazetteer
        self.host = host
        self.boot_timeout_s = boot_timeout_s
        self.port: int | None = None
        self._process: subprocess.Popen | None = None
        self._banner_event = threading.Event()
        self._tail: list[str] = []
        self._reader: threading.Thread | None = None

    # ----------------------------------------------------------------- spawn
    def _command(self) -> list[str]:
        return [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--snapshot",
            self.snapshot_path,
            "--host",
            self.host,
            "--port",
            "0",
            "--gazetteer",
            self.gazetteer,
        ]

    def _drain_stdout(self, stream) -> None:
        """Reader thread: find the banner, then keep the pipe from filling."""
        for raw in stream:
            line = raw.rstrip("\n")
            self._tail.append(line)
            del self._tail[:-20]
            if not self._banner_event.is_set():
                match = _BANNER_RE.search(line)
                if match:
                    self.port = int(match.group(1))
                    self._banner_event.set()
        stream.close()

    def start(self) -> None:
        """Spawn the subprocess and wait until it serves ``/healthz``.

        Raises:
            ReplicaBootError: if the process exits, never prints a
                banner, or never passes a health check within the boot
                timeout.
        """
        self.port = None
        self._banner_event.clear()
        self._tail = []
        self._process = subprocess.Popen(
            self._command(),
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=_repro_env(),
        )
        self._reader = threading.Thread(
            target=self._drain_stdout,
            args=(self._process.stdout,),
            name=f"replica-{self.replica_id}-stdout",
            daemon=True,
        )
        self._reader.start()
        deadline = time.monotonic() + self.boot_timeout_s
        while not self._banner_event.wait(timeout=0.05):
            if self._process.poll() is not None:
                raise ReplicaBootError(
                    f"replica {self.replica_id} exited with code "
                    f"{self._process.returncode} before binding; last output: "
                    f"{' | '.join(self._tail[-5:])}"
                )
            if time.monotonic() >= deadline:
                self.terminate()
                raise ReplicaBootError(
                    f"replica {self.replica_id} printed no banner within "
                    f"{self.boot_timeout_s:.0f}s"
                )
        self._wait_healthy(deadline)

    def _wait_healthy(self, deadline: float) -> None:
        probe = ReplicaTarget(self.replica_id, self.host, int(self.port or 0))
        try:
            while time.monotonic() < deadline:
                if self._process is not None and self._process.poll() is not None:
                    raise ReplicaBootError(
                        f"replica {self.replica_id} exited with code "
                        f"{self._process.returncode} before its first health "
                        f"check; last output: {' | '.join(self._tail[-5:])}"
                    )
                if probe.probe() is not None:
                    return
                time.sleep(0.05)
        finally:
            probe.close()
        raise ReplicaBootError(
            f"replica {self.replica_id} bound port {self.port} but never "
            f"answered /healthz within {self.boot_timeout_s:.0f}s"
        )

    # ------------------------------------------------------------- lifecycle
    @property
    def alive(self) -> bool:
        """Whether the subprocess is currently running."""
        return self._process is not None and self._process.poll() is None

    @property
    def pid(self) -> int | None:
        """The subprocess pid (``None`` before the first start)."""
        return self._process.pid if self._process is not None else None

    def kill(self) -> None:
        """Hard-kill the subprocess (fault injection in tests)."""
        if self._process is not None and self._process.poll() is None:
            self._process.kill()
            self._process.wait()

    def terminate(self, timeout_s: float = 5.0) -> None:
        """Politely stop the subprocess, escalating to kill on timeout."""
        process = self._process
        if process is None:
            return
        if process.poll() is None:
            process.terminate()
            try:
                process.wait(timeout=timeout_s)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
        if self._reader is not None:
            self._reader.join(timeout=1.0)


class ReplicaSupervisor:
    """Owns N subprocess replicas and keeps them running.

    Args:
        snapshot_path: Seed snapshot every replica boots with (becomes
            each handle's initial ``desired`` version).
        replicas: Fleet size.
        gazetteer: Gazetteer name for the replicas.
        targets: Shared registry the front routes from; the supervisor
            registers one target per replica and rebinds it on restart.
        metrics: Optional registry for ``fleet.restarts``.
        poll_interval_s: Seconds between liveness sweeps.
        boot_timeout_s: Per-replica boot deadline.
    """

    def __init__(
        self,
        snapshot_path: str,
        replicas: int,
        targets: ReplicaSet,
        gazetteer: str = "korean",
        metrics=None,
        poll_interval_s: float = DEFAULT_POLL_INTERVAL_S,
        boot_timeout_s: float = DEFAULT_BOOT_TIMEOUT_S,
    ):
        if replicas < 1:
            raise ValueError(f"fleet needs at least one replica, got {replicas}")
        self.targets = targets
        self.metrics = metrics
        self._poll_interval_s = poll_interval_s
        self._handles: dict[str, ReplicaHandle] = {}
        self._desired: dict[str, str] = {}
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._monitor: threading.Thread | None = None
        self.restarts = 0
        for index in range(replicas):
            replica_id = f"r{index}"
            self._handles[replica_id] = ReplicaHandle(
                replica_id,
                snapshot_path,
                gazetteer=gazetteer,
                boot_timeout_s=boot_timeout_s,
            )
            self._desired[replica_id] = snapshot_path

    # ----------------------------------------------------------------- start
    def start(self) -> None:
        """Boot every replica, register its target, start the monitor."""
        try:
            for handle in self._handles.values():
                handle.start()
                self.targets.add(
                    ReplicaTarget(handle.replica_id, handle.host, int(handle.port))
                )
        except Exception:
            self.stop()
            raise
        self._stop.clear()
        self._monitor = threading.Thread(
            target=self._watch, name="fleet-supervisor", daemon=True
        )
        self._monitor.start()

    def stop(self) -> None:
        """Stop the monitor and terminate every replica."""
        self._stop.set()
        if self._monitor is not None:
            self._monitor.join(timeout=5.0)
            self._monitor = None
        for handle in self._handles.values():
            handle.terminate()

    # --------------------------------------------------------------- desired
    def set_desired_path(self, snapshot_path: str) -> None:
        """Advance the fleet-wide restart version (called on promote)."""
        with self._lock:
            for replica_id in self._desired:
                self._desired[replica_id] = snapshot_path

    def desired_path(self, replica_id: str) -> str | None:
        """The snapshot a restart of ``replica_id`` would boot with."""
        with self._lock:
            return self._desired.get(replica_id)

    # --------------------------------------------------------------- monitor
    def handles(self) -> list[ReplicaHandle]:
        """The supervised handles, fleet order."""
        return list(self._handles.values())

    def handle(self, replica_id: str) -> ReplicaHandle | None:
        """The handle for ``replica_id``, if supervised."""
        return self._handles.get(replica_id)

    def _watch(self) -> None:
        while not self._stop.wait(self._poll_interval_s):
            for handle in self._handles.values():
                if handle.alive or self._stop.is_set():
                    continue
                self._restart(handle)

    def _restart(self, handle: ReplicaHandle) -> None:
        """Respawn a dead replica on its desired version and rebind routing."""
        target = self.targets.get(handle.replica_id)
        if target is not None:
            target.mark_down()
        with self._lock:
            handle.snapshot_path = self._desired[handle.replica_id]
        try:
            handle.start()
        except Exception:
            # Leave the slot down; the next sweep tries again.  A boot
            # loop (bad snapshot) therefore retries at the poll cadence
            # rather than spinning.
            return
        self.restarts += 1
        if self.metrics is not None:
            self.metrics.counter("fleet.restarts")
        if target is not None:
            target.rebind(int(handle.port))
        else:
            self.targets.add(
                ReplicaTarget(handle.replica_id, handle.host, int(handle.port))
            )
