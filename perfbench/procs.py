"""Spawn ``repro`` commands through the launcher and watch them from ``/proc``."""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from statistics import median

from loadgen import get

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
LAUNCHER = BENCH_DIR / "launch.py"
_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")
_PORT_RE = re.compile(r"https?://[\w.\-]+:(\d+)")


def _split_cpus() -> tuple[set[int], set[int]]:
    """(CPUs for the program, CPUs for the benchmark's own threads).

    With two or more CPUs the program gets the last one to itself and the
    load generator the others; with one, both share it.
    """
    allowed = sorted(os.sched_getaffinity(0))
    if len(allowed) < 2:
        return set(allowed), set(allowed)
    return {allowed[-1]}, set(allowed[:-1])


PROGRAM_CPUS, BENCH_CPUS = _split_cpus()
#: Thread CPU seconds the speed probe's task takes at the reference speed;
#: scaled CPU times read as if the program's CPU ran at that speed.
PROBE_REF_S = 1e-3
PROBE_INTERVAL_S = 0.05


class ProgramMissing(RuntimeError):
    """The checkout holds no program to benchmark."""


def program_env(extra: dict[str, str] | None = None) -> dict[str, str]:
    """Environment for a launched command: the checkout's ``src`` first."""
    src = ROOT / "src"
    if not (src / "repro" / "cli.py").is_file():
        raise ProgramMissing(f"no program sources under {src}")
    env = dict(os.environ)
    for key in ("PERFBENCH_TRACE", "PERFBENCH_TRACE_EVENTS", "PERFBENCH_REPORT"):
        env.pop(key, None)
    env["PYTHONPATH"] = str(src)
    env["PYTHONHASHSEED"] = "0"
    env["PERFBENCH_CPUS"] = ",".join(map(str, sorted(PROGRAM_CPUS)))
    env.update(extra or {})
    return env


def trace_env(trace_path: Path | None, events_path: Path | None) -> dict[str, str]:
    """Launcher variables that switch tracing on (empty when off)."""
    if trace_path is None:
        return {}
    env = {"PERFBENCH_TRACE": str(trace_path)}
    if events_path is not None:
        env["PERFBENCH_TRACE_EVENTS"] = str(events_path)
    return env


def run_command(args: list[str], report: Path, extra_env: dict[str, str] | None = None,
                timeout: float = 170.0) -> tuple[float, dict, str]:
    """Run one command to completion; returns (wall s, exit report, stdout).

    While the command runs, its descendants are sampled from ``/proc``
    every 50 ms.  The report gains ``tree_peak_rss_mb``: the command's
    peak RSS plus the summed peaks of the children it started (at least
    the largest waited-for child's, so a child too short-lived to be
    sampled still counts), ``leftovers``: how many children were still
    running after the command exited (they are stopped here), and
    ``scaled_user_cpu_s``/``scaled_wall_s``/``probe_ms`` from a
    :class:`SpeedProbe`.
    """
    env = program_env({"PERFBENCH_REPORT": str(report), **(extra_env or {})})
    start = time.perf_counter()
    process = subprocess.Popen(
        [sys.executable, str(LAUNCHER), *args], cwd=ROOT, env=env,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    children: dict[tuple[int, int | None], int] = {}
    deadline = time.monotonic() + timeout
    with SpeedProbe(lambda: process_tree(process.pid)) as probe:
        while True:
            try:
                stdout, stderr = process.communicate(timeout=0.05)
                break
            except subprocess.TimeoutExpired:
                for pid in process_tree(process.pid)[1:]:
                    key = (pid, _start_ticks(pid))
                    children[key] = max(children.get(key, 0), _vm_hwm_kb(pid))
                if time.monotonic() > deadline:
                    for pid in process_tree(process.pid):
                        _kill(pid)
                    process.communicate()
                    raise RuntimeError(f"repro {' '.join(args[:1])} ran over {timeout:.0f}s")
    wall = time.perf_counter() - start
    leftovers = [pid for pid, ticks in children if ticks and _start_ticks(pid) == ticks]
    _stop_leftovers(leftovers)
    if process.returncode != 0:
        raise RuntimeError(
            f"repro {' '.join(args[:1])} exited {process.returncode}: "
            f"{stderr.strip()[-500:]}"
        )
    result = json.loads(report.read_text())
    children_kb = max(sum(children.values()), result["children_peak_rss_kb"])
    result["tree_peak_rss_mb"] = (result["peak_rss_kb"] + children_kb) / 1024.0
    result["leftovers"] = len(leftovers)
    result["scaled_user_cpu_s"] = probe.scale(result["user_cpu_s"])
    result["scaled_wall_s"] = wall * probe.speed
    result["probe_ms"] = probe.task_ms
    return wall, result, stdout


def _probe_task() -> float:
    """Thread CPU seconds of a fixed pure-Python task (dict, str, float work)."""
    began = time.thread_time()
    table: dict[str, float] = {}
    for i in range(2000):
        key = f"user{i % 997}#{i % 13}"
        table[key] = table.get(key, 0.0) + (i * 0.5) ** 0.5
    return time.thread_time() - began


class SpeedProbe:
    """Scales a program's user CPU time to a reference speed of its CPU.

    On a shared host the same work takes a different CPU time from one
    second to the next: on the two-vCPU reference host a fixed task flips
    between two speeds ~1.7x apart every few seconds, with neighbours'
    load the benchmark cannot see.  While the probe is active, a thread
    pinned to the program's CPU runs a fixed task every 50 ms and reads
    the program's user CPU time from ``/proc``; each interval's CPU time
    is weighted by ``PROBE_REF_S`` over the mean task time at its two
    ends, so work done while the CPU ran slow is not charged as more work.
    Without ``pids`` it only times the task, for :attr:`speed`.
    """

    def __init__(self, pids=None):
        self._pids = pids  # callable: the program's live process ids
        self._stop = threading.Event()
        self.samples: list[tuple[float, float]] = []  # (program user s, task s)
        self.tasks: list[float] = []
        self._thread = threading.Thread(target=self._run, daemon=True)

    def __enter__(self) -> "SpeedProbe":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _run(self) -> None:
        os.sched_setaffinity(0, PROGRAM_CPUS)
        self.tasks.append(_probe_task())
        if self._pids is None:
            while not self._stop.wait(PROBE_INTERVAL_S):
                self.tasks.append(_probe_task())
            return
        last = cpu_times(self._pids())[0]
        while not self._stop.wait(PROBE_INTERVAL_S):
            task = _probe_task()
            user = cpu_times(self._pids())[0]
            if user >= last:  # a smaller reading means the program has exited
                self.samples.append((user - last, (self.tasks[-1] + task) / 2))
            self.tasks.append(task)
            last = user

    @property
    def factor(self) -> float:
        """CPU-weighted mean of reference over task time."""
        busy = sum(user for user, _ in self.samples)
        if not busy:
            return PROBE_REF_S / median(self.tasks)
        return sum(user * PROBE_REF_S / task for user, task in self.samples) / busy

    @property
    def speed(self) -> float:
        """Mean of reference over task time: scales a wall time."""
        return sum(PROBE_REF_S / task for task in self.tasks) / len(self.tasks)

    def scale(self, user_s: float) -> float:
        """``user_s`` of the program, as CPU seconds at the reference speed."""
        return user_s * self.factor

    @property
    def task_ms(self) -> float:
        """Median probe task time, in ms: how fast the CPU ran."""
        return median(self.tasks) * 1000.0


class Server:
    """A long-running ``repro`` command that prints a URL banner.

    The spawn time is taken just before ``Popen``; :meth:`wait_healthy`
    returns the seconds from there to the first ``200`` on ``/healthz``.
    Output lines are timestamped as they arrive, so a caller can time
    events the program prints (see :meth:`wait_for_line`).
    """

    def __init__(self, args: list[str], extra_env: dict[str, str] | None = None):
        self.lines: list[tuple[float, str]] = []
        self._line_event = threading.Condition()
        self.port: int | None = None
        self.leftovers = 0
        self.spawned = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, str(LAUNCHER), *args],
            cwd=ROOT, env=program_env(extra_env),
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self) -> None:
        for raw in self.process.stdout:
            stamp = time.perf_counter()
            line = raw.rstrip("\n")
            with self._line_event:
                if self.port is None:
                    match = _PORT_RE.search(line)
                    if match:
                        self.port = int(match.group(1))
                self.lines.append((stamp, line))
                self._line_event.notify_all()
        with self._line_event:
            self._line_event.notify_all()

    def wait_for_line(self, needle: str, timeout: float) -> float:
        """Arrival time of the first output line containing ``needle``."""
        deadline = time.monotonic() + timeout
        with self._line_event:
            while True:
                for stamp, line in self.lines:
                    if needle in line:
                        return stamp
                remaining = deadline - time.monotonic()
                if remaining <= 0 or (self.process.poll() is not None
                                      and not self._reader.is_alive()):
                    raise RuntimeError(
                        f"no output line with {needle!r}; last output: "
                        f"{' | '.join(line for _, line in self.lines[-5:])}"
                    )
                self._line_event.wait(min(remaining, 0.2))

    def wait_healthy(self, timeout: float = 120.0) -> float:
        """Seconds from spawn to the first 200 on ``/healthz``."""
        deadline = time.monotonic() + timeout
        while self.port is None:
            if self.process.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError(
                    "server printed no URL; last output: "
                    + " | ".join(line for _, line in self.lines[-5:])
                )
            with self._line_event:
                self._line_event.wait(0.005)
        while True:
            try:
                status, _ = get(self.port, "/healthz", timeout=2.0)
            except OSError:
                status = 0
            if status == 200:
                return time.perf_counter() - self.spawned
            if self.process.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError("/healthz never answered 200")
            time.sleep(0.002)

    def pids(self) -> list[int]:
        """This process and its live descendants."""
        return process_tree(self.process.pid)

    def stop(self, timeout: float = 15.0) -> int:
        """SIGINT, wait; SIGKILL the tree if it does not exit in time.

        Sets ``stop_s`` (seconds the stop took) and ``leftovers`` (child
        processes still running after the command exited).
        """
        began = time.perf_counter()
        tree = self.pids()
        started = {pid: _start_ticks(pid) for pid in tree}
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
        try:
            code = self.process.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            for pid in tree:
                _kill(pid)
            code = self.process.wait(timeout=timeout)
        # Children the program should have stopped but left behind are
        # counted in ``leftovers`` (callers fail a check on them) and
        # stopped here, so none outlives the run.
        leftovers = [pid for pid in tree[1:] if _start_ticks(pid) == started[pid]]
        _stop_leftovers(leftovers)
        self.leftovers = len(leftovers)
        self._reader.join(timeout)
        self.stop_s = time.perf_counter() - began
        return code


def _stop_leftovers(pids: list[int]) -> None:
    """SIGTERM, then SIGKILL, processes the program left running."""
    for pid in pids:
        _signal(pid, signal.SIGTERM)
    for pid in pids:
        _wait_gone(pid, 5.0)


def _signal(pid: int, signum: int) -> None:
    try:
        os.kill(pid, signum)
    except ProcessLookupError:
        pass


def _kill(pid: int) -> None:
    _signal(pid, signal.SIGKILL)


def _wait_gone(pid: int, timeout: float) -> None:
    """Wait for a grandchild to exit; kill it if it outlives ``timeout``."""
    deadline = time.monotonic() + timeout
    while Path(f"/proc/{pid}").exists() and _state(pid) != "Z":
        if time.monotonic() > deadline:
            _kill(pid)
            deadline = time.monotonic() + timeout
        time.sleep(0.02)


def _stat_fields(pid: int) -> list[str]:
    """``/proc/<pid>/stat`` fields after the command name ([] if gone)."""
    try:
        return Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    except OSError:
        return []


def _state(pid: int) -> str:
    fields = _stat_fields(pid)
    return fields[0] if fields else "X"


def _start_ticks(pid: int) -> int | None:
    """Start time of ``pid`` (tells a live process from a reused pid)."""
    fields = _stat_fields(pid)
    return int(fields[19]) if fields and fields[0] != "Z" else None


def process_tree(pid: int) -> list[int]:
    """``pid`` followed by every descendant that is still running."""
    out, frontier = [], [pid]
    while frontier:
        current = frontier.pop()
        if not Path(f"/proc/{current}").exists():
            continue
        out.append(current)
        for task in Path(f"/proc/{current}/task").glob("*/children"):
            try:
                frontier.extend(int(child) for child in task.read_text().split())
            except OSError:
                pass
    return out


def cpu_times(pids: list[int]) -> tuple[float, float]:
    """Summed (user, system) CPU seconds of ``pids`` (gone ones count 0).

    Each process's times include those of the children it has waited
    for, so a replica that exits and is reaped stays counted.
    """
    user = system = 0
    for pid in pids:
        fields = _stat_fields(pid)
        if fields:
            user += int(fields[11]) + int(fields[13])
            system += int(fields[12]) + int(fields[14])
    return user / _CLOCK_TICKS, system / _CLOCK_TICKS


def _vm_hwm_kb(pid: int) -> int:
    """Peak resident set (VmHWM) of ``pid`` in kB (0 if gone)."""
    try:
        status = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return 0
    for line in status.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    return 0


def peak_rss_mb(pids: list[int]) -> float:
    """Summed peak resident set (VmHWM) of ``pids``, in MB."""
    return sum(_vm_hwm_kb(pid) for pid in pids) / 1024.0
