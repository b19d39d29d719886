"""Run one ``repro`` command, optionally with every layer traced.

Usage: ``python perfbench/launch.py <repro arguments...>`` with the
program's ``src`` directory on ``PYTHONPATH``.  It calls
``repro.cli.main`` with the arguments, exactly as ``python -m repro``
would.  Environment variables switch on the extras:

* ``PERFBENCH_REPORT=<path>`` — on exit, write the process's peak RSS,
  CPU seconds (user and system, each including the child processes it
  waited for), the largest waited-for child's peak RSS, wall seconds and
  exit code there as JSON.
* ``PERFBENCH_TRACE=<path>`` — wrap the functions listed in
  :mod:`layers` before ``main`` runs, and on exit write the span summary
  (per-layer calls, total and self time, coverage) there as JSON.
* ``PERFBENCH_TRACE_EVENTS=<path>`` — with tracing on, also write every
  span as a Chrome trace-event file (open it in Perfetto or
  ``about:tracing``).
* ``PERFBENCH_CPUS=<n,...>`` — run on these CPUs only (threads and child
  processes inherit it), apart from the benchmark's load generator.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def _install_tracing():
    """Import the program under an import span, then wrap its layers."""
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import layers
    from tracer import Tracer, install

    tracer = Tracer()
    tracer.origin = STARTED
    import repro.cli  # noqa: F401 — loads every layer the CLI can reach

    tracer.record("python.import", STARTED, time.perf_counter())
    for name, path in layers.SPANS:
        install(tracer, path, name)
    for name, path, hook in layers.COUNTED:
        install(tracer, path, name, on_result=hook)

    from repro.geocode.service import GeocodeService

    services: list = []
    original_init = GeocodeService.__init__

    def tracked_init(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        services.append(self)

    GeocodeService.__init__ = tracked_init
    return tracer, services


def _write_events(path: str, tracer, argv: list[str]) -> None:
    """Write the spans as a Chrome trace-event JSON object, streamed."""
    events = tracer.chrome_trace(os.getpid(), "repro " + " ".join(argv[:1]))
    with open(path, "w", encoding="utf-8") as handle:
        handle.write('{"displayTimeUnit": "ms", "traceEvents": [\n')
        for index, event in enumerate(events):
            if index:
                handle.write(",\n")
            handle.write(json.dumps(event, separators=(",", ":")))
        handle.write("\n]}\n")


def main() -> int:
    argv = sys.argv[1:]
    # A process started with SIGINT ignored (a background job of a
    # non-interactive shell) keeps it ignored; the benchmark stops its
    # servers with SIGINT, so restore Python's usual handler.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    cpus = os.environ.get("PERFBENCH_CPUS")
    if cpus:
        os.sched_setaffinity(0, {int(cpu) for cpu in cpus.split(",")})
    trace_path = os.environ.get("PERFBENCH_TRACE")
    tracer = services = None
    if trace_path:
        tracer, services = _install_tracing()
    import repro.cli

    code = 1
    try:
        code = repro.cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    except KeyboardInterrupt:
        code = 130
    finally:
        wall = time.perf_counter() - STARTED
        sys.stdout.flush()
        usage = resource.getrusage(resource.RUSAGE_SELF)
        children = resource.getrusage(resource.RUSAGE_CHILDREN)
        report_path = os.environ.get("PERFBENCH_REPORT")
        if report_path:
            Path(report_path).write_text(json.dumps({
                "exit_code": code,
                "wall_s": wall,
                "user_cpu_s": usage.ru_utime + children.ru_utime,
                "sys_cpu_s": usage.ru_stime + children.ru_stime,
                "peak_rss_kb": usage.ru_maxrss,
                "children_peak_rss_kb": children.ru_maxrss,
            }))
        if tracer is not None:
            summary = tracer.summary(wall)
            hits = sum(service.stats.l1_hits for service in services)
            misses = sum(service.stats.l1_misses for service in services)
            summary["counters"]["geocode.service.l1_hits"] = hits
            summary["counters"]["geocode.service.l1_lookups"] = hits + misses
            Path(trace_path).write_text(json.dumps(summary))
            events_path = os.environ.get("PERFBENCH_TRACE_EVENTS")
            if events_path:
                _write_events(events_path, tracer, argv)
    return code


if __name__ == "__main__":
    sys.exit(main())
