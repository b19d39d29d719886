"""The repository's benchmark: one workload per run, metrics as JSON.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload study-korean --seed 1 --seconds 10 --trace 0

``--trace 0`` runs the workload untraced and reports the end-to-end
metrics; ``--trace 1`` runs it once untraced and once with every layer
wrapped, and reports the per-layer metrics (self time and calls per
layer, tracing coverage and overhead) and writes a Chrome trace-event
file to ``perfbench/.out/trace-<workload>.json``.  Each correctness check
is printed as it is decided; the last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  The
exit code is 0 only when every check passed.

``--seed`` makes the workload's inputs (which users, regions and points
are queried, in what order).  The datasets are the program's own, built
from ``--dataset-seed`` (default 7, the program's default); the study
digests of seeds 7 and 11 are pinned in :mod:`pinned`.  ``--scale
small`` shrinks the datasets for quick smoke runs.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import layers  # noqa: E402
import procs  # noqa: E402
import workloads  # noqa: E402

#: End-to-end metrics and their units (every workload reports each).
E2E_UNITS = {
    "setup_s": "s",
    "norm_cpu_us_per_op": "us",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric and its unit (every workload reports each)."""
    units: dict[str, str] = {}
    totals = {name for name, _ in layers.ARTIFACT} | {"fleet.targets.request"}
    for name in ["python.import"] + [name for name, _ in layers.SPANS]:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
        if name in totals:
            units[f"{name}.s"] = "s"
    for kind in workloads.REQUEST_KINDS:
        units[f"serving.norm_cpu_us_per_req.{kind}"] = "us"
    units.update({
        "setup_raw_s": "s",
        "user_cpu_us_per_op": "us",
        "sys_cpu_us_per_op": "us",
        "streaming.queue.take_batch.calls": "count",
        "streaming.queue.take_batch.items_per_call": "count",
        "serving.aio.executor_offloads": "count",
        "geocode.service.l1_hit_ratio": "ratio",
        "geocode.service.l1_lookups": "count",
        "serving.busy_frac": "ratio",
        "serving.cpu_us_per_req": "us",
        "fleet.front.cpu_us_per_req": "us",
        "fleet.retries": "count",
        "live.swap_lag_p50_ms": "ms",
        "live.swap_lag_p95_ms": "ms",
        "live.useful_build_ratio": "ratio",
        "live.swaps": "count",
        "wall.throughput_per_s": "1/s",
        "wall.p50_ms": "ms",
        "wall.p95_ms": "ms",
        "wall.p99_ms": "ms",
        "gen.late_ms": "ms",
        "gen.busy_frac": "ratio",
        "error_frac": "ratio",
        "host.nproc": "count",
        "host.loadavg_1m": "load",
        "host.probe_ms": "ms",
        "trace.coverage": "ratio",
        "trace.overhead": "ratio",
        "trace.spans": "count",
    })
    return units


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--dataset-seed", type=int, default=7)
    parser.add_argument("--scale", choices=sorted(workloads.SCALES), default="default")
    return parser.parse_args(argv)


def report(outcome: workloads.Outcome, trace: bool) -> dict:
    """The result object: checks, counts, and the requested metric set."""
    if trace:
        units = per_layer_units()
        values = {name: value for name, (value, _) in outcome.layers.items()}
        values["error_frac"] = outcome.failed / max(outcome.attempted, 1)
        metrics = {name: {"value": float(values.get(name, 0.0)), "unit": unit}
                   for name, unit in units.items()}
    else:
        metrics = {name: {"value": float(outcome.e2e[name]), "unit": unit}
                   for name, unit in E2E_UNITS.items()}
    return {
        "correct": outcome.correct,
        "attempted": max(outcome.attempted, 1),
        "failed": outcome.failed,
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    try:
        procs.program_env()
    except procs.ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # The load generator and checks keep off the program's CPU (threads
    # started from here inherit this; the speed probe pins itself).
    os.sched_setaffinity(0, procs.BENCH_CPUS)
    ctx = workloads.make_context(args.workload, args.seed, args.seconds,
                                 bool(args.trace), args.dataset_seed, args.scale)
    try:
        outcome = workloads.WORKLOADS[args.workload](ctx)
    except Exception as exc:  # a crashed workload is a failed run, reported once
        print(f"error: {args.workload} failed: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(ctx.tmp, ignore_errors=True)
    for name, ok, detail in outcome.checks:
        print(f"check {'ok  ' if ok else 'FAIL'} {name}" + (f" ({detail})" if detail else ""))
    host = workloads.host_info()
    outcome.layer("host.nproc", host["nproc"], "count")
    outcome.layer("host.loadavg_1m", host["loadavg_1m"], "load")
    info = {"workload": args.workload, "seed": args.seed, "host": host, **outcome.info}
    print("info " + json.dumps(info, sort_keys=True, default=str))
    result = report(outcome, bool(args.trace))
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
