"""Run one workload over several seeds and report each metric's spread.

Usage::

    python3 perfbench/spread.py --workload serve-mixed --seeds 1-10 [--seconds 10] [--trace 0]

For every metric it prints the median of the runs and the distance
between the first and third quartile (``statistics.quantiles(n=4)``) as a
share of the median — the figure a metric's ``bound`` in
``BENCHMARK.json`` is compared against.  Each run's result line is
appended to ``perfbench/.out/spread-<workload>.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent


def seeds(text: str) -> list[int]:
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(part) for part in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", default="10")
    parser.add_argument("--trace", default="0")
    args = parser.parse_args()
    bounds = {}
    spec_path = BENCH_DIR.parent / "BENCHMARK.json"
    if spec_path.exists():
        spec = json.loads(spec_path.read_text())
        bounds = {metric["name"]: metric["bound"] for metric in spec["end_to_end"]}
    log = BENCH_DIR / ".out" / f"spread-{args.workload}.jsonl"
    log.parent.mkdir(parents=True, exist_ok=True)
    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        started = time.perf_counter()
        done = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", args.seconds, "--trace", args.trace],
            cwd=BENCH_DIR.parent, capture_output=True, text=True,
        )
        wall = time.perf_counter() - started
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"seed {seed}: exit {done.returncode} after {wall:.1f}s\n{done.stdout}"
                  f"{done.stderr}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        info = next((json.loads(line[5:]) for line in lines if line.startswith("info ")), {})
        with log.open("a") as handle:
            handle.write(json.dumps({"seed": seed, "wall_s": wall, **result, "info": info})
                         + "\n")
        row = {name: metric["value"] for name, metric in result["metrics"].items()}
        print(f"seed {seed} ({wall:.1f}s, correct={result['correct']}): "
              + " ".join(f"{name}={value:.4g}" for name, value in sorted(row.items())),
              flush=True)
        for name, value in row.items():
            values.setdefault(name, []).append(value)
    print(f"{'metric':<32} {'median':>12} {'iqr/median':>10} {'bound/3':>8}")
    for name, series in sorted(values.items()):
        middle = statistics.median(series)
        if len(series) >= 2:
            q1, _, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / middle if middle else float("nan")
        else:
            spread = float("nan")
        bound = bounds.get(name)
        mark = "" if bound is None else f"{bound / 3:8.3f}" + ("  !" if spread > bound / 3 else "")
        print(f"{name:<32} {middle:12.5g} {spread:10.3f} {mark}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
