"""Small-scale runs of every workload, with their correctness checks.

Each run uses ``--scale small`` (400 accounts, 10 days) so the whole
file takes about a minute; the checks are the same as at full scale,
including the pinned small-scale study digests.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("workload", ["study-korean", "serve-mixed", "live-ladygaga",
                                      "fleet-proxy"])
def test_workload_smoke(workload):
    done = _run("--workload", workload, "--seed", "3", "--seconds", "2",
                "--trace", "0", "--scale", "small")
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {name: metric["unit"] for name, metric in result["metrics"].items()} \
        == run.E2E_UNITS
    assert all(metric["value"] > 0 for metric in result["metrics"].values())
    checks = [line for line in lines if line.startswith("check ")]
    assert checks and all(line.startswith("check ok") for line in checks)


def test_traced_run_reports_every_layer_metric():
    done = _run("--workload", "study-korean", "--seed", "3", "--seconds", "2",
                "--trace", "1", "--scale", "small")
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    metrics = result["metrics"]
    assert {name: metric["unit"] for name, metric in metrics.items()} \
        == run.per_layer_units()
    assert "check ok   traced study digest equals untraced" in done.stdout
    assert metrics["trace.coverage"]["value"] > 0.9
    assert metrics["twitter.tweetgen.tweets_for.calls"]["value"] > 0
    trace = json.loads((BENCH_DIR / ".out" / "trace-study-korean.json").read_text())
    assert any(event.get("name") == "engine.stages.reverse_geocode"
               for event in trace["traceEvents"])


def test_traced_serve_mixed_measures_each_request_kind():
    done = _run("--workload", "serve-mixed", "--seed", "3", "--seconds", "2",
                "--trace", "1", "--scale", "small")
    assert done.returncode == 0, done.stdout + done.stderr
    metrics = json.loads(done.stdout.strip().splitlines()[-1])["metrics"]
    assert metrics["serving.http.dispatch.calls"]["value"] > 0
    for kind in run.workloads.REQUEST_KINDS:
        assert metrics[f"serving.norm_cpu_us_per_req.{kind}"]["value"] > 0, kind
    assert "check ok   serve-mixed untraced per-kind phase: bodies byte-equal" in done.stdout


def test_traced_fleet_proxy_measures_the_front():
    done = _run("--workload", "fleet-proxy", "--seed", "3", "--seconds", "2",
                "--trace", "1", "--scale", "small")
    assert done.returncode == 0, done.stdout + done.stderr
    metrics = json.loads(done.stdout.strip().splitlines()[-1])["metrics"]
    for name in ("fleet.front.dispatch.calls", "fleet.front.dispatch.self_s",
                 "fleet.targets.request.s", "fleet.front.cpu_us_per_req"):
        assert metrics[name]["value"] > 0, name


def test_artifact_cache_key_follows_the_program_sources(tmp_path, monkeypatch):
    source = tmp_path / "src" / "repro" / "cli.py"
    source.parent.mkdir(parents=True)
    source.write_text("VERSION = 1\n")
    monkeypatch.setattr(run.procs, "ROOT", tmp_path)
    first = run.workloads.program_fingerprint()
    (source.parent / "__pycache__").mkdir()
    (source.parent / "__pycache__" / "cli.pyc").write_bytes(b"compiled")
    assert run.workloads.program_fingerprint() == first
    source.write_text("VERSION = 2\n")
    assert run.workloads.program_fingerprint() != first


def test_speed_probe_samples_the_program_and_scales_its_cpu_time():
    busy = subprocess.Popen([sys.executable, "-c",
                             "import time\nend = time.time() + 1.0\nwhile time.time() < end: pass"])
    try:
        with run.procs.SpeedProbe(lambda: run.procs.process_tree(busy.pid)) as probe:
            busy.wait(timeout=30)
    finally:
        busy.kill()
    assert probe.samples and probe.tasks
    assert sum(user for user, _ in probe.samples) > 0.5
    assert probe.factor > 0 and probe.speed > 0
    assert probe.scale(2.0) == 2.0 * probe.factor


def test_benchmark_json_matches_the_metric_catalogue():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert {metric["name"]: metric["unit"] for metric in spec["end_to_end"]} \
        == run.E2E_UNITS
    assert {metric["name"]: metric["unit"] for metric in spec["per_layer"]} \
        == run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(run.workloads.WORKLOADS)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".cache", ".out", "__pycache__"))
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve-mixed", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
