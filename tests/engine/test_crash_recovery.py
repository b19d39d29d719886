"""Crash-recovery property tests for the process backend.

The parallel layer's acceptance bar: a shard worker dying mid-run — once
(retry on a fresh pool) or repeatedly (serial fallback in the parent) —
must not change a single byte of the study result, on either dataset,
for any shard count.  ``WorkerFaultPlan`` injects the crashes
deterministically; byte-identity is checked field by field with the same
helper the seed-equivalence suite uses.
"""

import warnings
from pathlib import Path

import pytest

from repro.analysis.correlation import run_study
from repro.engine import EngineConfig, RunContext, WorkerFaultPlan
from repro.geocode import cell_cache_path

from tests.engine.test_engine import assert_results_identical


@pytest.fixture(scope="module")
def references(small_ctx):
    """Serial-reference results for both datasets, keyed by name."""
    out = {}
    for name in ("korean", "ladygaga"):
        ds = getattr(small_ctx, f"{name}_dataset")
        out[name] = (ds, run_study(ds.users, ds.tweets, ds.gazetteer, name))
    return out


def assert_crash_budget_spent(plan):
    """Every armed crash fired, so the case really exercised recovery.

    Only the reverse-geocode stage fans out to the pool, so the armed
    shard must receive cache misses or the worker never runs."""
    assert Path(plan.token_path).read_text(encoding="utf-8") == "0"


def _run_with_plan(ds, name, plan, shards, cache_dir=None):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return run_study(
            ds.users, ds.tweets, ds.gazetteer, name,
            engine_config=EngineConfig(
                shards=shards,
                backend="process",
                fault_plan=plan,
                cache_dir=str(cache_dir) if cache_dir else None,
            ),
        )


class TestCrashedWorkerStaysByteIdentical:
    @pytest.mark.parametrize("dataset", ["korean", "ladygaga"])
    @pytest.mark.parametrize("shards", [2, 8])
    def test_single_crash_retried(self, references, tmp_path, dataset, shards):
        ds, reference = references[dataset]
        plan = WorkerFaultPlan.arm(tmp_path / "token", shard=shards - 1, crashes=1)
        result = _run_with_plan(ds, dataset, plan, shards)
        assert_results_identical(reference, result)
        assert_crash_budget_spent(plan)

    @pytest.mark.parametrize("dataset", ["korean", "ladygaga"])
    def test_repeated_crash_serial_fallback(self, references, tmp_path, dataset):
        ds, reference = references[dataset]
        plan = WorkerFaultPlan.arm(tmp_path / "token", shard=0, crashes=2)
        result = _run_with_plan(ds, dataset, plan, 4)
        assert_results_identical(reference, result)
        assert_crash_budget_spent(plan)

    def test_crash_recovery_emits_actionable_warning(self, references, tmp_path):
        """Operators get a RuntimeWarning naming the path taken, never a
        raw BrokenProcessPool traceback."""
        ds, reference = references["korean"]
        plan = WorkerFaultPlan.arm(tmp_path / "token", shard=1, crashes=1)
        with pytest.warns(RuntimeWarning, match="retrying once"):
            result = run_study(
                ds.users, ds.tweets, ds.gazetteer, "korean",
                engine_config=EngineConfig(
                    shards=4, backend="process", fault_plan=plan
                ),
            )
        assert_results_identical(reference, result)
        assert_crash_budget_spent(plan)

    def test_recovery_metrics_reported(self, references, tmp_path):
        ds, _ = references["korean"]
        plan = WorkerFaultPlan.arm(tmp_path / "token", shard=0, crashes=2)
        context = RunContext(dataset_name="korean")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            run_study(
                ds.users, ds.tweets, ds.gazetteer, "korean",
                engine_config=EngineConfig(
                    shards=4, backend="process", fault_plan=plan
                ),
                context=context,
            )
        assert_crash_budget_spent(plan)
        snap = context.metrics.snapshot()
        assert snap["sharding.worker_retries"] >= 1
        assert snap["sharding.serial_fallbacks"] >= 1


class TestCrashLeavesCacheConsistent:
    def test_segments_merged_despite_crash(self, references, tmp_path):
        """A crashed shard's partial segment is reopened on retry; the
        merged shared cache ends up complete, segment files are reaped,
        and a second run resolves everything from the warm disk tier."""
        ds, reference = references["korean"]
        cache_dir = tmp_path / "cache"
        cache_dir.mkdir()
        plan = WorkerFaultPlan.arm(tmp_path / "token", shard=2, crashes=1)
        result = _run_with_plan(ds, "korean", plan, 4, cache_dir=cache_dir)
        assert_results_identical(reference, result)
        assert_crash_budget_spent(plan)
        assert cell_cache_path(cache_dir).exists()
        assert not list(cache_dir.glob("geocells.shard-*.jsonl"))

        warm_context = RunContext(dataset_name="korean")
        warm = run_study(
            ds.users, ds.tweets, ds.gazetteer, "korean",
            engine_config=EngineConfig(
                shards=4, backend="process", cache_dir=str(cache_dir)
            ),
            context=warm_context,
        )
        assert_results_identical(reference, warm)
        snap = warm_context.metrics.snapshot()
        assert snap["geocode.tiers.backend.lookups"] == 0
